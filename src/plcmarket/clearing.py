"""Equilibrium verification via exact feasibility over demand sets.

Deciding whether a price vector is an equilibrium requires searching the
whole product of per-trader optimal-bundle sets: at tie prices a trader may
split money across the tie frontier, and the split matters for clearing.
The search is an exact-rational circulation problem over money:

* a source arc per trader carries her mandatory tie spend (an exact equality
  when the cutoff rate is positive) or her optional residual spend,
* an arc per tie offer is capped by the offer's money capacity,
* a sink arc per good carries that good's clearing window, shifted by the
  forced purchases that no optimal bundle can avoid.

Zero-priced goods never carry money; they are checked arithmetically (forced
satiation amounts must fit under the window ceiling, and free top-ups can
always reach the window floor).

An accept witness is re-checked without the flow: each bundle's utility is
compared with the canonical bundle's only on the goods where the two differ.
Forced purchases and all bundles are (good, amount) pairs, and the per-good
totals are summed from them; no N-length row per trader is built.
"""

from dataclasses import dataclass
from fractions import Fraction

from .demand import Bundle, DemandSet, budget, canonical_bundle, in_demand, optimal_demand
from .errors import InternalInvariantViolation, InvalidMarket, ShapeMismatch, UnboundedDemand
from .flow import Arc, feasible_circulation
from .model import Market, PriceVector, normalize_prices
from .rational import parse_epsilon

EXACT = "exact"
APPROXIMATE = "approximate"
QUASI = "quasi"
MODES = (EXACT, APPROXIMATE, QUASI)


@dataclass(frozen=True)
class GoodBalance:
    good: int
    supply: Fraction
    allocated: Fraction
    imbalance: Fraction
    bound: Fraction


@dataclass(frozen=True)
class Certificate:
    verdict: str  # "accept" | "reject"
    reason: str | None
    mode: str
    epsilon: Fraction
    allocation: tuple[Bundle, ...] | None
    report: tuple[GoodBalance, ...] | None

    @property
    def accepted(self) -> bool:
        return self.verdict == "accept"


def clearing_windows(supplies, p: PriceVector, mode: str, eps: Fraction):
    """Per-good [lo, hi] on total allocation.

    Approximate mode uses the two-sided eps window around supply (a zero
    supply degenerates it to the point {0}).  Exact and quasi modes demand
    equality on positively priced goods and allow free disposal at price 0.
    """
    out = []
    for s, price in zip(supplies, p.prices):
        if mode == APPROXIMATE:
            out.append((max(Fraction(0), s * (1 - eps)), s * (1 + eps)))
        elif price > 0:
            out.append((s, s))
        else:
            out.append((Fraction(0), s))
    return out


def _totals(n_goods: int, bundles) -> list[Fraction]:
    """Per-good sums of (good, amount) pair lists."""
    totals = [Fraction(0)] * n_goods
    for pairs in bundles:
        for k, x in pairs:
            totals[k] += x
    return totals


def _solve(
    m: Market,
    p: PriceVector,
    demands: list[DemandSet | None],
    waived: set[int],
    windows,
) -> tuple[Bundle, ...] | None:
    """Feasibility core shared by verify and clearing_feasibility: an optimal
    allocation within the windows as witness bundles, or None."""
    priced = [k for k, q in enumerate(p.prices) if q > 0]
    alloc = [{} if i in waived or d is None else dict(d.forced) for i, d in enumerate(demands)]
    forced = _totals(m.n_goods, (x.items() for x in alloc))
    inf = sum((d.budget for d in demands if d is not None), Fraction(0)) + 1
    arcs: list[Arc] = []
    qty_arcs: list[tuple[int, int, int]] = []  # (arc index, trader, good)
    for i, d in enumerate(demands):
        if i in waived or d is None:
            continue
        if d.cutoff_rate > 0:
            arcs.append(Arc("src", ("t", i), d.tie_spend, d.tie_spend))
            for o in d.tie_offers:
                ub = inf if o.quantity_cap is None else o.quantity_cap * o.unit_cost
                qty_arcs.append((len(arcs), i, o.good))
                arcs.append(Arc(("t", i), ("g", o.good), Fraction(0), ub))
        elif d.tie_spend > 0 and priced:
            arcs.append(Arc("src", ("t", i), Fraction(0), d.tie_spend))
            for k in priced:
                qty_arcs.append((len(arcs), i, k))
                arcs.append(Arc(("t", i), ("g", k), Fraction(0), inf))
    for k, (lo, hi) in enumerate(windows):
        price = p.prices[k]
        if price == 0 and forced[k] > hi:
            return None  # free goods never carry money; their total is forced[k]
        if price > 0:
            lo_money = max(Fraction(0), lo - forced[k]) * price
            arcs.append(Arc(("g", k), "snk", lo_money, (hi - forced[k]) * price))
    arcs.append(Arc("snk", "src", Fraction(0), inf))

    flows = feasible_circulation(arcs)
    if flows is None:
        return None
    for arc_idx, i, k in qty_arcs:
        if flows[arc_idx]:
            alloc[i][k] = alloc[i].get(k, 0) + flows[arc_idx] / p.prices[k]
    for k, (lo, _) in enumerate(windows):
        if p.prices[k] == 0 and lo > forced[k]:
            alloc[0][k] = alloc[0].get(k, 0) + lo - forced[k]  # free top-up, utility-neutral beyond satiation
    return tuple(Bundle(tuple(sorted(x.items()))) for x in alloc)


def clearing_report(supplies, allocated, eps: Fraction) -> tuple[GoodBalance, ...]:
    """Per-good balance of the allocated totals against supply."""
    return tuple(
        GoodBalance(good=k, supply=s, allocated=a, imbalance=a - s, bound=eps * s)
        for k, (s, a) in enumerate(zip(supplies, allocated))
    )


def _check_shape(m: Market, p: PriceVector):
    if len(p.prices) != m.n_goods:
        raise ShapeMismatch(f"expected {m.n_goods} prices, got {len(p.prices)}")


def clearing_feasibility(
    m: Market, p: PriceVector, eps
) -> tuple[Bundle, ...] | None:
    """Existence of an optimal allocation clearing every good within eps.

    Propagates UnboundedDemand; returns a witness allocation or None.
    """
    _check_shape(m, p)
    demands = [optimal_demand(t, p, i) for i, t in enumerate(m.traders)]
    windows = clearing_windows(m.supplies(), p, APPROXIMATE, parse_epsilon(eps))
    return _solve(m, p, demands, set(), windows)


def verify(m: Market, p: PriceVector, mode: str, eps=0) -> Certificate:
    """Full verdict with witness and per-good clearing report.

    The input vector must have one entry per good (else ShapeMismatch) and is
    normalized first.  Exact and quasi modes pin eps to 0; quasi waives
    optimality for zero-income traders, who may then receive any zero-cost
    bundle.
    """
    if mode not in MODES:
        raise InvalidMarket(f"unknown verification mode {mode!r}")
    eps = parse_epsilon(eps) if mode == APPROXIMATE else Fraction(0)
    _check_shape(m, p)
    p = normalize_prices(p)

    demands: list[DemandSet | None] = []
    waived: set[int] = set()
    for i, trader in enumerate(m.traders):
        try:
            d = optimal_demand(trader, p, i)
        except UnboundedDemand as exc:
            if mode == QUASI and budget(trader, p) == 0:
                waived.add(i)
                demands.append(None)
                continue
            return Certificate("reject", str(exc), mode, eps, None, None)
        if mode == QUASI and d.budget == 0:
            waived.add(i)  # the zero-cost arm subsumes their optimal bundles
        demands.append(d)

    supplies = m.supplies()
    windows = clearing_windows(supplies, p, mode, eps)
    bundles = _solve(m, p, demands, waived, windows)
    if bundles is None:
        # a waived trader with unbounded demand holds nothing
        canonical = (canonical_bundle(d).amounts for d in demands if d is not None)
        report = clearing_report(supplies, _totals(m.n_goods, canonical), eps)
        return Certificate("reject", "clearing-infeasible", mode, eps, None, report)

    totals = check_witness(m, p, bundles, demands, waived, windows)
    return Certificate("accept", None, mode, eps, bundles, clearing_report(supplies, totals, eps))


def check_witness(m, p, bundles, demands, waived, windows) -> list[Fraction]:
    """Re-validate an accept witness against the traders' demand sets and the
    clearing windows; a failure here is a bug.  Returns the per-good totals
    it checked, for the report."""
    for i, (trader, d, b) in enumerate(zip(m.traders, demands, bundles)):
        if i in waived:
            if b.cost(p) != 0:
                raise InternalInvariantViolation(f"waived trader {i} got a costly bundle")
        elif not in_demand(trader, p, d, b):
            raise InternalInvariantViolation(f"witness bundle for trader {i} is not optimal")
    totals = _totals(len(windows), (b.amounts for b in bundles))
    for k, ((lo, hi), total) in enumerate(zip(windows, totals)):
        if not lo <= total <= hi:
            raise InternalInvariantViolation(f"witness violates clearing window on good {k}")
    return totals


def imbalance_profile(m: Market, p: PriceVector, eps=0) -> tuple[GoodBalance, ...]:
    """Per-good balance of the canonical (deterministic) demand bundles.

    No feasibility search, so it can differ from verify's verdict exactly
    when tie flexibility matters.  This is the reference scorer: the grid
    search's incremental scores must equal the worst relative imbalance of
    this report at every grid point, and skip the same points.
    """
    _check_shape(m, p)
    eps = parse_epsilon(eps)
    bundles = (canonical_bundle(optimal_demand(t, p, i)).amounts for i, t in enumerate(m.traders))
    return clearing_report(m.supplies(), _totals(m.n_goods, bundles), eps)
