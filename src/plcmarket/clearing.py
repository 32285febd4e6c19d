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

`verify` runs on one integer scale from the demand oracle through max-flow:
it takes `int_demand`'s integer answers, puts every arc's money bound on one
scale, at most M * D * e (quantities in units of 1/M market-wide, prices
P_k / D, eps with denominator e), and gets integer flows back.  Fractions
are built once, at the outputs: the witness bundles, the reject report, and
the traders' demand sets that the witness re-check reads.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .demand import (
    Bundle,
    IntDemand,
    budget,
    canonical_bundle,
    demand_set,
    in_demand,
    int_demand,
    optimal_demand,
)
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
    demands: list[IntDemand | None],
    waived: set[int],
    windows,
) -> tuple[Bundle, ...] | None:
    """Feasibility core shared by verify and clearing_feasibility: an optimal
    allocation within the windows as witness bundles, or None.

    Every arc carries money at one integer scale, Q * D: quantities count
    1/Q, with Q the lcm of the market's denominator M and the windows'
    (a divisor of M times the denominator of eps), and prices are P_k / D.
    A trader whose amounts count 1/M_i scales them by Q // M_i."""
    D, P = p.scaled
    Q = math.lcm(m.scaled[0], *(b.denominator for w in windows for b in w))
    scale = [0] * len(demands)  # Q // M_i per trader whose demand counts, else 0
    forced = [0] * m.n_goods
    inf = Q * D  # exceeds the money of every arc: all budgets plus 1
    for i, d in enumerate(demands):
        if d is None:
            continue
        a = Q // d.den
        inf += d.budget * a
        if i not in waived:
            scale[i] = a
            for k, x in d.forced.items():
                forced[k] += x * a
    priced = [k for k, q in enumerate(P) if q]
    arcs: list[Arc] = []
    qty_arcs: list[tuple[int, int, int]] = []  # (arc index, trader, good)
    for i, d in enumerate(demands):
        a = scale[i]
        if not a:
            continue
        if d.rate:
            spend = d.spend * a
            arcs.append(Arc("src", ("t", i), spend, spend))
            for k, _, cap in d.ties:
                qty_arcs.append((len(arcs), i, k))
                arcs.append(Arc(("t", i), ("g", k), 0, inf if cap is None else cap * P[k] * a))
        elif d.spend > 0 and priced:
            arcs.append(Arc("src", ("t", i), 0, d.spend * a))
            for k in priced:
                qty_arcs.append((len(arcs), i, k))
                arcs.append(Arc(("t", i), ("g", k), 0, inf))
    top_up = []  # (good, amount) a free good adds to reach its window floor
    for k, (lo, hi) in enumerate(windows):
        lo, hi, q = lo.numerator * (Q // lo.denominator), hi.numerator * (Q // hi.denominator), P[k]
        if q:
            arcs.append(Arc(("g", k), "snk", max(0, lo - forced[k]) * q, (hi - forced[k]) * q))
        elif forced[k] > hi:
            return None  # free goods never carry money; their total is forced[k]
        elif lo > forced[k]:
            top_up.append((k, lo - forced[k]))
    arcs.append(Arc("snk", "src", 0, inf))

    flows = feasible_circulation(arcs)
    if flows is None:
        return None
    alloc = [{k: Fraction(x, d.den) for k, x in d.forced.items()} if a else {} for a, d in zip(scale, demands)]
    for arc_idx, i, k in qty_arcs:
        f = flows[arc_idx]
        if f:  # the only arc of trader i to good k: a tie holds one segment of a good
            alloc[i][k] = Fraction(demands[i].forced.get(k, 0) * scale[i] * P[k] + f, Q * P[k])
    for k, x in top_up:
        alloc[0][k] = alloc[0].get(k, 0) + Fraction(x, Q)  # utility-neutral beyond satiation
    return tuple(Bundle(tuple(x.items())) for x in alloc)


def _canonical_totals(m: Market, p: PriceVector, demands: list[IntDemand | None]) -> list[Fraction]:
    """Per-good totals of the canonical bundles (see `canonical_bundle`),
    summed in integers: good k in units of 1/(M * P_k), or 1/M when free."""
    M = m.scaled[0]
    P = p.scaled[1]
    totals = [0] * m.n_goods
    for d in demands:
        if d is None:
            continue
        a = M // d.den
        for k, x in d.forced.items():
            totals[k] += x * a * (P[k] or 1)
        if d.rate:
            money = d.spend
            for k, _, cap in d.ties:
                if not money:
                    break
                take = money if cap is None else min(cap * P[k], money)
                totals[k] += take * a
                money -= take
    return [Fraction(t, M * (q or 1)) for t, q in zip(totals, P)]


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
    demands = [int_demand(t, p.scaled[1], i) for i, t in enumerate(m.traders)]
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

    P = p.scaled[1]
    demands: list[IntDemand | None] = []
    waived: set[int] = set()
    for i, trader in enumerate(m.traders):
        try:
            d = int_demand(trader, P, i)
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
        report = clearing_report(supplies, _canonical_totals(m, p, demands), eps)
        return Certificate("reject", "clearing-infeasible", mode, eps, None, report)

    # the re-check reads each trader's Fraction demand set, built once here
    sets = [None if i in waived else demand_set(d, p) for i, d in enumerate(demands)]
    totals = check_witness(m, p, bundles, sets, waived, windows)
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
