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

`_solve` takes one pass over the counted traders and sums, per good, its
forced money F_k, the money L_k that must reach it (the spend of each trader
whose one tie offer is on k, all of which its equality source arc sends
there), and the most T_k its tie offers could bring, beside the residual
spenders' free money R.  One bound decides without a flow (`_flowless`): a
priced good with F_k + L_k above its window ceiling, or F_k + T_k + R below
its floor, is a cut whose capacity falls short, so by Hoffman's circulation
theorem the flow would find no circulation either.  Where no trader has a
choice (R = 0 and L_k = T_k on every good) the circulation has one
candidate, so once the bound passes each trader's money is routed to its
one tie good and no arc is built.  The flow decides the rest, tie splits
and residual spenders, and there Edmonds-Karp's path order fixes the
witness.

`verify` is the one entry point: a witness allocation is the `allocation`
of its accept certificate.  It runs on one integer scale from the demand
oracle through max-flow and the re-check: it takes `int_demand`'s integer
answers on the market's view, all in units of 1/M market-wide, and the
clearing windows as ints on Q = M * e (eps = a / e), puts every arc's money
bound on the scale Q * D (prices P_k / D), and gets integer flows back.
The witness stays in integers, a priced good k in units of 1/(Q * P_k), so
that an entry is its money on the arcs' scale, and a free good in units of
1/Q.  The re-check runs on these integers: each bundle is compared entry
by entry with the trader's canonical fill scaled by Q // M, utilities are
compared only on the goods where the two differ and the bundle's money with
the budget only when they differ at all, and each good's total must lie
within lo * P_k and hi * P_k.  Forced purchases and all
bundles are (good, amount) pairs; no N-length row per trader is built.
The utility terms on goods where a witness leaves canonical demand are
integers on the view's rows too, so `verify` reads only `Market.view`,
never a market's traders, and builds Fractions once the re-check has
passed, for the witness bundles and the report.  Witness bundles repeat
(at an in-box price vector of `M_n`, n of them serve the n(n - 1)
traders), so `verify` builds one `Bundle` per distinct integer bundle and
one (good, Fraction) pair per distinct integer entry and shares them: a
`Bundle` is frozen, and equal integers on one unit give equal Fractions.  Prices are taken as
given: scaling them by c scales every money bound by c, the uncapped arcs'
aside, which no flow fills, so the flows scale by c and the certificate
stays.
"""

from dataclasses import dataclass
from fractions import Fraction

from .demand import Bundle, IntDemand, canonical_amounts, in_demand, int_demand
from .errors import InternalInvariantViolation, InvalidMarket, ShapeMismatch, UnboundedDemand
from .flow import Arc, feasible_circulation
from .model import Market, Memo, PriceVector, trusted
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


def clearing_windows(m: Market, P, mode: str, eps: Fraction):
    """(Q, bounds): per-good [lo, hi] on total allocation in units of 1/Q,
    Q = M * e for the market's amount scale M and eps = a / e.

    Approximate mode uses the two-sided eps window around supply S / M,
    (S * (e - a), S * (e + a)).  Exact and quasi modes demand equality on
    positively priced goods and allow free disposal at price 0.
    """
    M, supplies = m.scaled
    a, e = eps.numerator, eps.denominator
    if mode == APPROXIMATE:
        bounds = [(s * (e - a), s * (e + a)) for s in supplies]
    else:
        bounds = [(s if q else 0, s) for s, q in zip(supplies, P)]
    return M * e, bounds


def _flowless(sink, least, reach, free: int, P) -> bool | None:
    """The verdict one priced good's money bounds give without a flow, or
    None where the flow must decide.  `least` is the money that must reach
    each good, the spend of the traders whose one tie offer is on it;
    `reach` is the most its tie offers could bring, and `free` the residual
    spenders' money, which could reach every priced good.  A good whose
    least is above its sink arc's ceiling, or whose reach plus free is below
    the arc's floor, is a cut whose capacity falls short (Hoffman's
    circulation theorem): False.  Where no trader has a choice (no free
    money, and least equals reach on every good), each good's money is its
    least, so the bounds that pass make the one circulation feasible: True.
    All on the arcs' scale, Q * D."""
    if any(q and (m > hi or r + free < lo) for (lo, hi), m, r, q in zip(sink, least, reach, P)):
        return False
    return True if free == 0 and least == reach else None


def _solve(
    m: Market,
    p: PriceVector,
    demands: list[IntDemand | None],
    waived: set[int],
    windows,
) -> list[dict[int, int]] | None:
    """Feasibility core of verify: an optimal allocation within the windows
    as integer witness bundles, or None.

    windows is `clearing_windows`'s (Q, bounds).  Every arc carries money
    at one integer scale, Q * D: quantities count 1/Q and prices are
    P_k / D.  Every demand counts amounts in units of 1/M, so one factor
    Q // M scales them all.  A witness bundle maps each good to its amount
    in units of 1/(Q * P_k), which is its money on the arcs' scale, or 1/Q
    when the good is free.

    One pass over the counted traders sums each good's forced purchases and
    the money bounds `_flowless` reads.  Where they decide, no arc is built:
    a reject, or, where no trader has a choice, each spending trader's money
    routed to its one tie good.  Otherwise the flow decides."""
    D, P = p.scaled
    Q, bounds = windows
    M = m.scaled[0]
    a = Q // M
    counted = [d is not None and i not in waived for i, d in enumerate(demands)]
    forced = [0] * m.n_goods
    least = [0] * m.n_goods  # the money that must reach each good
    reach = [0] * m.n_goods  # the most money each good's tie offers could bring
    for d, c in zip(demands, counted):
        if c:
            for k, x in d.forced.items():
                forced[k] += x * a
            spend = d.spend * a
            if len(d.ties) == 1:
                least[d.ties[0][0]] += spend
            for k, _, cap in d.ties:  # one offer per good: a tie holds one segment of a good
                reach[k] += spend if cap is None else min(spend, cap * P[k] * a)
    free = sum(d.spend for d, c in zip(demands, counted) if c and not d.ties) * a  # the residual spenders' money
    top_up = []  # (good, amount) a free good adds to reach its window floor
    for k, ((lo, hi), q) in enumerate(zip(bounds, P)):
        if q:
            continue
        if forced[k] > hi:
            return None  # free goods never carry money; their total is forced[k]
        if lo > forced[k]:
            top_up.append((k, lo - forced[k]))
    # a priced good's window on its tie money, the bounds of its sink arc
    sink = [(max(0, lo - f) * q, (hi - f) * q) for f, (lo, hi), q in zip(forced, bounds, P)]
    verdict = _flowless(sink, least, reach, free, P)
    if verdict is False:
        return None
    if verdict:
        paid = [(i, d.ties[0][0], d.spend * a) for i, (d, c) in enumerate(zip(demands, counted)) if c and d.spend]
    else:
        inf = Q * D + sum(d.budget for d in demands if d is not None) * a  # exceeds the money of every arc
        priced = [k for k, q in enumerate(P) if q]
        arcs: list[Arc] = []
        qty_arcs: list[tuple[int, int, int]] = []  # (arc index, trader, good)
        for i, (d, c) in enumerate(zip(demands, counted)):
            if not c:
                continue
            spend = d.spend * a
            if d.ties:
                arcs.append(Arc("src", ("t", i), spend, spend))
                for k, _, cap in d.ties:
                    qty_arcs.append((len(arcs), i, k))
                    arcs.append(Arc(("t", i), ("g", k), 0, inf if cap is None else cap * P[k] * a))
            elif spend:  # a spender has a budget, so some price is positive
                arcs.append(Arc("src", ("t", i), 0, spend))
                for k in priced:
                    qty_arcs.append((len(arcs), i, k))
                    arcs.append(Arc(("t", i), ("g", k), 0, inf))
        for k in priced:
            arcs.append(Arc(("g", k), "snk", *sink[k]))
        arcs.append(Arc("snk", "src", 0, inf))
        flows = feasible_circulation(arcs)
        if flows is None:
            return None
        paid = [(i, k, flows[j]) for j, i, k in qty_arcs if flows[j]]
    x = [{k: v * a * (P[k] or 1) for k, v in d.forced.items()} if c else {} for c, d in zip(counted, demands)]
    for i, k, w in paid:
        x[i][k] = x[i].get(k, 0) + w  # the only money of trader i on good k: a tie holds one segment of a good
    for k, v in top_up:
        x[0][k] = x[0].get(k, 0) + v  # utility-neutral beyond satiation
    return x


def _canonical_totals(m: Market, p: PriceVector, demands: list[IntDemand | None]) -> list[Fraction]:
    """Per-good totals of the canonical bundles (see `canonical_amounts`),
    summed in integers: good k in units of 1/(M * P_k), or 1/M when free."""
    M = m.scaled[0]
    P = p.scaled[1]
    totals = [0] * m.n_goods
    for d in demands:
        if d is None:
            continue
        for k, x in canonical_amounts(d, P).items():
            totals[k] += x
    return [Fraction(t, M * (q or 1)) for t, q in zip(totals, P)]


def clearing_report(supplies, allocated, eps: Fraction) -> tuple[GoodBalance, ...]:
    """Per-good balance of the allocated totals against supply."""
    return tuple(
        GoodBalance(good=k, supply=s, allocated=a, imbalance=a - s, bound=eps * s)
        for k, (s, a) in enumerate(zip(supplies, allocated))
    )


def verify(m: Market, p: PriceVector, mode: str, eps=0) -> Certificate:
    """Full verdict with witness and per-good clearing report.

    The input vector must have one entry per good (else ShapeMismatch).
    Exact and quasi modes pin eps to 0; quasi waives optimality for
    zero-income traders, who may then receive any zero-cost bundle.
    """
    if mode not in MODES:
        raise InvalidMarket(f"unknown verification mode {mode!r}")
    eps = parse_epsilon(eps) if mode == APPROXIMATE else Fraction(0)
    if len(p.prices) != m.n_goods:
        raise ShapeMismatch(f"expected {m.n_goods} prices, got {len(p.prices)}")
    P = p.scaled[1]
    demands: list[IntDemand | None] = []
    waived: set[int] = set()
    for i, v in enumerate(m.view):
        try:
            d = int_demand(v, P, i)
        except UnboundedDemand as exc:
            # zero income: no good the trader owns has a positive price
            if mode == QUASI and not any(P[k] for k, _ in v.owned):
                waived.add(i)
                demands.append(None)
                continue
            return Certificate("reject", str(exc), mode, eps, None, None)
        if mode == QUASI and d.budget == 0:
            waived.add(i)  # the zero-cost arm subsumes their optimal bundles
        demands.append(d)

    supplies = m.supplies()
    windows = clearing_windows(m, P, mode, eps)
    x = _solve(m, p, demands, waived, windows)
    if x is None:
        # a waived trader with unbounded demand holds nothing
        report = clearing_report(supplies, _canonical_totals(m, p, demands), eps)
        return Certificate("reject", "clearing-infeasible", mode, eps, None, report)

    totals = check_witness(m, p, x, demands, waived, windows)
    units = [windows[0] * (q or 1) for q in P]
    pair = Memo(lambda e: (e[0], Fraction(e[1], units[e[0]])))  # (good, int amount) -> (good, Fraction)
    # a witness bundle's int pairs -> its Bundle; the checked witness holds
    # ints on distinct goods in range, so its bundles skip `Bundle`'s checks
    bundle = Memo(lambda key: trusted(Bundle, amounts=tuple([pair[e] for e in sorted(key)])))
    bundles = [bundle[frozenset(b.items())] for b in x]
    allocated = [Fraction(t, u) for t, u in zip(totals, units)]
    return Certificate("accept", None, mode, eps, tuple(bundles), clearing_report(supplies, allocated, eps))


def check_witness(m, p, x, demands, waived, windows) -> list[int]:
    """Re-validate an accept witness, `_solve`'s integer bundles, against the
    demand core's answers (`IntDemand`, None for a waived trader with
    unbounded demand) and the clearing windows, `clearing_windows`'s
    (Q, bounds); a failure here is a bug.  Returns the per-good totals it
    checked, good k in units of 1/(Q * P_k), or 1/Q when free."""
    Q, bounds = windows
    P = p.scaled[1]
    totals = [0] * len(bounds)
    for i, (v, d, b) in enumerate(zip(m.view, demands, x)):
        if i in waived:
            # a zero-cost bundle: goods in range, no negative amount, nothing on a priced good
            if any(not 0 <= k < len(P) or w < 0 or (w and P[k]) for k, w in b.items()):
                raise InternalInvariantViolation(f"waived trader {i} got a bundle outside the zero-cost set")
        elif not in_demand(v, p, d, b.items(), Q):
            raise InternalInvariantViolation(f"witness bundle for trader {i} is not optimal")
        for k, w in b.items():
            totals[k] += w
    for k, ((lo, hi), total, q) in enumerate(zip(bounds, totals, P)):
        if not lo * (q or 1) <= total <= hi * (q or 1):
            raise InternalInvariantViolation(f"witness violates clearing window on good {k}")
    return totals
