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

`_solve` takes one pass over the forced purchases and then decides in
one of three ways.  Where no trader has a choice (`_determined`: each
trader that spends has exactly one tie offer), the circulation has one
candidate, so it routes each trader's money to its one tie good and checks
each good's money against its sink arc's bounds, building no arc.
Otherwise, while it builds the arcs, it sums each priced good's reach T_k,
all the money the tie offers and the residual spenders could bring to k,
and tries each priced good alone as a cut (`_short_good`): forced money
F_k above the window ceiling, or F_k + T_k below its floor, is a reject
the flow would reach too, by Hoffman's circulation theorem.  The flow
decides the rest, tie splits and residual spenders, and there
Edmonds-Karp's path order fixes the witness.

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
Fractions are built once the re-check has passed, for the witness bundles
and the report; before that, only for the utility terms on goods where a
witness leaves canonical demand.  Witness bundles repeat (at an in-box
price vector of `M_n`, n of them serve the n(n - 1) traders), so `verify`
builds one `Bundle` per distinct integer bundle and one (good, Fraction)
pair per distinct integer entry and shares them: a `Bundle` is frozen, and
equal integers on one unit give equal Fractions.  Prices are taken as
given: scaling them by c scales every money bound by c, the uncapped arcs'
aside, which no flow fills, so the flows scale by c and the certificate
stays.
"""

from dataclasses import dataclass
from fractions import Fraction

from .demand import Bundle, IntDemand, canonical_amounts, in_demand, int_demand
from .errors import InternalInvariantViolation, InvalidMarket, ShapeMismatch, UnboundedDemand
from .flow import Arc, feasible_circulation
from .model import Market, PriceVector, trusted
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


def _short_good(sink, reach, free: int, P) -> bool:
    """True when some priced good k alone shows the circulation infeasible:
    its sink arc's ceiling is negative (its forced money is above its window
    ceiling), or its reach, the most money its tie arcs could bring plus the
    residual spenders' `free` money, is below the arc's floor.  In flow terms
    {good k} is a cut whose capacity falls short (Hoffman's circulation
    theorem), so the flow would find no circulation.  All on the arcs'
    scale, Q * D."""
    return any(q and (hi < 0 or r + free < lo) for (lo, hi), r, q in zip(sink, reach, P))


def _determined(demands: list[IntDemand | None], counted: list[bool]) -> bool:
    """True when no counted trader has a choice: each one with money to
    spend has exactly one tie offer.  A residual spender (no ties) has one,
    since it may leave its money unspent or spend it on any priced good."""
    return all(not c or not d.spend or len(d.ties) == 1 for d, c in zip(demands, counted))


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

    When no trader has a choice (`_determined`), the circulation is unique:
    each spending trader's source arc is an equality with one out-arc, and
    the other traders carry no money.  So each spending trader's money goes
    to its one tie good, and each priced good's money is checked against
    the bounds its sink arc would get, with no arc built.  Where some trader
    has a choice, the one-good cut (`_short_good`) is tried on the arcs'
    bounds before the flow decides."""
    D, P = p.scaled
    Q, bounds = windows
    M = m.scaled[0]
    a = Q // M
    counted = [d is not None and i not in waived for i, d in enumerate(demands)]
    forced = [0] * m.n_goods
    for d, c in zip(demands, counted):
        if c:
            for k, x in d.forced.items():
                forced[k] += x * a
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
    if _determined(demands, counted):
        paid = [(i, d.ties[0][0], d.spend * a) for i, (d, c) in enumerate(zip(demands, counted)) if c and d.spend]
        money = [0] * m.n_goods  # the flow each sink arc would carry
        for _, k, w in paid:
            money[k] += w
        if any(q and not lo <= w <= hi for w, (lo, hi), q in zip(money, sink, P)):
            return None
    else:
        inf = Q * D + sum(d.budget for d in demands if d is not None) * a  # exceeds the money of every arc
        priced = [k for k, q in enumerate(P) if q]
        arcs: list[Arc] = []
        qty_arcs: list[tuple[int, int, int]] = []  # (arc index, trader, good)
        reach = [0] * m.n_goods  # the most money each good's tie arcs could bring
        free = 0  # the residual spenders' money, free to reach every priced good
        for i, (d, c) in enumerate(zip(demands, counted)):
            if not c:
                continue
            spend = d.spend * a
            if d.ties:
                arcs.append(Arc("src", ("t", i), spend, spend))
                for k, _, cap in d.ties:  # one offer per good: a tie holds one segment of a good
                    upper = inf if cap is None else cap * P[k] * a
                    reach[k] += min(spend, upper)
                    qty_arcs.append((len(arcs), i, k))
                    arcs.append(Arc(("t", i), ("g", k), 0, upper))
            elif spend and priced:
                free += spend
                arcs.append(Arc("src", ("t", i), 0, spend))
                for k in priced:
                    qty_arcs.append((len(arcs), i, k))
                    arcs.append(Arc(("t", i), ("g", k), 0, inf))
        if _short_good(sink, reach, free, P):
            return None
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
    pairs: dict[tuple[int, int], tuple[int, Fraction]] = {}  # (good, int amount) -> (good, Fraction)
    made: dict[tuple, Bundle] = {}  # a witness bundle's sorted int pairs -> its Bundle
    bundles = []
    for b in x:
        key = tuple(sorted(b.items()))
        if key not in made:
            for e in key:
                if e not in pairs:
                    pairs[e] = (e[0], Fraction(e[1], units[e[0]]))
            # the checked witness holds ints on distinct goods in range: its bundles skip `Bundle`'s checks
            made[key] = trusted(Bundle, amounts=tuple([pairs[e] for e in key]))
        bundles.append(made[key])
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
    for i, (trader, d, b) in enumerate(zip(m.traders, demands, x)):
        if i in waived:
            # a zero-cost bundle: goods in range, no negative amount, nothing on a priced good
            if any(not 0 <= k < len(P) or w < 0 or (w and P[k]) for k, w in b.items()):
                raise InternalInvariantViolation(f"waived trader {i} got a bundle outside the zero-cost set")
        elif not in_demand(trader, p, d, b.items(), Q):
            raise InternalInvariantViolation(f"witness bundle for trader {i} is not optimal")
        for k, w in b.items():
            totals[k] += w
    for k, ((lo, hi), total, q) in enumerate(zip(bounds, totals, P)):
        if not lo * (q or 1) <= total <= hi * (q or 1):
            raise InternalInvariantViolation(f"witness violates clearing window on good {k}")
    return totals
