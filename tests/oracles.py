"""Independent brute-force oracles and random instance generators.

Nothing here reuses the solver paths it checks: the concave-representation
predicate is a direct transcription of the definition, the demand oracle is
exhaustive grid enumeration of budget-feasible bundles, and the clearing
oracle enumerates tie-variable assignments (a bounded-denominator lattice
joined with every basic solution of the constraint system, so the sweep is
decision-complete) with the Fraction Gauss-Jordan elimination that
`reference_support_enum` uses too.  `canonical_bundle`
is the demand set's canonical fill in Fractions, which the integer fill
(`canonical_amounts`) must match, and `imbalance_profile` scores a price
vector from scratch by summing those bundles over every trader: the grid
walk's incremental scores must equal it.  The reference grid search is the
plain search loop: it scores every round's box, also when the box did not
shrink, at normalized prices, with `imbalance_profile` and the package's
verifier.  The dense references restate, over all N goods, what the package
computes over each trader's support or a bundle's nonzero entries; strong
connectivity is networkx's verdict on the dense, edge-by-edge economy graph.
`reference_market_from_obj` is the market parser that checks through the
public constructors, `TraderSpec` and `Market`, and the one-pass parser
must match it.  `reference_market_view` is `Market.view` from its
definition, in Fractions, and `own_scale_view` a trader's integer view on
its own denominators, on which the demand core must give the same
rationals as on the market's view.
`reference_dumps` is the json module's indenting encoder, and
`market_to_obj`, with `plc_to_obj`, is the package's earlier market writer:
the dense object tree of a market file, one object per zero entry and per
piece; `certificate_to_obj` is the package's earlier certificate writer,
one dense allocation row per distinct `Bundle`.  `serialize.dumps` must
write `reference_dumps` of any tree and, for a `Market` or a
`Certificate`, of its `market_to_obj` or `certificate_to_obj`.
`reference_check_market` checks every good and sign of every trader, which
`model.check_market`, reading each list's ends and the numerators, must
match message for message.
The reference circulation is Edmonds-Karp with one BFS per augmenting path,
which the phased max-flow must match flow for flow; rational test networks
reach the integer max-flow through `scaled_circulation`.  The dense builders
fill N-length endowment and utility rows, trader by trader, the way the
sparse builders must agree with; their gadgets come from
`reference_gadget_vectors`, the package's earlier dense Fraction gadget,
so they share no gadget code with the builder.  `reference_support_enum`
is the Fraction support enumeration that the integer one must match list
for list.

Views that only tests read live here, not in the package, which holds what
the program runs.  `optimal_demand`, with `DemandSet` and `SegmentOffer`,
is the Fraction view of the integer demand core, which the dense demand
oracle, the clearing oracle and `canonical_bundle` read; `support` is a
trader's goods and `satiation_point` a piece's flat start, in Fractions.
`gadget_vectors_row` and `gadget_vectors_col` are the dense Fraction view
of the builder's one gadget core, `reduction._gadget`, checked against
`reference_gadget_vectors`, and `trader_slices` gives the index range of
each of the reduced market's S, U, V and I blocks.
`axis_points` is one search axis's grid in Fractions, and `grid_walk` runs
the integer walk, `search.grid_scores`, on Fraction axes and reads each
point and score back as a `PriceVector` and a Fraction, the form
`reference_grid_scores` gives.
`regulation_forward_witness` certifies an in-box price vector of M_n by
re-checking the identity allocation with `clearing.check_witness`, the
forward direction of the price-regulation property, without the flow
that `verify` runs; `bundle_in_demand` puts a Fraction bundle on the
integer unit `in_demand` takes; `game_to_obj` writes a game file.
"""

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from operator import getitem

import networkx as nx

from plcmarket.clearing import (
    APPROXIMATE,
    Certificate,
    GoodBalance,
    check_witness,
    clearing_report,
    clearing_windows,
    verify,
)
from plcmarket.demand import Bundle, in_demand, int_demand
from plcmarket.errors import InputError, InvalidMarket, MarketError, NTooLarge, UnboundedDemand
from plcmarket.flow import Arc, feasible_circulation
from plcmarket.games import MAX_SUPPORT_ENUM_N, BimatrixGame, MixedStrategy, _integral, validate_game
from plcmarket.model import Market, PriceVector, ScaledTrader, TraderSpec, normalize_prices
from plcmarket.plc import ZERO_PLC, PLCFunction, linear_plc, validate_plc
from plcmarket.rational import format_rational, parse_epsilon, parse_rational
from plcmarket.reduction import ReducedMarketMeta, _gadget, build_reduced_market
from plcmarket.regulating import build_mn, check_regulation_box
from plcmarket.search import SearchReport, grid_scores
from plcmarket.serialize import _ZERO, _ZERO_OBJ, _require


# --- definition-level PLC predicate -------------------------------------------


def plc_predicate(slopes, breaks) -> bool:
    """Direct evaluation of the t-segment concave representation contract."""
    slopes = [Fraction(s) for s in slopes]
    breaks = [Fraction(a) for a in breaks]
    if len(slopes) <= 1 and all(s == 0 for s in slopes):
        return not breaks
    if len(slopes) != len(breaks) + 1:
        return False
    if any(s < 0 for s in slopes):
        return False
    if any(slopes[i] <= slopes[i + 1] for i in range(len(slopes) - 1)):
        return False
    prev = Fraction(0)
    for a in breaks:
        if a <= prev:
            return False
        prev = a
    return True


# --- Fraction demand view ---------------------------------------------------------


@dataclass(frozen=True)
class SegmentOffer:
    good: int
    segment: int
    rate: Fraction
    quantity_cap: Fraction | None  # None = uncapped last segment
    unit_cost: Fraction


@dataclass(frozen=True)
class DemandSet:
    forced: tuple[tuple[int, Fraction], ...]  # (good, amount), ascending good
    cutoff_rate: Fraction
    tie_offers: tuple[SegmentOffer, ...]
    tie_spend: Fraction  # mandatory at the cutoff; residual ceiling when cutoff_rate == 0
    budget: Fraction


def optimal_demand(
    trader: TraderSpec, p: PriceVector, trader_idx: int | None = None
) -> DemandSet:
    """Compute the trader's optimal-bundle set at prices p: the Fraction
    view of `int_demand`.

    Raises UnboundedDemand when a strictly wanted good has zero price.  A zero
    budget is not an error; it yields the all-zero purchase with tie_spend 0.
    """
    D, P = p.scaled
    d = int_demand(own_scale_view(trader), P, trader_idx)
    den, pieces, q = d.den, dict(trader.wanted), p.prices
    ties = tuple(  # each offer's rate from its own piece, so dense_demand checks them all
        SegmentOffer(k, i, pieces[k].slopes[i] / q[k], None if cap is None else Fraction(cap, den), q[k])
        for k, i, cap in d.ties
    )
    return DemandSet(
        forced=tuple((k, Fraction(x, den)) for k, x in sorted(d.forced.items())),
        cutoff_rate=ties[0].rate if ties else Fraction(0),
        tie_offers=ties,
        tie_spend=Fraction(d.spend, den * D),
        budget=Fraction(d.budget, den * D),
    )


# --- exhaustive grid demand oracle ---------------------------------------------


def grid_max_utility(trader: TraderSpec, p, den: int = 16) -> Fraction:
    """Max utility over all bundles with coordinates in (1/den)Z and cost
    within budget.  Positive prices only."""
    n = len(p.prices)
    money = dense_budget(trader, p)
    step = Fraction(1, den)
    tables = []
    for k in range(n):
        max_q = int(money / p.prices[k] * den)
        tables.append([utility_row(trader, n)[k](step * q) for q in range(max_q + 1)])

    best = Fraction(0)

    def explore(k: int, left: Fraction, util: Fraction):
        nonlocal best
        if k == n:
            if util > best:
                best = util
            return
        unit = p.prices[k] * step
        max_q = min(int(left / unit), len(tables[k]) - 1)
        for q in range(max_q + 1):
            explore(k + 1, left - unit * q, util + tables[k][q])

    explore(0, money, Fraction(0))
    return best


# --- vertices for the clearing oracle ---------------------------------------------


def _basic_points(eq_rows, ineq_rows, nvars):
    """Every unique solution of the equalities plus an (nvars - rank)-subset
    of the inequalities turned active, by the Fraction elimination of the
    support-enumeration reference below; feasibility is left to the caller."""
    rank = _system_rank(eq_rows, nvars)
    if rank is None:
        return []  # inconsistent equalities
    seen = set()
    out = []
    for active in combinations(range(len(ineq_rows)), nvars - rank):
        rows = list(eq_rows) + [ineq_rows[i] for i in active]
        z = _solve_unique(rows, nvars)
        if z is not None and z not in seen:
            seen.add(z)
            out.append(z)
    return out


# --- brute-force clearing feasibility -------------------------------------------


def brute_force_clearing(market: Market, p, eps, grid_den: int = 16, grid_cap: int = 5000) -> bool:
    """Exhaustive search for an optimal allocation clearing within eps.

    Tie and residual-spend quantities are the only degrees of freedom on
    positively priced goods; zero-priced goods only need their forced
    satiation amounts to fit under the window ceiling (free top-ups reach any
    floor).  Candidates are every basic solution of the constraint system
    plus a bounded-denominator grid sweep.
    """
    eps = Fraction(eps)
    n = market.n_goods
    windows = [
        (max(Fraction(0), s * (1 - eps)), s * (1 + eps)) for s in market.supplies()
    ]
    demands = [optimal_demand(t, p, i) for i, t in enumerate(market.traders)]

    forced_total = dense_totals([dense_view(d.forced, n) for d in demands], n)
    for k in range(n):
        if p.prices[k] == 0 and forced_total[k] > windows[k][1]:
            return False

    variables = []  # (good, upper bound, unit price)
    eq_rows_idx = []  # ([var indices], money)
    budget_rows_idx = []
    for d in demands:
        mine = []
        if d.cutoff_rate > 0:
            for o in d.tie_offers:
                ub = o.quantity_cap
                if ub is None or ub * o.unit_cost > d.tie_spend:
                    ub = d.tie_spend / o.unit_cost
                mine.append(len(variables))
                variables.append((o.good, ub, o.unit_cost))
            eq_rows_idx.append((mine, d.tie_spend))
        elif d.tie_spend > 0:
            for k in (g for g, q in enumerate(p.prices) if q > 0):
                mine.append(len(variables))
                variables.append((k, d.tie_spend / p.prices[k], p.prices[k]))
            budget_rows_idx.append((mine, d.tie_spend))

    nv = len(variables)

    def ok(z) -> bool:
        for idx, (_, ub, _) in enumerate(variables):
            if z[idx] < 0 or z[idx] > ub:
                return False
        for idxs, rhs in eq_rows_idx:
            if sum(z[i] * variables[i][2] for i in idxs) != rhs:
                return False
        for idxs, rhs in budget_rows_idx:
            if sum(z[i] * variables[i][2] for i in idxs) > rhs:
                return False
        for k in range(n):
            if p.prices[k] == 0:
                continue
            total = forced_total[k] + sum(
                z[i] for i in range(nv) if variables[i][0] == k
            )
            if not windows[k][0] <= total <= windows[k][1]:
                return False
        return True

    if nv == 0:
        return ok(())

    zero = Fraction(0)
    eq_rows = []
    for idxs, rhs in eq_rows_idx:
        co = [zero] * nv
        for i in idxs:
            co[i] = variables[i][2]
        eq_rows.append((co, rhs))
    ineq_rows = []
    for idxs, rhs in budget_rows_idx:
        co = [zero] * nv
        for i in idxs:
            co[i] = variables[i][2]
        ineq_rows.append((co, rhs))
    for k in range(n):
        if p.prices[k] == 0:
            continue
        co = [Fraction(1) if variables[i][0] == k else zero for i in range(nv)]
        lo, hi = windows[k]
        ineq_rows.append((co, hi - forced_total[k]))
        ineq_rows.append(([-c for c in co], forced_total[k] - lo))
    for i in range(nv):
        co = [zero] * nv
        co[i] = Fraction(1)
        ineq_rows.append((list(co), variables[i][1]))
        ineq_rows.append(([-c for c in co], zero))

    for z in _basic_points(eq_rows, ineq_rows, nv):
        if ok(z):
            return True

    den = grid_den
    while den > 1:
        count = 1
        for _, ub, _ in variables:
            count *= int(ub * den) + 2
        if count <= grid_cap:
            break
        den //= 2
    axes = []
    for _, ub, _ in variables:
        pts = [Fraction(q, den) for q in range(int(ub * den) + 1)]
        if not pts or pts[-1] != ub:
            pts.append(ub)
        axes.append(pts)
    return any(ok(z) for z in product(*axes))


# --- dense references for the support-restricted code --------------------------


def satiation_point(f: PLCFunction) -> Fraction | None:
    """Smallest x beyond which the piece f is flat; None if never flat."""
    if f.is_zero:
        return Fraction(0)
    if f.slopes[-1] > 0:
        return None
    return f.breaks[-1]


def support(t: TraderSpec) -> tuple[int, ...]:
    """Goods the trader owns or wants, ascending."""
    return tuple(sorted({k for k, _ in t.owned}.union(k for k, _ in t.wanted)))


def dense_view(pairs, n_goods: int) -> tuple:
    """The n_goods-length row of (good, amount) pairs, such as a bundle's
    amounts or a demand set's forced purchases; zero everywhere else."""
    row = [Fraction(0)] * n_goods
    for k, x in pairs:
        row[k] = x
    return tuple(row)


def nonzeros(row) -> tuple:
    """The (good, amount) pairs of a dense row's nonzero entries."""
    return tuple((k, x) for k, x in enumerate(row) if x)


def endowment_row(trader: TraderSpec, n_goods: int) -> list:
    """The trader's endowment over all n_goods goods."""
    row = [Fraction(0)] * n_goods
    for k, w in trader.owned:
        row[k] = w
    return row


def utility_row(trader: TraderSpec, n_goods: int) -> list:
    """The trader's utility piece for each of the n_goods goods."""
    row = [ZERO_PLC] * n_goods
    for k, f in trader.wanted:
        row[k] = f
    return row


def dense_supplies(m: Market) -> tuple:
    rows = [endowment_row(t, m.n_goods) for t in m.traders]
    return tuple(sum((row[k] for row in rows), Fraction(0)) for k in range(m.n_goods))


def dense_budget(trader: TraderSpec, p) -> Fraction:
    return sum((w * q for w, q in zip(endowment_row(trader, len(p.prices)), p.prices)), Fraction(0))


def dense_cost(quantities, p) -> Fraction:
    return sum((x * q for x, q in zip(quantities, p.prices)), Fraction(0))


def dense_utility(trader: TraderSpec, quantities) -> Fraction:
    return sum((f(Fraction(x)) for f, x in zip(utility_row(trader, len(quantities)), quantities)), Fraction(0))


def dense_in_demand(trader: TraderSpec, p, d: DemandSet, quantities) -> bool:
    """in_demand restated over every good: the right length, no negative
    entry, cost within the budget, and the whole utility sum equal to that of
    the canonical bundle."""
    if len(quantities) != len(p.prices) or any(x < 0 for x in quantities):
        return False
    if dense_cost(quantities, p) > d.budget:
        return False
    canonical = dense_view(canonical_bundle(d).amounts, len(p.prices))
    return dense_utility(trader, quantities) == dense_utility(trader, canonical)


def dense_totals(rows, n_goods: int) -> list:
    return [sum((row[k] for row in rows), Fraction(0)) for k in range(n_goods)]


def dense_demand(trader: TraderSpec, p, trader_idx=None) -> DemandSet:
    """optimal_demand restated over every good: collect the offers of all
    goods, then buy whole rate classes, best rate first, while the money
    lasts; the first class that is uncapped or unaffordable is the tie.  Its
    ``forced`` is the dense row that optimal_demand's pairs must fill."""
    n = len(p.prices)
    forced = [Fraction(0)] * n
    offers = []
    for k, f in enumerate(utility_row(trader, n)):
        if p.prices[k] == 0:
            if f.is_strictly_monotone:
                raise UnboundedDemand(trader_idx, k)
            forced[k] = satiation_point(f)
            continue
        lefts = (Fraction(0),) + f.breaks
        for s, theta in enumerate(f.slopes):
            if theta > 0:
                cap = f.breaks[s] - lefts[s] if s < len(f.breaks) else None
                offers.append(SegmentOffer(k, s, theta / p.prices[k], cap, p.prices[k]))
    money = remaining = dense_budget(trader, p)
    for rate in sorted({o.rate for o in offers}, reverse=True):
        group = tuple(o for o in offers if o.rate == rate)
        if any(o.quantity_cap is None for o in group):
            return DemandSet(tuple(forced), rate, group, remaining, money)
        cost = sum(o.quantity_cap * o.unit_cost for o in group)
        if cost > remaining:
            return DemandSet(tuple(forced), rate, group, remaining, money)
        for o in group:
            forced[o.good] += o.quantity_cap
        remaining -= cost
    return DemandSet(tuple(forced), Fraction(0), (), remaining, money)


def dense_economy_graph(m: Market) -> list:
    """Edge i -> j iff i != j and some good is owned by i and strictly wanted
    by j, tested pair by pair over all goods."""
    goods = range(m.n_goods)
    endow = [endowment_row(t, m.n_goods) for t in m.traders]
    utils = [utility_row(t, m.n_goods) for t in m.traders]
    return [
        {
            j
            for j, b in enumerate(utils)
            if j != i and any(a[k] > 0 and b[k].is_strictly_monotone for k in goods)
        }
        for i, a in enumerate(endow)
    ]


def dense_strongly_connected(m: Market) -> bool:
    """networkx's strong connectivity of the dense economy graph."""
    g = nx.DiGraph()
    g.add_nodes_from(range(len(m.traders)))
    g.add_edges_from((i, j) for i, outs in enumerate(dense_economy_graph(m)) for j in outs)
    return nx.is_strongly_connected(g)


# --- dense builders ----------------------------------------------------------------


def dense_regulating_block(n_goods: int, share: Fraction) -> list:
    """(endowment, utilities, label) of the S(i, j) traders, filled into
    n_goods-length rows, lexicographic in (i, j)."""
    traders = []
    for i in range(n_goods):
        for j in range(n_goods):
            if i == j:
                continue
            endow = [Fraction(0)] * n_goods
            endow[i] = share
            utils = [ZERO_PLC] * n_goods
            utils[i] = linear_plc(2)
            utils[j] = linear_plc(1)
            traders.append((tuple(endow), tuple(utils), f"S({i + 1},{j + 1})"))
    return traders


@dataclass(frozen=True)
class GadgetVectors:
    C: tuple[Fraction, ...]
    D: tuple[Fraction, ...]
    E: Fraction
    F: Fraction


def _dense_gadget(row_i, row_j) -> GadgetVectors:
    """`_gadget` of two rational rows as dense Fraction vectors."""
    scale, rows = _integral((row_i, row_j))
    C, D, E, F = _gadget(*({k: v for k, v in enumerate(row) if v} for row in rows))

    def dense(pairs):
        out = [Fraction(0)] * len(row_i)
        for k, v in pairs:
            out[k] = Fraction(v, scale)
        return tuple(out)

    return GadgetVectors(dense(C), dense(D), Fraction(E, scale), Fraction(F, scale))


def gadget_vectors_row(A, i: int, j: int) -> GadgetVectors:
    """Positive/negative split of row difference A_i - A_j with balancing scalars."""
    return _dense_gadget(A[i], A[j])


def gadget_vectors_col(B, i: int, j: int) -> GadgetVectors:
    """Positive/negative split of column difference B_i - B_j (columns of B)."""
    return _dense_gadget([row[i] for row in B], [row[j] for row in B])


def trader_slices(meta: ReducedMarketMeta) -> dict[str, tuple[int, int]]:
    u0, pairs = meta.s_count, len(meta.u_pairs)
    v0, i0 = u0 + pairs, u0 + 2 * pairs
    return {"s": (0, u0), "u": (u0, v0), "v": (v0, i0), "i": (i0, i0 + meta.i_count)}


def reference_gadget_vectors(A, i: int, j: int) -> GadgetVectors:
    """Positive/negative split of row difference A_i - A_j with balancing scalars."""
    diffs = [A[i][k] - A[j][k] for k in range(len(A))]
    C = tuple(max(d, Fraction(0)) for d in diffs)
    D = tuple(max(-d, Fraction(0)) for d in diffs)
    sum_c, sum_d = sum(C), sum(D)
    if sum_d >= sum_c:
        return GadgetVectors(C, D, sum_d - sum_c, Fraction(0))
    return GadgetVectors(C, D, Fraction(0), sum_c - sum_d)


def _kinked(high, low, knee):
    return validate_plc((Fraction(high), Fraction(low)), (knee,))


def dense_reduced_traders(game) -> list:
    """(endowment, utilities, label) of every trader of the reduced market,
    S block, U block, V block, I block, filled into N-length rows."""
    n = game.n
    N = 2 * n + 2
    aux1, aux2 = 2 * n, 2 * n + 1
    inv_n4 = Fraction(1, n**4)
    inv_n5 = Fraction(1, n**5)
    inv_n12 = Fraction(1, n**12)
    traders = dense_regulating_block(N, Fraction(1, n))

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    B_cols = tuple(zip(*game.B))
    for label, own, other, M in (("U", 0, n, game.A), ("V", n, 0, B_cols)):
        for i, j in pairs:
            gv = reference_gadget_vectors(M, i, j)
            endow = [Fraction(0)] * N
            endow[own + i] = inv_n4
            for k in range(n):
                endow[other + k] = gv.C[k] * inv_n5
            endow[aux1] = gv.E * inv_n5
            utils = [ZERO_PLC] * N
            utils[own + i] = _kinked(9, 1, inv_n4)
            utils[aux2] = linear_plc(3)
            for k in range(n):
                if gv.D[k] > 0:
                    utils[other + k] = _kinked(27, 1, gv.D[k] * inv_n5)
            if gv.F > 0:
                utils[aux1] = _kinked(27, 1, gv.F * inv_n5)
            traders.append((tuple(endow), tuple(utils), f"{label}({i + 1},{j + 1})"))

    for i in range(2 * n):
        endow = [Fraction(0)] * N
        endow[aux1] = inv_n12
        utils = [ZERO_PLC] * N
        utils[i] = linear_plc(1)
        traders.append((tuple(endow), tuple(utils), f"I({i + 1})"))
    return traders


# --- forward-witness certificate ----------------------------------------------------


class OutOfRegulationBox(MarketError):
    pass


def regulation_forward_witness(n: int, p: PriceVector) -> Certificate:
    """Accept certificate for an in-box price vector of M_n.

    Normalizes first (the box is closed under normalization), then checks
    that the identity allocation x_s = w_s is optimal for every trader.  A
    failed optimality check here would falsify the forward direction of the
    price-regulation property, so it raises instead of rejecting.
    """
    p = normalize_prices(p)
    if not check_regulation_box(n, p):
        raise OutOfRegulationBox(f"prices {p.prices} not in [1,2]^{n}")
    m = build_mn(n)
    eps = Fraction(1, n)
    P = p.scaled[1]
    windows = clearing_windows(m, P, APPROXIMATE, eps)
    units = [windows[0] * (q or 1) for q in P]
    bundles = tuple(Bundle(t.owned) for t in m.traders)
    x = [{k: int(w * units[k]) for k, w in b.amounts} for b in bundles]
    demands = [int_demand(own_scale_view(t), P, i) for i, t in enumerate(m.traders)]
    totals = check_witness(m, p, x, demands, set(), windows)
    allocated = [Fraction(t, u) for t, u in zip(totals, units)]
    return Certificate("accept", None, APPROXIMATE, eps, bundles, clearing_report(m.supplies(), allocated, eps))


def bundle_in_demand(trader: TraderSpec, p, d, b: Bundle) -> bool:
    """`in_demand` on a Fraction bundle, d the core's answer on the trader's
    own scale (`own_scale_view`): its amounts in integers on the least unit
    Q, a multiple of d.den, on which every entry is whole, good k counting
    1/(Q * P_k), or 1/Q when free or outside the market."""
    P = p.scaled[1]
    units = [P[k] if 0 <= k < len(P) and P[k] else 1 for k, _ in b.amounts]
    Q = math.lcm(d.den, *((w * u).denominator for (_, w), u in zip(b.amounts, units)))
    return in_demand(own_scale_view(trader), p, d, [(k, int(w * u * Q)) for (k, w), u in zip(b.amounts, units)], Q)


# --- reference circulation -------------------------------------------------------


def reference_circulation(arcs: list[Arc]) -> list[Fraction] | None:
    """Edmonds-Karp, one BFS per augmenting path, on the integer-scaled
    network `feasible_circulation` builds: the flows it must equal exactly.

    Returns per-arc flows in input order, or None when infeasible.
    """
    if any(a.lower > a.upper for a in arcs):
        return None
    scale = math.lcm(*(b.denominator for a in arcs for b in (a.lower, a.upper)))
    ids: dict = {}
    adj: list[list[int]] = []
    to: list[int] = []  # edge e and its reverse e ^ 1
    residual: list[int] = []
    excess: list[int] = []  # indexed by node id, i.e. in first-seen order

    def node(x) -> int:
        if x not in ids:
            ids[x] = len(adj)
            adj.append([])
            excess.append(0)
        return ids[x]

    def add_edge(u: int, v: int, cap: int):
        adj[u].append(len(to))
        adj[v].append(len(to) + 1)
        to.extend((v, u))
        residual.extend((cap, 0))

    for a in arcs:
        head, tail = node(a.head), node(a.tail)  # head first: fixes the super-arc order
        lo = a.lower.numerator * (scale // a.lower.denominator)
        hi = a.upper.numerator * (scale // a.upper.denominator)
        add_edge(tail, head, hi - lo)
        excess[head] += lo
        excess[tail] -= lo
    source, sink = node(object()), node(object())
    need = 0
    for v, e in enumerate(excess):
        if e > 0:
            add_edge(source, v, e)
            need += e
        elif e < 0:
            add_edge(v, sink, -e)

    while need:
        parent = [-1] * len(adj)  # edge by which BFS reached each node
        parent[source] = -2  # reached, by no edge
        queue = [source]  # FIFO: the loop walks the list as it grows
        for u in queue:
            for e in adj[u]:
                v = to[e]
                if residual[e] > 0 and parent[v] == -1:
                    parent[v] = e
                    queue.append(v)
                    if v == sink:
                        break  # the sink's parent, and so the path, is fixed
            if parent[sink] != -1:
                break
        if parent[sink] == -1:
            return None
        path = []
        v = sink
        while v != source:
            path.append(parent[v])
            v = to[parent[v] ^ 1]
        push = min(residual[e] for e in path)
        for e in path:
            residual[e] -= push
            residual[e ^ 1] += push
        need -= push
    return [a.lower + Fraction(residual[2 * i + 1], scale) for i, a in enumerate(arcs)]


def scaled_circulation(arcs: list[Arc]) -> list[Fraction] | None:
    """`feasible_circulation` for arcs with rational bounds: the bounds go to
    the integer core multiplied by the lcm of their denominators, and the
    integer flows come back divided by it."""
    scale = math.lcm(*(b.denominator for a in arcs for b in (a.lower, a.upper)))
    flows = feasible_circulation(
        [Arc(a.tail, a.head, int(a.lower * scale), int(a.upper * scale)) for a in arcs]
    )
    return None if flows is None else [Fraction(f, scale) for f in flows]


# --- random instance generators ---------------------------------------------------


def random_plc(rng: random.Random, max_segments: int = 2, den: int = 8):
    """A valid random PLC piece (possibly the zero function)."""
    kind = rng.random()
    if kind < 0.2:
        return validate_plc([], [])
    segs = rng.randint(1, max_segments)
    slopes = sorted(
        rng.sample([Fraction(q, den) for q in range(1, 4 * den + 1)], segs),
        reverse=True,
    )
    if segs > 1 and rng.random() < 0.3:
        slopes[-1] = Fraction(0)
    breaks = sorted(rng.sample([Fraction(q, den) for q in range(1, 2 * den + 1)], segs - 1))
    return validate_plc(slopes, breaks)


def random_market(
    rng: random.Random,
    max_goods: int = 3,
    max_traders: int = 3,
    den: int = 8,
    budget_cap=None,
):
    """Random small market with denominator-bounded data."""
    n = rng.randint(1, max_goods)
    m = rng.randint(1, max_traders)
    while True:
        traders = []
        for _ in range(m):
            endow = tuple(
                Fraction(rng.randint(0, den), den) if rng.random() < 0.7 else Fraction(0)
                for _ in range(n)
            )
            utils = tuple(random_plc(rng, den=den) for _ in range(n))
            traders.append(TraderSpec(enumerate(endow), enumerate(utils)))
        if any(t.owned for t in traders):
            return Market(n, tuple(traders))


def tie_rich_market(rng: random.Random, price_vec) -> Market:
    """Tiny market whose bang-per-buck rates collide on purpose.

    Slopes are drawn as rate * price so several offers share a rate class,
    which is exactly the regime where clearing hinges on how tie money is
    split.  Breakpoints and endowments stay denominator-bounded.
    """
    n = len(price_vec)
    m = rng.randint(1, 2)
    rates = [Fraction(q, 2) for q in range(1, 7)]
    traders = []
    for _ in range(m):
        endow = tuple(
            Fraction(rng.randint(0, 8), 8) if rng.random() < 0.8 else Fraction(0)
            for _ in range(n)
        )
        base = rng.choice(rates)
        utils = []
        for k in range(n):
            roll = rng.random()
            if roll < 0.1:
                utils.append(validate_plc([], []))
            elif roll < 0.8:
                # first (or only) segment exactly at the shared rate
                theta = base * price_vec[k]
                if rng.random() < 0.6:
                    utils.append(validate_plc([theta], []))
                else:
                    lower = theta / 2 if rng.random() < 0.5 else Fraction(0)
                    brk = Fraction(rng.randint(1, 8), 8)
                    utils.append(validate_plc([theta, lower], [brk]))
            else:
                utils.append(random_plc(rng))
        traders.append(TraderSpec(enumerate(endow), enumerate(utils)))
    if not any(t.owned for t in traders):
        endow = [Fraction(0)] * n
        endow[rng.randrange(n)] = Fraction(1, 2)
        traders[0] = TraderSpec(enumerate(endow), traders[0].wanted)
    return Market(n, tuple(traders))


def coprime_instance(rng: random.Random):
    """A small market and a normalized price vector whose denominators share
    no factor: endowments in thirds, breakpoints in sevenths, slopes in
    fifths and prices in 2^-36 steps, so the integer scale of a verify is a
    product of unrelated parts.  Some prices are zero, some traders have no
    budget, and linear pieces at slope rate * price tie without a cap."""
    n = rng.randint(1, 3)
    vec = [Fraction(0) if rng.random() < 0.25 else 1 + Fraction(rng.randrange(1, 2**36, 2), 2**36)
           for _ in range(n)]
    anchor = rng.randrange(n)
    vec[anchor] = Fraction(1)  # the smallest nonzero price, so the vector is normalized
    traders = []
    for _ in range(rng.randint(1, 3)):
        broke = rng.random() < 0.2  # owns nothing, or only free goods
        endow = [
            Fraction(rng.randint(1, 9), 3)
            if rng.random() < 0.6 and not (broke and vec[k]) else Fraction(0)
            for k in range(n)
        ]
        rate = Fraction(rng.randint(1, 9), 5)
        utils = []
        for k in range(n):
            roll = rng.random()
            brk = Fraction(rng.randint(1, 13), 7)
            if roll < 0.15:
                utils.append(ZERO_PLC)
            elif roll < 0.45 and vec[k]:
                utils.append(linear_plc(rate * vec[k]))  # uncapped, at the shared rate
            elif roll < 0.7:
                utils.append(validate_plc([rate * 2, 0], [brk]))  # satiates at brk
            else:
                top = Fraction(rng.randint(2, 9), 5)
                utils.append(validate_plc([top, top - Fraction(1, 5)], [brk]))
        traders.append(TraderSpec(enumerate(endow), enumerate(utils)))
    if not any(t.owned for t in traders):
        traders[0] = TraderSpec([(anchor, Fraction(2, 3))], traders[0].wanted)
    return Market(n, tuple(traders)), normalize_prices(PriceVector(tuple(vec)))


def prices_with_zeros(rng: random.Random, n: int) -> PriceVector:
    """Entries in eighths up to 2, each zero with probability 1/4, not all zero."""
    while True:
        vec = [Fraction(0) if rng.random() < 0.25 else Fraction(rng.randint(1, 16), 8) for _ in range(n)]
        if any(vec):
            return PriceVector(tuple(vec))


def random_instance(rng: random.Random, family: str):
    """A market of the family and a normalized price vector for it; M_n and
    reduced markets mostly get prices near the [1, 2] box, sometimes zeros;
    the coprime family brings its own prices."""
    if family == "coprime":
        return coprime_instance(rng)
    if family == "tie-rich":
        vec = [Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        return tie_rich_market(rng, vec), normalize_prices(PriceVector(tuple(vec)))
    if family == "random":
        m = random_market(rng)
    elif family == "mn":
        m = build_mn(rng.randint(2, 4))
    else:
        m, _ = build_reduced_market(validate_game(*random_sparse_game_matrices(rng, rng.randint(2, 3))))
    if family != "random" and rng.random() < 0.75:
        return m, normalize_prices(PriceVector(tuple(Fraction(rng.randint(7, 17), 8) for _ in range(m.n_goods))))
    return m, normalize_prices(prices_with_zeros(rng, m.n_goods))


def random_sparse_game_matrices(rng: random.Random, n: int, den: int = 8):
    """Entries in [-1, 1]; at most 10 nonzeros per row and column by
    construction (dense for n <= 10, else a 5-diagonal circulant pattern)."""

    def value():
        return Fraction(rng.randint(-den, den), den)

    def matrix():
        rows = [[Fraction(0)] * n for _ in range(n)]
        if n <= 10:
            for i in range(n):
                for j in range(n):
                    if rng.random() < 0.8:
                        rows[i][j] = value()
        else:
            shift = rng.randint(0, n - 1)
            for i in range(n):
                for t in range(5):
                    rows[i][(i + shift + t * 3) % n] = value()
        return rows

    return matrix(), matrix()


def mixed_denominator_game_matrices(rng: random.Random, n: int):
    """`random_sparse_game_matrices`' sparsity pattern with every nonzero
    redrawn in [-1, 1]: A's over denominators 3 and 9, B's over 5 and 7, so
    the two matrices' lcms differ unless both come out integral."""
    A, B = random_sparse_game_matrices(rng, n)
    for M, dens in ((A, (3, 9)), (B, (5, 7))):
        for row in M:
            for k, v in enumerate(row):
                if v:
                    den = rng.choice(dens)
                    row[k] = Fraction(rng.choice((-1, 1)) * rng.randint(1, den), den)
    return A, B


def degenerate_game_matrices(rng: random.Random, n: int):
    """Degenerate n x n games: a zero game, a sparse game whose A repeats a
    row and whose B repeats a column, and a game tied on payoffs in {-1, 0, 1}."""
    zero = [[Fraction(0)] * n for _ in range(n)]
    yield zero, zero
    A, B = random_sparse_game_matrices(rng, n)
    A[-1] = list(A[0])
    for row in B:
        row[-1] = row[0]
    yield A, B
    yield tuple([[Fraction(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)] for _ in "AB")


# --- Fraction canonical fill and reference scorer ------------------------------


def canonical_bundle(d: DemandSet) -> Bundle:
    """Deterministic member of the demand set.

    Ties are filled in (good, segment) order; residual money at cutoff rate 0
    is left unspent, so the canonical bundle never buys zero-utility goods.
    """
    x = dict(d.forced)
    if d.cutoff_rate > 0:
        money = d.tie_spend
        for o in d.tie_offers:
            if money == 0:
                break
            afford = money / o.unit_cost
            take = afford if o.quantity_cap is None else min(o.quantity_cap, afford)
            x[o.good] = x.get(o.good, 0) + take
            money -= take * o.unit_cost
    return Bundle(tuple(x.items()))


def imbalance_profile(m: Market, p: PriceVector, eps=0) -> tuple[GoodBalance, ...]:
    """Per-good balance of the canonical (deterministic) demand bundles.

    No feasibility search, so it can differ from verify's verdict exactly
    when tie flexibility matters.  This is the reference scorer: the grid
    search's incremental scores must equal the worst relative imbalance of
    this report at every grid point, and skip the same points.
    """
    totals = [Fraction(0)] * m.n_goods
    for i, t in enumerate(m.traders):
        for k, x in canonical_bundle(optimal_demand(t, p, i)).amounts:
            totals[k] += x
    return clearing_report(m.supplies(), totals, parse_epsilon(eps))


# --- reference grid search ----------------------------------------------------


def axis_points(lo: Fraction, hi: Fraction, grid_k: int) -> list:
    """The grid of one search axis: lo alone when lo == hi, else grid_k + 1
    evenly spaced points from lo to hi."""
    if lo == hi:
        return [lo]
    step = (hi - lo) / grid_k
    return [lo + step * s for s in range(grid_k + 1)]


def int_axes(axes) -> list:
    """Fraction axes as the walk's int axes: every point over the lcm of all
    their denominators."""
    D = math.lcm(*(q.denominator for axis in axes for q in axis))
    return [[q.numerator * (D // q.denominator) for q in axis] for axis in axes]


def grid_walk(m: Market, axes):
    """`grid_scores` on Fraction axes: each (index tuple, (num, den)) pair
    the walk yields on `int_axes(axes)`, in walk order, read back as
    (PriceVector, Fraction | None)."""
    for idx, score in grid_scores(m, int_axes(axes)):
        yield PriceVector(tuple(map(getitem, axes, idx))), None if score is None else Fraction(*score)


def reference_grid_scores(m: Market, axes) -> list:
    """(p, score) at every grid point in product order, scored from scratch by
    imbalance_profile; the origin and unbounded points are left out, and the
    score is None when a zero-supply good is allocated."""
    out = []
    for point in product(*axes):
        if all(q == 0 for q in point):
            continue
        p = PriceVector(point)
        try:
            profile = imbalance_profile(m, p)
        except UnboundedDemand:
            continue
        if any(row.supply == 0 and row.allocated != 0 for row in profile):
            out.append((p, None))
            continue
        score = max(
            (abs(row.imbalance) / row.supply for row in profile if row.supply != 0),
            default=Fraction(0),
        )
        out.append((p, score))
    return out


def reference_search(m: Market, cfg) -> SearchReport:
    """Grid search that scores every round and normalizes every point."""
    box = cfg.box
    best_raw = best_price = best_score = None
    trace = []
    for rnd in range(cfg.refine_rounds + 1):
        axes = [
            [lo] if lo == hi else [lo + (hi - lo) / cfg.grid_k * s for s in range(cfg.grid_k + 1)]
            for lo, hi in box
        ]
        for point in product(*axes):
            if all(q == 0 for q in point):
                continue
            p = normalize_prices(PriceVector(point))
            try:
                profile = imbalance_profile(m, p, cfg.epsilon)
            except UnboundedDemand:
                continue
            if any(row.supply == 0 and row.allocated != 0 for row in profile):
                continue
            score = max(
                (abs(row.imbalance) / row.supply for row in profile if row.supply != 0),
                default=Fraction(0),
            )
            if best_score is None or score < best_score:
                best_score, best_raw, best_price = score, point, p
        trace.append((rnd, best_score))
        if best_raw is None or rnd == cfg.refine_rounds:
            continue
        box = tuple(
            (max(lo, c - (hi - lo) / cfg.grid_k), min(hi, c + (hi - lo) / cfg.grid_k))
            for (lo, hi), c in zip(box, best_raw)
        )
    if best_price is None:
        return SearchReport(None, None, False, tuple(trace), None)
    cert = verify(m, best_price, APPROXIMATE, cfg.epsilon)
    return SearchReport(best_price, best_score, cert.accepted, tuple(trace), cert)


# --- reference file boundary --------------------------------------------------


def game_to_obj(g: BimatrixGame):
    return {
        "n": g.n,
        "A": [[format_rational(v) for v in row] for row in g.A],
        "B": [[format_rational(v) for v in row] for row in g.B],
    }


def reference_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def plc_to_obj(f: PLCFunction):
    if f.is_zero:
        return {"kind": "zero"}
    return {
        "slopes": [format_rational(s) for s in f.slopes],
        "breaks": [format_rational(a) for a in f.breaks],
    }


def _dense_row(pairs, n_goods: int) -> list[str]:
    """An n_goods-length row of rational strings from (good, amount) pairs;
    every other entry is zero."""
    row = [_ZERO] * n_goods
    for k, w in pairs:
        row[k] = format_rational(w)
    return row


def certificate_to_obj(cert: Certificate):
    """The certificate's object tree, one dense allocation row per distinct
    `Bundle` object: `reference_dumps` of it is the text that
    `serialize.dumps(cert)` must write."""
    obj = {
        "verdict": cert.verdict,
        "mode": cert.mode,
        "epsilon": format_rational(cert.epsilon),
        "reason": cert.reason,
        "allocation": None,
        "report": None,
    }
    if cert.allocation is not None:  # an allocation comes with its per-good report
        rows: dict[int, list[str]] = {}  # id of a bundle, which cert keeps alive -> its dense row
        for b in cert.allocation:
            if id(b) not in rows:
                rows[id(b)] = _dense_row(b.amounts, len(cert.report))
        obj["allocation"] = [rows[id(b)] for b in cert.allocation]
    if cert.report is not None:
        obj["report"] = [
            {
                "good": row.good,
                "supply": format_rational(row.supply),
                "allocated": format_rational(row.allocated),
                "imbalance": format_rational(row.imbalance),
                "bound": format_rational(row.bound),
            }
            for row in cert.report
        ]
    return obj


def market_to_obj(m: Market):
    """Dense rows from each trader's nonzeros; every other entry is zero.
    Every zero entry of the utility rows is one object, and so is every use
    of one piece object.  `reference_dumps` of this tree is the market file
    that `serialize.dumps(m)` must write."""
    zero = dict(_ZERO_OBJ)
    pieces: dict[int, dict] = {}  # id of a piece -> its object
    traders = []
    for t in m.traders:
        endow = _dense_row(t.owned, m.n_goods)
        utils = [zero] * m.n_goods
        for k, f in t.wanted:
            u = pieces.get(id(f))
            if u is None:
                u = pieces[id(f)] = plc_to_obj(f)
            utils[k] = u
        entry = {"endowment": endow, "utilities": utils}
        if t.label is not None:
            entry["label"] = t.label
        traders.append(entry)
    return {"n_goods": m.n_goods, "traders": traders}


def _reference_piece_key(u):
    """(slopes, breaks) of a piece given as lists of strings, else None; a key
    over raw JSON values would let true stand in for 1, which it equals."""
    if type(u) is dict and u.get("kind") != "zero":
        slopes, breaks = u.get("slopes"), u.get("breaks")
        if type(slopes) is list and type(breaks) is list and all(type(v) is str for v in slopes + breaks):
            return tuple(slopes), tuple(breaks)
    return None


def reference_piece_from_obj(u) -> PLCFunction:
    """A utility entry read by the file format's own rules, without the
    solver's `plc_from_obj`: an object whose "kind" is "zero" is the zero
    function, whatever else it holds; any other object gives its "slopes"
    and "breaks" lists to `PLCFunction`, which checks them."""
    if type(u) is not dict:
        raise InputError("utility entry must be an object")
    if u.get("kind") == "zero":
        return ZERO_PLC
    for key in ("slopes", "breaks"):
        if key not in u:
            raise InputError(f"utility: missing key {key!r}")
        if type(u[key]) is not list:
            raise InputError(f"utility: key {key!r} has wrong type")
    return PLCFunction(u["slopes"], u["breaks"])


def reference_market_from_obj(obj) -> Market:
    """A reduced market repeats a few values many times, so each distinct
    rational string and string-valued piece is parsed once per call and
    shared; any other entry is parsed, and rejected, as it stands."""
    n_goods = _require(obj, "n_goods", int, "market")
    parsed: dict = {}  # rational string -> Fraction, _piece_key -> piece

    def cached(key, parse, value):
        if key is None:
            return parse(value)
        if key not in parsed:
            parsed[key] = parse(value)
        return parsed[key]

    traders = []
    for idx, entry in enumerate(_require(obj, "traders", list, "market")):
        where = f"trader {idx}"
        endow = _require(entry, "endowment", list, where)
        utils = _require(entry, "utilities", list, where)
        if len(endow) != n_goods or len(utils) != n_goods:
            raise InvalidMarket(f"{where} has a row whose length is not n_goods={n_goods}")
        # most entries are the zeros market_to_obj writes; TraderSpec drops any other zero
        owned = [(k, cached(w if type(w) is str else None, parse_rational, w))
                 for k, w in enumerate(endow) if w != "0/1"]
        wanted = [(k, cached(_reference_piece_key(u), reference_piece_from_obj, u))
                  for k, u in enumerate(utils) if u != _ZERO_OBJ]
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise InputError(f"{where}: label must be a string")
        traders.append(TraderSpec(owned, wanted, label))
    return Market(n_goods, tuple(traders))


def reference_trader_view(t: TraderSpec, den: int, slope_den: int) -> ScaledTrader:
    """A row of `Market.view` from the definition: t's amounts and
    breakpoints over den, its slopes over slope_den, in Fractions."""
    wanted = []
    for k, f in t.wanted:
        segments, start = [], Fraction(0)
        for i, s in enumerate(f.slopes):
            if s == 0:
                break
            end = f.breaks[i] if i < len(f.breaks) else None
            segments.append((i, int(s * slope_den), None if end is None else int((end - start) * den)))
            start = end
        satiation = None if f.slopes[-1] > 0 else int(f.breaks[-1] * den)
        wanted.append((k, satiation, tuple(segments)))
    return ScaledTrader(den, tuple((k, int(w * den)) for k, w in t.owned), tuple(wanted))


def _scales(traders) -> tuple[int, int]:
    """The lcm of the traders' amount and breakpoint denominators, and the
    lcm of their slope denominators."""
    den = math.lcm(*[w.denominator for t in traders for _, w in t.owned],
                   *[a.denominator for t in traders for _, f in t.wanted for a in f.breaks])
    return den, math.lcm(*[s.denominator for t in traders for _, f in t.wanted for s in f.slopes])


def reference_market_view(m: Market) -> tuple[ScaledTrader, ...]:
    """`Market.view` from the definition: every trader on the market's
    scales, the lcm of every amount and breakpoint denominator in the
    market and the lcm of every slope denominator."""
    den, slope_den = _scales(m.traders)
    return tuple(reference_trader_view(t, den, slope_den) for t in m.traders)


def own_scale_view(t: TraderSpec) -> ScaledTrader:
    """t's integer view on its own scales, the lcms of its own
    denominators: the demand core must answer on it with the same rationals
    as on t's row of the market's view."""
    return reference_trader_view(t, *_scales([t]))


def reference_check_market(n_goods: int, traders) -> None:
    """The market-wide checks as first written: every good of every pair
    (or of every entry of a view row, which the parser checks) against the
    range, every sign by a comparison."""
    if n_goods < 1:
        raise InvalidMarket("market needs at least one good")
    if not traders:
        raise InvalidMarket("market needs at least one trader")
    for idx, t in enumerate(traders):
        if any(not 0 <= k < n_goods for k, *_ in t.owned + t.wanted):
            raise InvalidMarket(f"trader {idx} lists a good outside range({n_goods})")
        if any(w < 0 for _, w in t.owned):
            raise InvalidMarket(f"trader {idx} has a negative endowment entry")
    if not any(t.owned for t in traders):  # owned amounts are positive
        raise InvalidMarket("total endowment is zero for every good")


# --- Fraction support enumeration ------------------------------------------------
# The package's earlier solver, kept as written: one Fraction Gauss-Jordan
# re-run over the equalities and each active set, and a feasibility filter
# that re-checks the equalities too.  The integer solver must return the same
# sorted equilibrium list.  `_solve_unique` and `_system_rank` also give the
# clearing oracle its vertices (`_basic_points`).


def _echelon(rows, nvars):
    """Reduced row echelon over [coeffs | rhs]; returns (matrix, pivot
    columns), with None for the pivots when the system is inconsistent."""
    M = [list(coeffs) + [rhs] for coeffs, rhs in rows]
    pivots = []
    r = 0
    for c in range(nvars):
        pivot_row = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if pivot_row is None:
            continue
        M[r], M[pivot_row] = M[pivot_row], M[r]
        pv = M[r][c]
        M[r] = [v / pv for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    if any(M[i][nvars] != 0 for i in range(r, len(M))):
        return M, None  # a row 0 = nonzero is left below the pivots
    return M, pivots


def _solve_unique(rows, nvars) -> tuple[Fraction, ...] | None:
    """Unique solution of a rational linear system, or None when the system
    is inconsistent or underdetermined."""
    M, pivots = _echelon(rows, nvars)
    if pivots is None or len(pivots) < nvars:
        return None
    sol = [Fraction(0)] * nvars
    for i, c in enumerate(pivots):
        sol[c] = M[i][nvars]
    return tuple(sol)


def _system_rank(rows, nvars) -> int | None:
    """Rank of a consistent equality system; None when inconsistent."""
    _, pivots = _echelon(rows, nvars)
    return None if pivots is None else len(pivots)


def _reference_basic_feasible_points(eq_rows, ineq_rows, nvars) -> list[tuple[Fraction, ...]]:
    """All vertices of {z : Ez = e, Gz <= g}.

    Every vertex solves the equalities plus some (nvars - rank(E))-subset of
    the inequalities turned active, so enumerating those square systems and
    filtering by feasibility is exhaustive.  Intended for tiny dimensions.
    """
    rank = _system_rank(eq_rows, nvars)
    if rank is None:
        return []

    def feasible(z):
        for coeffs, rhs in eq_rows:
            if sum((c * v for c, v in zip(coeffs, z)), Fraction(0)) != rhs:
                return False
        for coeffs, rhs in ineq_rows:
            if sum((c * v for c, v in zip(coeffs, z)), Fraction(0)) > rhs:
                return False
        return True

    found: dict[tuple, None] = {}
    for active in combinations(ineq_rows, nvars - rank):
        z = _solve_unique(list(eq_rows) + list(active), nvars)
        if z is not None and z not in found and feasible(z):
            found[z] = None
    return list(found)


def _reference_support_candidates(payoff_rows, own_support, opp_support, n):
    """Vertices of one side's equilibrium region for fixed supports.

    payoff_rows[i][j] is the payoff of own action i against opponent action
    j; variables are the opponent's probabilities on opp_support plus the
    common payoff level v.  Own supported actions are indifferent at v, own
    unsupported actions do no better, probabilities are nonnegative and sum
    to one.  Returns full-length probability vectors.
    """
    nvars = len(opp_support) + 1
    zero = Fraction(0)

    def payoff_row(i):
        coeffs = [payoff_rows[i][j] for j in opp_support] + [Fraction(-1)]
        return (tuple(coeffs), zero)

    eq_rows = [payoff_row(i) for i in own_support]
    eq_rows.append((tuple([Fraction(1)] * len(opp_support) + [zero]), Fraction(1)))
    ineq_rows = [payoff_row(i) for i in range(n) if i not in own_support]
    for idx in range(len(opp_support)):
        coeffs = [zero] * nvars
        coeffs[idx] = Fraction(-1)
        ineq_rows.append((tuple(coeffs), zero))

    out = []
    for z in _reference_basic_feasible_points(eq_rows, ineq_rows, nvars):
        full = [zero] * n
        for idx, j in enumerate(opp_support):
            full[j] = z[idx]
        out.append(tuple(full))
    return out


def reference_support_enum(g: BimatrixGame):
    """Enumerate exact Nash equilibria by support pairs.

    For each support pair, the two players' constraint polytopes are
    independent, so the equilibria with those supports are the product of
    the two vertex sets.  Degenerate games yield the vertices of their
    equilibrium components; duplicates across support pairs are removed.
    """
    if g.n > MAX_SUPPORT_ENUM_N:
        raise NTooLarge(f"support enumeration capped at n = {MAX_SUPPORT_ENUM_N}")
    n = g.n
    row_payoffs = g.A  # row player: A[i][j] vs column j
    col_payoffs = tuple(
        tuple(g.B[i][j] for i in range(n)) for j in range(n)
    )  # column player: payoff of own action j against row i

    supports = []
    for size in range(1, n + 1):
        supports.extend(combinations(range(n), size))

    found: dict[tuple, tuple[MixedStrategy, MixedStrategy]] = {}
    for sup_x in supports:
        for sup_y in supports:
            ys = _reference_support_candidates(row_payoffs, sup_x, sup_y, n)
            if not ys:
                continue
            xs = _reference_support_candidates(col_payoffs, sup_y, sup_x, n)
            for xv in xs:
                for yv in ys:
                    key = (xv, yv)
                    if key not in found:
                        found[key] = (MixedStrategy(xv), MixedStrategy(yv))
    return [found[k] for k in sorted(found)]
