"""Independent brute-force oracles and random instance generators.

Nothing here reuses the solver paths it checks: the concave-representation
predicate is a direct transcription of the definition, the demand oracle is
exhaustive grid enumeration of budget-feasible bundles, and the clearing
oracle enumerates tie-variable assignments (a bounded-denominator lattice
joined with every basic solution of the constraint system, so the sweep is
decision-complete) with its own Gaussian elimination.  The reference grid
search is the plain search loop: it scores every round's box, also when the
box did not shrink, at normalized prices, over the package's own scoring and
verifier.  The dense references restate, over all N goods, what the package
computes over each trader's support or a bundle's nonzero entries; strong
connectivity is networkx's verdict on the dense, edge-by-edge economy graph.
The reference circulation is Edmonds-Karp with one BFS per augmenting path,
which the phased max-flow must match flow for flow; rational test networks
reach the integer max-flow through `scaled_circulation`.  The dense builders
fill N-length endowment and utility rows, trader by trader, the way the
sparse builders must agree with.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import networkx as nx

from plcmarket.clearing import APPROXIMATE, imbalance_profile, verify
from plcmarket.demand import DemandSet, SegmentOffer, budget, canonical_bundle, optimal_demand
from plcmarket.errors import UnboundedDemand
from plcmarket.flow import Arc, feasible_circulation
from plcmarket.model import Market, PriceVector, TraderSpec, normalize_prices
from plcmarket.plc import ZERO_PLC, linear_plc, validate_plc
from plcmarket.reduction import gadget_vectors_row
from plcmarket.search import SearchReport


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


# --- exhaustive grid demand oracle ---------------------------------------------


def grid_max_utility(trader: TraderSpec, p, den: int = 16) -> Fraction:
    """Max utility over all bundles with coordinates in (1/den)Z and cost
    within budget.  Positive prices only."""
    n = len(p.prices)
    money = budget(trader, p)
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


# --- standalone exact linear algebra for the clearing oracle --------------------


def _solve_square(rows, nvars):
    M = [list(coeffs) + [rhs] for coeffs, rhs in rows]
    pivots = []
    r = 0
    for c in range(nvars):
        pr = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        pv = M[r][c]
        M[r] = [v / pv for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(M)):
        if M[i][nvars] != 0:
            return None
    if len(pivots) < nvars:
        return None
    sol = [Fraction(0)] * nvars
    for i, c in enumerate(pivots):
        sol[c] = M[i][nvars]
    return tuple(sol)


def _basic_points(eq_rows, ineq_rows, nvars):
    # rank via elimination on the equalities alone
    rank = 0
    if eq_rows:
        M = [list(c) + [r] for c, r in eq_rows]
        r = 0
        for c in range(nvars):
            pr = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
            if pr is None:
                continue
            M[r], M[pr] = M[pr], M[r]
            for i in range(len(M)):
                if i != r and M[i][c] != 0:
                    f = M[i][c] / M[r][c]
                    M[i] = [a - f * b for a, b in zip(M[i], M[r])]
            r += 1
        for i in range(r, len(M)):
            if M[i][nvars] != 0:
                return []  # inconsistent equalities
        rank = r
    seen = set()
    out = []
    for active in combinations(range(len(ineq_rows)), nvars - rank):
        rows = list(eq_rows) + [ineq_rows[i] for i in active]
        z = _solve_square(rows, nvars)
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
            forced[k] = f.satiation_point
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
            gv = gadget_vectors_row(M, i, j)
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


# --- reference grid search ----------------------------------------------------


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
