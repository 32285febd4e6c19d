import math
import random
from fractions import Fraction as F

import networkx as nx

from plcmarket import clearing, flow
from plcmarket.clearing import APPROXIMATE, EXACT, QUASI, verify
from plcmarket.flow import Arc
from plcmarket.games import validate_game
from plcmarket.model import prices
from plcmarket.reduction import build_reduced_market
from plcmarket.regulating import build_mn

from oracles import coprime_instance, random_market, random_sparse_game_matrices, reference_circulation
# The networks below have rational bounds; they reach the integer core
# `flow.feasible_circulation` through this adapter, which scales them.
from oracles import scaled_circulation as feasible_circulation


def _through(value):
    """Return arc t -> s pinned to carry exactly `value` around the network."""
    return Arc("t", "s", value, value)


def test_max_flow_simple():
    # max s-t flow 5/2: the return arc can carry 5/2 but not a bit more
    net = [Arc("s", "a", F(0), F(3)), Arc("a", "t", F(0), F(2)), Arc("s", "t", F(0), F(1, 2))]
    flows = feasible_circulation(net + [_through(F(5, 2))])
    assert flows == [F(2), F(2), F(1, 2), F(5, 2)]
    assert feasible_circulation(net + [_through(F(5, 2) + F(1, 10**9))]) is None


def test_max_flow_fractional_bottleneck():
    net = [Arc("s", "a", F(0), F(1, 3)), Arc("a", "t", F(0), F(7))]
    assert feasible_circulation(net + [_through(F(1, 3))]) == [F(1, 3)] * 3
    assert feasible_circulation(net + [_through(F(1, 3) + F(1, 10**9))]) is None


def test_circulation_with_lower_bounds_feasible():
    arcs = [
        Arc("a", "b", F(1), F(2)),
        Arc("b", "c", F(1), F(2)),
        Arc("c", "a", F(0), F(3)),
    ]
    flows = feasible_circulation(arcs)
    assert flows is not None
    # conservation at every node
    assert flows[0] == flows[1] == flows[2]
    assert F(1) <= flows[0] <= F(2)


def test_circulation_infeasible_conflicting_bounds():
    arcs = [
        Arc("a", "b", F(2), F(2)),
        Arc("b", "a", F(0), F(1)),
    ]
    assert feasible_circulation(arcs) is None


def test_circulation_bad_interval():
    assert feasible_circulation([Arc("a", "a", F(2), F(1))]) is None


def test_transportation_instance():
    # two suppliers with fixed outputs, one consumer window
    arcs = [
        Arc("src", "t1", F(1, 2), F(1, 2)),
        Arc("src", "t2", F(0), F(1)),
        Arc("t1", "g", F(0), F(5)),
        Arc("t2", "g", F(0), F(5)),
        Arc("g", "snk", F(1), F(5, 4)),
        Arc("snk", "src", F(0), F(100)),
    ]
    flows = feasible_circulation(arcs)
    assert flows is not None
    assert flows[0] == F(1, 2)
    assert F(1) <= flows[4] <= F(5, 4)
    assert flows[2] + flows[3] == flows[4]


def _random_arcs(rng):
    nodes = range(rng.randint(2, 6))
    arcs = []
    for _ in range(rng.randint(2, 12)):
        tail, head = rng.sample(nodes, 2)
        lower = F(rng.choice((0, 0, 0, 1, 2, 3)), rng.choice((1, 2, 3, 4, 6)))
        width = F(rng.randint(0, 8), rng.choice((1, 2, 5)))
        arcs.append(Arc(tail, head, lower, lower + width))
    return arcs


def _networkx_feasible(arcs) -> bool:
    """Independent verdict: network simplex on the integer-scaled problem,
    with each lower bound moved into its endpoints' node demands."""
    scale = math.lcm(*(b.denominator for a in arcs for b in (a.lower, a.upper)))
    g = nx.MultiDiGraph()
    demand = {}
    for a in arcs:
        lo = int(a.lower * scale)
        g.add_edge(a.tail, a.head, capacity=int(a.upper * scale) - lo, weight=0)
        demand[a.tail] = demand.get(a.tail, 0) + lo
        demand[a.head] = demand.get(a.head, 0) - lo
    nx.set_node_attributes(g, demand, "demand")
    try:
        nx.network_simplex(g)
    except nx.NetworkXUnfeasible:
        return False
    return True


def test_circulation_matches_network_simplex():
    rng = random.Random(20090)
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        arcs = _random_arcs(rng)
        flows = feasible_circulation(arcs)
        assert (flows is not None) == _networkx_feasible(arcs)
        verdicts[flows is not None] += 1
        if flows is None:
            continue
        balance = {}
        for a, f in zip(arcs, flows):
            assert type(f) is F and a.lower <= f <= a.upper
            balance[a.head] = balance.get(a.head, 0) + f
            balance[a.tail] = balance.get(a.tail, 0) - f
        assert all(v == 0 for v in balance.values())
    assert min(verdicts.values()) >= 100, verdicts


def _random_network(rng):
    """Up to 9 nodes and 24 arcs, so phases run several augmenting paths
    and the DFS meets saturated edges and dead ends."""
    nodes = range(rng.randint(2, 9))
    arcs = []
    for _ in range(rng.randint(2, 24)):
        tail, head = rng.sample(nodes, 2)
        lower = F(rng.choice((0, 0, 0, 0, 1, 2, 3)), rng.choice((1, 2, 3, 4, 6)))
        width = F(rng.randint(0, 8), rng.choice((1, 2, 5)))
        arcs.append(Arc(tail, head, lower, lower + width))
    return arcs


def _clearing_networks(monkeypatch):
    """Every arc list `clearing._solve` hands to the circulation core on
    M_n, seeded reduced markets, random markets and markets whose
    denominators share no factor, so the integer scale mixes them.  Where
    no trader has a choice `_solve` routes and builds no arc; elsewhere the
    one-good cut is patched off, since it decides most clearing rejects
    before the flow runs, and the referee needs infeasible networks."""
    captured = []

    def capture(arcs):
        captured.append(arcs)
        return flow.feasible_circulation(arcs)

    monkeypatch.setattr(clearing, "feasible_circulation", capture)
    monkeypatch.setattr(clearing, "_short_good", lambda *args: False)
    rng = random.Random(20100)
    for n in range(2, 9):
        inside = [1 + F(rng.randint(0, 16), 16) for _ in range(n)]
        pushed = list(inside)
        k = rng.randrange(n)
        pushed[k] = 2 * min(pushed[j] for j in range(n) if j != k) + F(rng.randint(1, 16), 16)
        for vec in (inside, pushed):
            for mode in (EXACT, APPROXIMATE, QUASI):
                verify(build_mn(n), prices(vec), mode, F(1, n))
    for n in range(2, 5):
        market, _ = build_reduced_market(validate_game(*random_sparse_game_matrices(rng, n)))
        N = market.n_goods
        vec = prices([1 + F(rng.randint(1, 999), 1000) for _ in range(N)])
        for eps in (F(1, N**13), F(1, 2)):
            verify(market, vec, APPROXIMATE, eps)
    for _ in range(60):
        m = random_market(rng)
        vec = prices([F(rng.randint(1, 8), 4) for _ in range(m.n_goods)])
        for mode in (EXACT, QUASI):
            verify(m, vec, mode)
    for _ in range(40):
        m, vec = coprime_instance(rng)
        for mode, eps in ((EXACT, 0), (QUASI, 0), (APPROXIMATE, F(1, 1084)), (APPROXIMATE, F(1, 18**13))):
            verify(m, vec, mode, eps)
    monkeypatch.undo()
    return captured


def test_phases_match_edmonds_karp(monkeypatch):
    rng = random.Random(20101)
    verdicts = {True: 0, False: 0}
    for _ in range(2000):
        arcs = _random_network(rng)
        flows = feasible_circulation(arcs)
        assert flows == reference_circulation(arcs), arcs
        verdicts[flows is not None] += 1
    assert min(verdicts.values()) >= 300, verdicts
    networks = _clearing_networks(monkeypatch)
    seen = {True: 0, False: 0}
    for arcs in networks:
        flows = feasible_circulation(arcs)
        assert flows == reference_circulation(arcs), arcs
        seen[flows is not None] += 1
    assert min(seen.values()) >= 10, seen
