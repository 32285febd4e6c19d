import math
import random
from fractions import Fraction as F

import networkx as nx

from plcmarket.flow import Arc, feasible_circulation


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
