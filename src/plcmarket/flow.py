"""Exact-rational circulation feasibility.

Lower bounds are pre-routed and the excess they leave at each node is fed
from a super source or drained to a super sink; the circulation is feasible
iff one max-flow saturates the source.  The max-flow is Edmonds-Karp on
Python ints: every bound is multiplied by the lcm of all bound denominators,
which changes no comparison with zero, no minimum and no sum, so dividing the
integer flows by that scale gives the exact Fraction answer.

The witness is the first flow found, fixed by three orders: arcs in input
order, super arcs in the order nodes are first seen (each arc's head before
its tail), and each node's edges scanned by BFS in the order they were added.
The golden tests pin the resulting certificates byte for byte.
"""

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Arc:
    tail: object
    head: object
    lower: Fraction
    upper: Fraction


def feasible_circulation(arcs: list[Arc]) -> list[Fraction] | None:
    """Find arc flows meeting [lower, upper] bounds with balanced nodes.

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
