"""Exact-rational circulation feasibility.

Lower bounds are pre-routed and the excess they leave at each node is fed
from a super source or drained to a super sink; the circulation is feasible
iff one max-flow saturates the source.  The max-flow runs on Python ints:
every bound is multiplied by the lcm of all bound denominators, which
changes no comparison with zero, no minimum and no sum, so dividing the
integer flows by that scale gives the exact Fraction answer.

The max-flow runs in phases.  Each phase is one BFS from the source that
labels every reached node with its distance; if the sink is not reached,
the circulation is infeasible.  Then a DFS from the source augments one
path at a time through the level graph (residual edges from a node to the
next level), scanning each node's edges in the order they were added from
a per-node current-edge pointer.  An edge is skipped for the rest of the
phase once it is saturated or leads to a dead end, and a dead end is
unlabelled.  The phase ends when the source runs out of edges or no flow
is needed any more.

These are the flows Edmonds-Karp finds, path for path and push for push:

1. Edmonds-Karp augments along the lexicographically first shortest path,
   comparing paths by the positions of their edges in the adjacency lists:
   a FIFO BFS visits each level in the lexicographic order of its tree
   paths, so the first edge into a node comes from the first tree path.
2. Within a phase the shortest paths have the phase's length and are
   exactly the positive-residual paths of the level graph: augmenting only
   adds edges that go back one level, and a saturated edge or a dead end
   gets nothing back until the next phase.
3. So the pointers skip only edges no shortest path can use, and the DFS,
   scanning in adjacency order, meets the paths Edmonds-Karp would take,
   in the same order, and pushes the same bottleneck along each.

The witness is the first flow found, fixed by three orders: arcs in input
order, super arcs in the order nodes are first seen (each arc's head before
its tail), and each node's edges in the order they were added.  The golden
tests pin the resulting certificates byte for byte.
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
        level = [-1] * len(adj)  # BFS distance from the source; -1 unreached
        level[source] = 0
        queue = [source]  # FIFO: the loop walks the list as it grows
        for u in queue:
            for e in adj[u]:
                v = to[e]
                if residual[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            return None
        current = [0] * len(adj)  # per node: next position in adj to try
        path: list[int] = []  # edges from the source to u
        u = source
        while need:
            if u == sink:
                push = min(residual[e] for e in path)
                for e in path:
                    residual[e] -= push
                    residual[e ^ 1] += push
                need -= push
                path.clear()
                u = source
                continue
            edges, i, nxt = adj[u], current[u], level[u] + 1
            while i < len(edges) and not (residual[edges[i]] > 0 and level[to[edges[i]]] == nxt):
                i += 1
            current[u] = i
            if i < len(edges):
                path.append(edges[i])
                u = to[edges[i]]
            elif u == source:
                break  # no path left in this phase
            else:
                level[u] = -1  # dead end for the rest of the phase
                u = to[path.pop() ^ 1]
                current[u] += 1
    return [a.lower + Fraction(residual[2 * i + 1], scale) for i, a in enumerate(arcs)]
