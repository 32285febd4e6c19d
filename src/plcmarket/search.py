"""Desk-scale equilibrium search: coarse grid plus local refinement.

Finding approximate equilibria of reduced markets at the headline precision
is the hard problem itself, so this search is exploratory by design: it
scores grid points by the worst relative imbalance of canonical demand,
keeps the best incumbent, shrinks the box around it, and only ever claims
acceptance when the full verifier accepts the incumbent.  Grid points are
grid_k-adic rationals, so every evaluation downstream stays exact.

Grid points are scored incrementally, in integers.  A trader's canonical
bundle, and whether its demand is unbounded, depend only on the prices of
its support, the goods it owns or has a nonzero utility piece on: budget,
offers and forced satiation amounts read nothing else, and the bundle is
zero off the support.  So the traders are grouped by support, and each
group keeps one memo, a flat table indexed by the mixed-radix key of its
support's axis indices, of the sum of its members' bundles restricted to
the support, or of a mark of unbounded demand when some member's is.  A
group's key is one int, kept current through every point, scored, skipped
or stale: a move of axis k adds +-stride_k to the key of each group that
holds good k.  The per-good totals change by exact differences only when a
group's entry changes.  Memos live for one box, so a box with axes A_k
holds at most sum_S prod_{k in S} |A_k| entries over the distinct supports
S, and computes at most sum_i prod_{k in support(i)} |A_k| demands, instead
of one demand per trader and grid point; in the paper's reduced markets
every trader touches only a handful of goods, and there are about half as
many distinct supports as traders.

The walk takes its axes as ints, a box's prices P_k over one denominator
that it never reads: canonical demand, and so every score, is the same at
every positive multiple of a price vector.  A memo miss runs the walk's
demand kernel (`packed_fill`) on each member's row of the market's view,
which counts amounts in units of 1/M for the whole market.  The kernel is
the greedy of the integer demand core (`int_demand`, `canonical_amounts`),
in its offer order and tie rule, on one rate scale for the box: with L the
lcm of the box's positive axis ints, offer rates are s * (L // P_k), which
order every trader's offers as its own lcm would, so no demand builds an
lcm, a dict or an `IntDemand`; it returns the canonical fill already
packed into the fields below.  Memo entries and totals keep the fill's own
units, good k in 1/(M * P_k), or 1/M when it is free, the same for every
member, so a group's sum is exact and an int.  An entry is one int that
packs good k's sum into bits [k * W, (k + 1) * W), and the running totals
are one such int, so a visit changes them by one subtraction and one
addition.  W is fixed per box as the bit length of every trader's budget at
the top of each axis plus every finite satiation amount: a priced good's
fill is money the trader has, a free good's a satiation amount, so no
good's total, nor any mix of stale and fresh entries, reaches 2^W, and no
field carries into the next.  The worst relative imbalance is found by
cross-multiplying each field with supply * (P_k or 1), read from a row of
one entry per axis that each move updates, and kept as a (num, den) pair of
ints, which the search compares by cross-multiplying.

The walk takes the reflected mixed-radix Gray order (Knuth, TAOCP 4A,
7.2.1.1): each step moves one axis by one place, and visits only the
supports that hold that good, once for all their traders, plus every
support left stale by a point skipped midway, at the origin or for
unbounded demand.  The most-held good moves least: the walk's axes are the
goods by descending count of the supports that hold them, ties broken by
good index, and the last of them moves most often.  So a support that
holds good k is revisited whenever P_k changes, and a stale one before the
next scored point: at each scored point all of good k's entries are on its
one scale, and the score equals the one a from-scratch sum of every trader's
canonical bundle gives there.  A pass at grid_k 1 over [1, 2]^N makes 428
support visits on the reduced market of the 2x2 identity game and 2,593 on
the 3x3 one.

Points come out in walk order as tuples of axis indices in good order;
every axis ascends, so index order is product order, and the search keeps
the first best point in it.  The search holds its box and its incumbent as
Fractions, so a box that did not shrink compares equal to the box scored
before it and is not scored again.  Only the walk's axes are ints: with D
the lcm of a box's denominators and k = grid_k, an axis [lo, hi] has the
points lo * k + (hi - lo) * s over D * k (lo * k alone when lo == hi), and
the incumbent is the Fractions of its grid point.  One grid step around the
incumbent c is [max(lo, c - (hi - lo) / k), min(hi, c + (hi - lo) / k)];
at grid_k 1 that is the whole box around any grid point, so those rounds
do no shrink.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem

from .clearing import APPROXIMATE, Certificate, verify
from .demand import packed_fill
from .errors import BoxDimensionMismatch, GridBudgetExceeded, InputError, UnboundedDemand
from .model import Market, PriceVector, normalize_prices, trusted
from .rational import parse_epsilon, parse_rational


MAX_GRID_POINTS = 10**7  # bounds the work one grid_k from outside can ask for
MAX_REFINE_ROUNDS = 64  # each round can score a new box, so the rounds bound the work too
_UNBOUNDED = object()  # memo entry of a trader whose demand is unbounded


@dataclass(frozen=True)
class SearchConfig:
    """Search settings, checked on construction: box bounds and epsilon are
    exact rationals (ints become Fractions, floats raise InputError), every
    interval has 0 <= lo <= hi and some hi > 0, grid_k and refine_rounds are
    ints (not bools) in range, and the grid is within its cap."""

    box: tuple[tuple[Fraction, Fraction], ...]
    grid_k: int = 4
    refine_rounds: int = 2
    epsilon: Fraction = Fraction(0)

    def __post_init__(self):
        box = tuple((parse_rational(lo), parse_rational(hi)) for lo, hi in self.box)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "epsilon", parse_epsilon(self.epsilon))
        for name in ("grid_k", "refine_rounds"):
            value = getattr(self, name)
            if type(value) is not int:  # bool is an int subclass, but never a count
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.grid_k < 1:
            raise GridBudgetExceeded("grid_k must be at least 1")
        if not 0 <= self.refine_rounds <= MAX_REFINE_ROUNDS:
            raise GridBudgetExceeded(f"refine_rounds must lie in [0, {MAX_REFINE_ROUNDS}], got {self.refine_rounds}")
        if any(lo < 0 or hi < lo for lo, hi in box):
            raise BoxDimensionMismatch("box intervals must satisfy 0 <= lo <= hi")
        if all(hi == 0 for _, hi in box):
            raise BoxDimensionMismatch("box holds no nonzero price vector")
        points = 1
        for _ in box:  # stops before the count gets far past the cap, however large grid_k is
            points *= self.grid_k + 1
            if points > MAX_GRID_POINTS:
                raise GridBudgetExceeded(
                    f"a grid of (grid_k + 1)^{len(box)} points exceeds the cap of {MAX_GRID_POINTS}"
                )


def unit_box(n_goods: int, lo=1, hi=2) -> tuple[tuple[Fraction, Fraction], ...]:
    """The default [1, 2]^n search box the regulation property justifies."""
    lo, hi = parse_rational(lo), parse_rational(hi)
    return tuple((lo, hi) for _ in range(n_goods))


@dataclass(frozen=True)
class SearchReport:
    best_price: PriceVector | None
    best_max_relative_imbalance: Fraction | None  # None = nothing scoreable
    accepted: bool
    trace: tuple[tuple[int, Fraction | None], ...]
    certificate: Certificate | None = None


def _score(total, width, supplied) -> tuple[int, int] | None:
    """The worst |total - supply| / supply over goods with nonzero supply,
    as (num, den), or None when a zero-supply good is allocated.  Good k's
    total is field k, width bits wide, of the packed int total; it counts
    units of 1/(M * P_k), or 1/M when the good is free, and supplied[k] is
    its supply, counted in 1/M, times (P_k or 1).  A common factor of P
    scales num and den alike, so two scores compare by cross-multiplying
    whatever scale their points' prices are on."""
    num, den, mask = 0, 1, (1 << width) - 1
    for s in supplied:
        t, total = total & mask, total >> width
        if s:
            gap = abs(t - s)
            if gap * den > num * s:
                num, den = gap, s
        elif t:
            return None
    return num, den


def grid_scores(m: Market, axes):
    """Yield (idx, score) for the grid points in reflected Gray order, one
    axis moving per step and the most-held good the least often, leaving
    out the origin and every point where some trader's demand is
    unbounded.  The axes hold nonnegative ints, the prices over one
    denominator the walk never needs, since demand and scores are the same
    at every positive multiple of a price vector; idx is the tuple of the
    point's axis indices, in good order.  The score is
    `_score`'s (num, den), the worst relative imbalance of canonical
    demand, or None when a zero-supply good is allocated, read from
    per-good totals packed into fixed-width fields of one int; the totals
    sum entries of flat per-support tables, read at int keys that each
    move steps by a stride."""
    n, sizes = len(axes), [len(axis) for axis in axes]
    # one rate scale for the box: U_k = L // P_k orders every trader's offers
    # as its own lcm would, so a fill needs no lcm of its own
    L = math.lcm(*(q for axis in axes for q in axis if q))
    rates = [[L // q if q else 0 for q in axis] for axis in axes]
    supplied = [[s * (q or 1) for q in axis] for s, axis in zip(m.scaled[1], axes)]

    # the traders grouped by support, the goods they own or want: members of a
    # group read the same prices, so they share one memo, key and visit
    view, groups = m.view, {}
    for i, v in enumerate(view):
        support = tuple(sorted({k for k, _ in v.owned}.union(k for k, _, _ in v.wanted)))
        if support:  # an empty support demands nothing
            groups.setdefault(support, []).append(i)
    members = list(groups.values())
    # each memo is a flat table over the mixed-radix key of its support's axis
    # indices, and a move of axis k adds +-stride to each holder's key
    holders, moves, memos = [[] for _ in axes], [[] for _ in axes], []
    for g, support in enumerate(groups):
        stride = 1
        for k in reversed(support):
            holders[k].append(g)
            moves[k].append((g, stride))
            stride *= sizes[k]
        memos.append([None] * stride)
    # the walk's axes, the one that moves most first: the most-held good moves least
    walk = sorted(range(n), key=lambda k: (len(holders[k]), -k))
    # no total of a good, nor any mix of stale and fresh entries, exceeds every
    # budget at the top of each axis plus every finite satiation amount
    tops = [max(axis) for axis in axes]
    width = (sum(w * tops[k] for v in view for k, w in v.owned)
             + sum(s for v in view for _, s, _ in v.wanted if s is not None)).bit_length()
    shifts = [width * k for k in range(n)]
    keys, contrib, total = [0] * len(memos), [0] * len(memos), 0

    idx, step = [0] * n, [1] * n
    P, U, S = [q[0] for q in axes], [u[0] for u in rates], [s[0] for s in supplied]
    stale = set(range(len(memos)))  # groups whose entry is not the current point's
    visit = []
    while True:
        if stale:
            visit, stale = sorted(stale.union(visit)), set()
        if not any(P):  # the origin
            stale.update(visit)
        else:
            for pos, g in enumerate(visit):
                new = memos[g][keys[g]]
                if new is None:
                    new = 0
                    try:
                        for i in members[g]:
                            new += packed_fill(view[i], P, U, shifts, i)
                    except UnboundedDemand:
                        new = _UNBOUNDED  # a member strictly wants a free good
                    memos[g][keys[g]] = new
                if new is _UNBOUNDED:
                    stale.update(visit[pos:])
                    break
                total += new - contrib[g]  # an entry and its part of the total change together
                contrib[g] = new
            else:
                yield tuple(idx), _score(total, width, S)

        # the next point in reflected Gray order: the first walk axis that can
        # move one place on in its direction does, and each one before it turns back
        for j in walk:
            d = step[j]
            if 0 <= idx[j] + d < sizes[j]:
                break
            step[j] = -d
        else:
            return
        idx[j] += d
        P[j], U[j], S[j] = axes[j][idx[j]], rates[j][idx[j]], supplied[j][idx[j]]
        for g, stride in moves[j]:
            keys[g] += d * stride
        visit = holders[j]


def search_equilibrium(m: Market, cfg: SearchConfig) -> SearchReport:
    if len(cfg.box) != m.n_goods:
        raise BoxDimensionMismatch(f"box has {len(cfg.box)} coordinates for {m.n_goods} goods")
    k = cfg.grid_k
    box = cfg.box

    # Scores are scale-invariant, so only the final incumbent is normalized;
    # rescoring the last box scored could never lower the incumbent's score.
    scored = None
    best = None  # the incumbent's prices
    best_score = None  # its (num, den)
    trace = []
    for rnd in range(cfg.refine_rounds + 1):
        if box != scored:
            # the walk's axes as ints over D * k, D the lcm of the box's denominators
            D = math.lcm(*(q.denominator for bounds in box for q in bounds))
            ints = [[q.numerator * (D // q.denominator) for q in bounds] for bounds in box]
            axes = [[lo * k + (hi - lo) * s for s in range(k + 1)] if lo < hi else [lo * k] for lo, hi in ints]
            # the first best point in product order, which is index order,
            # since every axis ascends; an earlier box's incumbent wins a tie
            bidx = None
            for idx, score in grid_scores(m, axes):
                if score is None:
                    continue
                gain = 1 if best_score is None else best_score[0] * score[1] - score[0] * best_score[1]
                if gain > 0 or gain == 0 and bidx is not None and idx < bidx:
                    best_score, bidx = score, idx
            if bidx is not None:
                best = tuple(Fraction(c, D * k) for c in map(getitem, axes, bidx))
            scored = box
        trace.append((rnd, None if best_score is None else Fraction(*best_score)))
        # the last round's box is never read, and at grid_k 1 one grid step
        # around any grid point is the whole box
        if best is None or rnd == cfg.refine_rounds or k == 1:
            continue
        # shrink to one current grid step around the incumbent, clipped to the box
        box = tuple((max(lo, c - (hi - lo) / k), min(hi, c + (hi - lo) / k)) for (lo, hi), c in zip(box, best))

    if best is None:
        return SearchReport(None, None, False, tuple(trace), None)
    best_price = normalize_prices(trusted(PriceVector, prices=best, normalized=False))
    cert = verify(m, best_price, APPROXIMATE, cfg.epsilon)
    return SearchReport(best_price, trace[-1][1], cert.accepted, tuple(trace), cert)
