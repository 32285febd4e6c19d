"""Per-trader demand oracle.

At prices p a trader sells her endowment for a budget and buys greedily by
bang-per-buck: each positive-slope utility segment of good j is an offer with
rate slope/p_j and a quantity cap (the last segment of a strictly monotone
piece is uncapped).  Offers strictly above the cutoff rate are bought in
full, offers below it get nothing, and offers exactly at the cutoff form a
tie frontier over which the remaining money must be spread.  The resulting
description is the trader's entire optimal-bundle set, not just one optimum.
Forced purchases and bundles are their nonzeros, goods with their amounts;
no N-length row is built.  In the core's answer (`IntDemand`):

* ``ties`` non-empty (a positive cutoff rate): every optimal bundle equals
  ``forced`` plus some split of ``spend`` money over ``ties`` within caps.
* ``ties`` empty (cutoff rate 0): all productive segments were affordable;
  optimal bundles are ``forced`` plus arbitrary zero-marginal-utility
  spending of up to ``spend`` residual money on positively priced goods.
* goods with zero price and a satiated utility piece appear in ``forced`` at
  their satiation point and may be topped up for free without utility change.

A zero price on a strictly monotone piece means no optimal bundle exists and
raises UnboundedDemand.

The greedy runs once, in integers: `int_demand` reads the trader's row of
the market's integer view (`Market.view`: amounts in units of 1/M, one M
for the whole market, slopes on one scale) and the prices as P_k / D with
one D, so budgets, group costs and tie spend are ints in units of
1/(M * D), and rates slope / p_k are compared as ints.
This is the package's one demand path: `verify` hands the integers to the
circulation as they are, its report sums the integer canonical fill
(`canonical_amounts`), and `in_demand` re-checks an integer bundle, on a
unit the caller names, against the integers: it compares the bundle with
that fill and sums the utility terms where the two differ in integers, on
the same view row.  The grid search takes one shortcut around it:
`packed_fill` runs the same greedy, in the same offer order and with the
same tie rule, on rates s * (L // P_k) for one L per search box, and
returns the canonical fill packed into the walk's fixed-width fields,
building no `IntDemand` and no dict; `int_demand` and `canonical_amounts`
are its reference.  No part of it reads a `TraderSpec` or a `PLCFunction`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .errors import InvalidMarket, UnboundedDemand
from .model import PriceVector, ScaledTrader
from .rational import parse_rational


@dataclass(frozen=True)
class Bundle:
    """A bundle as (good, amount) pairs, checked on construction as
    `TraderSpec` checks its pairs: amounts are parsed with `parse_rational`
    (floats and bools raise InputError), a good that is not an int (a bool
    included) or that is listed twice raises InvalidMarket, and the pairs
    are sorted by good.  Zero and negative amounts are kept; membership
    judges them."""

    amounts: tuple[tuple[int, Fraction], ...]  # (good, amount), ascending good

    def __post_init__(self):
        x: dict[int, Fraction] = {}
        for k, a in self.amounts:
            if type(k) is not int or k in x:
                raise InvalidMarket(f"a bundle's goods must be distinct ints, got {k!r} in {self.amounts!r}")
            x[k] = parse_rational(a)
        object.__setattr__(self, "amounts", tuple(sorted(x.items())))


class IntDemand(NamedTuple):
    """The demand core's answer at prices P / D for a trader with integer
    view v: amounts in units of 1/v.den and money in units of 1/(v.den * D).
    ``ties`` lists the tie frontier, the offers at the cutoff rate, as
    (good, segment, cap) in (good, segment) order, cap None if uncapped; it
    is empty when every productive segment was bought (cutoff rate 0)."""

    den: int
    forced: dict[int, int]
    ties: list[tuple[int, int, int | None]]
    spend: int
    budget: int


def int_demand(v: ScaledTrader, P, trader_idx: int | None = None) -> IntDemand:
    """The demand core on a trader's integer view v at prices P_k / D, with
    D left out.

    Rates slope / p_k are compared as s * (L // P_k), L the lcm of the
    positive prices the trader wants, which orders them as the rates do."""
    forced: dict[int, int] = {}
    by_rate: dict[int, list] = {}
    L = math.lcm(*[P[k] for k, _, _ in v.wanted if P[k]])
    for k, satiation, segments in v.wanted:
        q = P[k]
        if not q:  # a wanted free good is bought to satiation, or is unbounded
            if satiation is None:
                raise UnboundedDemand(trader_idx, k)
            forced[k] = satiation
            continue
        u = L // q
        for i, s, cap in segments:
            by_rate.setdefault(s * u, []).append((k, i, cap))

    money = remaining = sum(w * P[k] for k, w in v.owned)
    for rate in sorted(by_rate, reverse=True):
        group = by_rate[rate]
        cost = 0
        for k, _, cap in group:
            if cap is None:
                break
            cost += cap * P[k]
        else:
            if cost <= remaining:
                for k, _, cap in group:
                    forced[k] = forced.get(k, 0) + cap
                remaining -= cost
                continue
        return IntDemand(v.den, forced, group, remaining, money)
    return IntDemand(v.den, forced, [], remaining, money)


def canonical_amounts(d: IntDemand, P) -> dict[int, int]:
    """The canonical bundle of the core's answer d at prices P / D, in
    integers: good k in units of 1/(d.den * P_k), or 1/d.den when free.
    Ties are filled in (good, segment) order; residual money with no ties
    is left unspent, so the canonical bundle never buys zero-utility goods."""
    x = {k: a * (P[k] or 1) for k, a in d.forced.items()}
    money = d.spend
    for k, _, cap in d.ties:
        if not money:
            break
        take = money if cap is None else min(cap * P[k], money)
        x[k] = x.get(k, 0) + take
        money -= take
    return x


_rate = itemgetter(0)  # an offer's sort key, minus its rate


def packed_fill(v: ScaledTrader, P, U, shifts, trader_idx: int | None = None) -> int:
    """The canonical fill of `canonical_amounts(int_demand(v, P), P)` with
    good k's amount in bits from shifts[k] of one int, from U_k = L // P_k
    for a common multiple L of the positive P_k, or 0 when P_k is 0.

    Offers are ordered by rate s * U_k, highest first, with a stable sort,
    so (good, segment) order holds inside a rate as in `int_demand`.  The
    money goes to them in that order: a whole group at one rate is bought
    when it is affordable, and the tie group it runs out in is filled in
    (good, segment) order, so each offer takes min(cap * P_k, money), the
    uncapped one all of it.  A wanted free good adds its satiation amount,
    or raises UnboundedDemand as `int_demand` does."""
    packed, offers = 0, []
    for k, satiation, segments in v.wanted:
        u = U[k]
        if not u:
            if satiation is None:
                raise UnboundedDemand(trader_idx, k)
            packed += satiation << shifts[k]
            continue
        for _, s, cap in segments:
            offers.append((-s * u, k, cap))
    offers.sort(key=_rate)
    money = 0
    for k, w in v.owned:
        money += w * P[k]
    for _, k, cap in offers:
        if cap is not None and (cost := cap * P[k]) <= money:
            packed += cost << shifts[k]
            money -= cost
        else:
            return packed + (money << shifts[k])
    return packed


def _utility(segments, x: int, u: int) -> int:
    """A piece's utility at x units of 1/(u * M), from its segments on a row
    of the market's view (`Market.view`, amounts in units of 1/M): an int in
    units of 1/(u * M * S), S the view's slope scale.  Past its last
    positive-slope segment the piece is flat."""
    value = 0
    for _, s, cap in segments:
        if cap is None or x <= cap * u:
            return value + s * x
        value += s * cap * u
        x -= cap * u
    return value


def utility_change(v: ScaledTrader, P, differ, Q: int) -> int:
    """U(x) - U(c) for the trader with view row v, from differ's (good, x_k,
    c_k) triples on the unit `in_demand` takes, Q a multiple of v.den: an int
    in units of 1/(Q * S * L), S the view's slope scale and L the lcm of the
    P_k (1 for a free good) over differ's goods."""
    f = {k: segments for k, _, segments in v.wanted}
    units = {k: P[k] or 1 for k, _, _ in differ}
    a, L = Q // v.den, math.lcm(*units.values())
    return sum((_utility(f[k], x, a * units[k]) - _utility(f[k], c, a * units[k])) * (L // units[k])
               for k, x, c in differ if k in f)


def in_demand(v: ScaledTrader, p: PriceVector, d: IntDemand, x, Q: int) -> bool:
    """Membership test for the optimal-bundle set at p of the trader with
    view row v, given as the core's answer d = `int_demand(v, p.scaled[1])`:
    every good in range(len(p.prices)), no negative amount, budget-feasible,
    and utility equal to the greedy optimum.  Spending residual money on
    goods with zero marginal utility is allowed.

    x is a collection of (good, amount) pairs in integers on the caller's
    unit Q, a multiple of d.den: a priced good k counts 1/(Q * P_k), so its
    amount is also its money in units of 1/(Q * D), and a free good counts
    1/Q.  x is compared with the canonical bundle c = `canonical_amounts(d,
    P)` scaled by Q // d.den, entry by entry; c is optimal, so an x equal to
    it is in demand, and costs and utilities are looked at only when x
    differs.  Then x's money, an int, must be at most the budget, and the
    utility changes by f_k(x_k) - f_k(c_k) on the goods where x and c
    differ, c's goods missing from x included; U(x) == U(c) exactly when
    those terms, summed in integers (`utility_change`), give 0."""
    n = len(p.prices)
    P = p.scaled[1]
    a = Q // d.den
    c = canonical_amounts(d, P)
    differ = []  # (good, amount in x, amount in c), one per good where they differ
    for k, w in x:
        if not 0 <= k < n or w < 0:
            return False
        b = c.pop(k, 0) * a
        if w != b:
            differ.append((k, w, b))
    differ.extend((k, 0, b * a) for k, b in c.items() if b)  # canonical goods that x leaves out
    if not differ:
        return True
    if sum(w for k, w in x if P[k]) > d.budget * a:  # its money, in units of 1/(Q * D)
        return False
    return utility_change(v, P, differ, Q) == 0
