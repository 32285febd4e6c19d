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
circulation as they are, the grid search scores the integer canonical fill
(`canonical_amounts`), and `in_demand` re-checks an integer bundle, on a
unit the caller names, against the integers: it compares the bundle with
that fill and builds Fractions only for the utility terms where the two
differ.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidMarket, UnboundedDemand
from .model import PriceVector, ScaledTrader, TraderSpec
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

    def cost(self, p: PriceVector) -> Fraction:
        q = p.prices
        return sum((x * q[k] for k, x in self.amounts), Fraction(0))


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


def in_demand(trader: TraderSpec, p: PriceVector, d: IntDemand, x, Q: int) -> bool:
    """Membership test for the trader's optimal-bundle set at p, given as the
    core's answer d = `int_demand(v, p.scaled[1])` on its view v: every good in
    range(len(p.prices)), no negative amount, budget-feasible, and utility
    equal to the greedy optimum.  Spending residual money on goods with zero
    marginal utility is allowed.

    x is a collection of (good, amount) pairs in integers on the caller's
    unit Q, a multiple of d.den: a priced good k counts 1/(Q * P_k), so its
    amount is also its money in units of 1/(Q * D), and a free good counts
    1/Q.  x is compared with the canonical bundle c = `canonical_amounts(d,
    P)` scaled by Q // d.den, entry by entry; c is optimal, so an x equal to
    it is in demand, and costs and utilities are looked at only when x
    differs.  Then x's money, an int, must be at most the budget, and
    Fractions are built only on the goods where x and c differ, c's goods
    missing from x included: there the utility changes by f_k(x_k) -
    f_k(c_k), and U(x) == U(c) exactly when those terms sum to 0."""
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
    f = dict(trader.wanted)
    return sum((f[k](Fraction(w, Q * (P[k] or 1))) - f[k](Fraction(b, Q * (P[k] or 1)))
                for k, w, b in differ if k in f), Fraction(0)) == 0
