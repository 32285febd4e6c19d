"""Per-trader demand oracle.

At prices p a trader sells her endowment for a budget and buys greedily by
bang-per-buck: each positive-slope utility segment of good j is an offer with
rate slope/p_j and a quantity cap (the last segment of a strictly monotone
piece is uncapped).  Offers strictly above the cutoff rate are bought in
full, offers below it get nothing, and offers exactly at the cutoff form a
tie frontier over which the remaining money must be spread.  The resulting
description is the trader's entire optimal-bundle set, not just one optimum.
Forced purchases and bundles are their nonzeros, (good, amount) pairs in
ascending good order like a trader's ``owned``; no N-length row is built.

* ``cutoff_rate > 0``: every optimal bundle equals ``forced`` plus some split
  of ``tie_spend`` money over ``tie_offers`` within their caps.
* ``cutoff_rate == 0``: all productive segments were affordable; optimal
  bundles are ``forced`` plus arbitrary zero-marginal-utility spending of up
  to ``tie_spend`` residual money on positively priced goods.
* goods with zero price and a satiated utility piece appear in ``forced`` at
  their satiation point and may be topped up for free without utility change.

A zero price on a strictly monotone piece means no optimal bundle exists and
raises UnboundedDemand.

The greedy runs once, in integers: `int_demand` reads the trader's cached
integer view (amounts in units of 1/M, slopes over their lcm) and the prices
as P_k / D with one D, so budgets, group costs and tie spend are ints in
units of 1/(M * D), and rates slope / p_k are compared as ints.
`optimal_demand`, the public oracle, is the Fraction view of that answer;
`verify` hands the integers to the circulation as they are.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidMarket, UnboundedDemand
from .model import PriceVector, TraderSpec
from .rational import parse_rational


@dataclass(frozen=True)
class SegmentOffer:
    good: int
    segment: int
    rate: Fraction
    quantity_cap: Fraction | None  # None = uncapped last segment
    unit_cost: Fraction


@dataclass(frozen=True)
class Bundle:
    """A bundle as (good, amount) pairs, checked on construction as
    `TraderSpec` checks its pairs: amounts are parsed with `parse_rational`
    (floats and bools raise InputError), a good that is not an int (a bool
    included) or that is listed twice raises InvalidMarket, and the pairs
    are sorted by good.  Zero and negative amounts are kept; `in_demand`
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


@dataclass(frozen=True)
class DemandSet:
    forced: tuple[tuple[int, Fraction], ...]  # (good, amount), ascending good
    cutoff_rate: Fraction
    tie_offers: tuple[SegmentOffer, ...]
    tie_spend: Fraction  # mandatory at the cutoff; residual ceiling when cutoff_rate == 0
    budget: Fraction


def budget(trader: TraderSpec, p: PriceVector) -> Fraction:
    q = p.prices
    return sum((w * q[k] for k, w in trader.owned), Fraction(0))


class IntDemand(NamedTuple):
    """The demand core's answer at prices P / D for a trader with integer
    view v: amounts in units of 1/v.den and money in units of 1/(v.den * D).
    ``rate`` is the cutoff rate in units of D / rate_den, 0 when every
    productive segment was bought; ``ties`` lists the tie offers
    as (good, segment, cap) in (good, segment) order, cap None if uncapped."""

    den: int
    forced: dict[int, int]
    rate: int
    rate_den: int
    ties: list[tuple[int, int, int | None]]
    spend: int
    budget: int


def int_demand(trader: TraderSpec, P, trader_idx: int | None = None) -> IntDemand:
    """The demand core on integers: prices P_k / D, with D left out.

    Rates slope / p_k are compared as s * (L // P_k), L the lcm of the
    positive prices the trader wants, which orders them as the rates do."""
    v = trader.scaled
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
        return IntDemand(v.den, forced, rate, v.slope_den * L, group, remaining, money)
    return IntDemand(v.den, forced, 0, 1, [], remaining, money)


def demand_set(d: IntDemand, p: PriceVector) -> DemandSet:
    """The Fraction view of the core's answer d at prices p."""
    D = p.scaled[0]
    den = d.den
    rate = Fraction(d.rate * D, d.rate_den)
    ties = tuple(
        SegmentOffer(k, i, rate, None if cap is None else Fraction(cap, den), p.prices[k])
        for k, i, cap in d.ties
    )
    return DemandSet(
        forced=tuple((k, Fraction(x, den)) for k, x in sorted(d.forced.items())),
        cutoff_rate=rate,
        tie_offers=ties,
        tie_spend=Fraction(d.spend, den * D),
        budget=Fraction(d.budget, den * D),
    )


def optimal_demand(
    trader: TraderSpec, p: PriceVector, trader_idx: int | None = None
) -> DemandSet:
    """Compute the trader's optimal-bundle set at prices p: the Fraction
    view of `int_demand`.

    Raises UnboundedDemand when a strictly wanted good has zero price.  A zero
    budget is not an error; it yields the all-zero purchase with tie_spend 0.
    """
    return demand_set(int_demand(trader, p.scaled[1], trader_idx), p)


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


def in_demand(trader: TraderSpec, p: PriceVector, d: DemandSet, x: Bundle) -> bool:
    """Membership test for the optimal-bundle set d of the trader at p:
    every good in range(len(p.prices)), no negative amount, budget-feasible,
    and utility equal to the greedy optimum.  Spending residual money on
    goods with zero marginal utility is allowed.  U(x) == U(c), c canonical,
    is decided exactly by summing f_k(x_k) - f_k(c_k) over the wanted goods
    with x_k != c_k: every other term is 0."""
    n = len(p.prices)
    if any(not 0 <= k < n or a < 0 for k, a in x.amounts) or x.cost(p) > d.budget:
        return False
    q, c = dict(x.amounts), dict(canonical_bundle(d).amounts)
    pairs = ((f, q.get(k, 0), c.get(k, 0)) for k, f in trader.wanted)
    return sum((f(a) - f(b) for f, a, b in pairs if a != b), Fraction(0)) == 0
