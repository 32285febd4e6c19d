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
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import UnboundedDemand
from .model import PriceVector, TraderSpec


@dataclass(frozen=True)
class SegmentOffer:
    good: int
    segment: int
    rate: Fraction
    quantity_cap: Fraction | None  # None = uncapped last segment
    unit_cost: Fraction


@dataclass(frozen=True)
class Bundle:
    amounts: tuple[tuple[int, Fraction], ...]  # (good, amount), ascending good

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


def _offers(trader: TraderSpec, p: PriceVector) -> list[SegmentOffer]:
    offers = []
    for k, f in trader.wanted:
        if p.prices[k] == 0:
            continue  # a wanted free good is forced or unbounded, see optimal_demand
        prev = Fraction(0)
        for i, theta in enumerate(f.slopes):
            if theta == 0:
                break  # only the last slope can be zero
            end = f.breaks[i] if i < len(f.breaks) else None
            cap = None if end is None else end - prev
            offers.append(SegmentOffer(k, i, theta / p.prices[k], cap, p.prices[k]))
            if end is None:
                break
            prev = end
    return offers


def optimal_demand(
    trader: TraderSpec, p: PriceVector, trader_idx: int | None = None
) -> DemandSet:
    """Compute the trader's optimal-bundle set at prices p.

    Raises UnboundedDemand when a strictly wanted good has zero price.  A zero
    budget is not an error; it yields the all-zero purchase with tie_spend 0.
    """
    forced: dict[int, Fraction] = {}
    for k, f in trader.wanted:
        if p.prices[k] == 0:
            if f.is_strictly_monotone:
                raise UnboundedDemand(trader_idx, k)
            forced[k] = f.satiation_point

    offers = _offers(trader, p)
    by_rate: dict[Fraction, list[SegmentOffer]] = {}
    for o in offers:
        by_rate.setdefault(o.rate, []).append(o)

    money = remaining = budget(trader, p)
    cutoff_rate = Fraction(0)
    tie_offers: tuple[SegmentOffer, ...] = ()
    for rate in sorted(by_rate, reverse=True):
        group = by_rate[rate]
        group_cost = Fraction(0)
        capped = True
        for o in group:
            if o.quantity_cap is None:
                capped = False
                break
            group_cost += o.quantity_cap * o.unit_cost
        if capped and group_cost <= remaining:
            for o in group:
                forced[o.good] = forced.get(o.good, 0) + o.quantity_cap
            remaining -= group_cost
            continue
        cutoff_rate = rate
        tie_offers = tuple(group)  # _offers emits (good, segment) order
        break

    return DemandSet(
        forced=tuple(sorted(forced.items())),
        cutoff_rate=cutoff_rate,
        tie_offers=tie_offers,
        tie_spend=remaining,
        budget=money,
    )


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
    return Bundle(tuple(sorted(x.items())))


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
