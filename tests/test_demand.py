import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcmarket.demand import Bundle, canonical_amounts, in_demand, int_demand, packed_fill, utility_change
from plcmarket.errors import UnboundedDemand
from plcmarket.games import validate_game
from plcmarket.model import PriceVector, ScaledTrader, TraderSpec, normalize_prices, prices
from plcmarket.plc import linear_plc, validate_plc
from plcmarket.reduction import build_reduced_market
from plcmarket.regulating import build_mn

from oracles import (
    bundle_in_demand,
    canonical_bundle,
    dense_budget,
    dense_cost,
    dense_in_demand,
    dense_utility,
    dense_view,
    endowment_row,
    grid_max_utility,
    mixed_denominator_game_matrices,
    optimal_demand,
    own_scale_view,
    random_instance,
    random_market,
    random_sparse_game_matrices,
    tie_rich_market,
    trader_slices,
)


def _core(t, p):
    """The demand core's answer for t at p, on t's own-scale view."""
    return int_demand(own_scale_view(t), p.scaled[1])


def linear_trader(endow, slopes):
    return TraderSpec(
        enumerate(F(w) for w in endow), enumerate(linear_plc(s) for s in slopes)
    )


def test_budget_examples():
    t = linear_trader([F(1, 2), 0], [2, 1])
    assert optimal_demand(t, prices([2, 1])).budget == 1
    assert optimal_demand(linear_trader([0, 0], [1, 1]), prices([2, 1])).budget == 0


def test_budget_of_reduced_market_gadget_trader():
    # u = (1, 2, 1) at n = 2 with unit prices: 1/16 + sum(C)/32 + E/32
    game = validate_game([[1, F(-1, 2)], [0, F(1, 4)]], [[0, 0], [0, 0]])
    market, meta = build_reduced_market(game)
    u_trader = market.traders[trader_slices(meta)["u"][0]]
    assert u_trader.label == "U(1,2)"
    p = prices([1] * 6)
    # C = positive part of A_1 - A_2 = (1, 0), E = 0 here; dot product must agree
    expected = F(1, 16) + F(1, 32)
    assert optimal_demand(u_trader, p).budget == expected
    assert sum(w * q for w, q in zip(endowment_row(u_trader, 6), p.prices)) == expected


def test_strictly_better_rate_goes_forced():
    t = linear_trader([1, 0], [2, 1])
    d = optimal_demand(t, prices([1, 1]))
    assert dense_view(canonical_bundle(d).amounts, 2) == (F(1), F(0))
    assert d.cutoff_rate == 2 and not dense_view(d.forced, 2)[1]


def test_equal_rates_form_tie():
    t = linear_trader([1, 0], [2, 1])
    d = optimal_demand(t, prices([2, 1]))
    assert dense_view(d.forced, 2) == (F(0), F(0))
    assert d.cutoff_rate == 1
    assert [(o.good, o.segment) for o in d.tie_offers] == [(0, 0), (1, 0)]
    assert d.tie_spend == 2
    assert dense_view(canonical_bundle(d).amounts, 2) == (F(1), F(0))  # lexicographic fill
    # all-money-on-the-other-good is also optimal
    assert bundle_in_demand(t, prices([2, 1]), _core(t, prices([2, 1])), Bundle(((1, F(2)),)))


def test_greedy_across_segments():
    t = TraderSpec([(0, F(5))], [(0, validate_plc([3, 1], [2])), (1, linear_plc(2))])
    d = optimal_demand(t, prices([1, 1]))
    assert dense_view(canonical_bundle(d).amounts, 2) == (F(2), F(3))  # rates 3 > 2 > 1


def test_zero_budget_yields_zero_bundle():
    t = linear_trader([0, 0], [2, 1])
    d = optimal_demand(t, prices([1, 1]))
    assert d.budget == 0 and d.tie_spend == 0
    assert dense_view(canonical_bundle(d).amounts, 2) == (F(0), F(0))
    assert bundle_in_demand(t, prices([1, 1]), _core(t, prices([1, 1])), Bundle(()))


def test_unbounded_demand_on_free_wanted_good():
    t = linear_trader([1, 0], [2, 1])
    with pytest.raises(UnboundedDemand):
        optimal_demand(t, prices([1, 0]))


def test_free_satiated_good_is_forced_at_satiation():
    t = TraderSpec([(0, F(1))], [(0, linear_plc(1)), (1, validate_plc([2, 0], [3]))])
    d = optimal_demand(t, prices([1, 0]))
    assert dense_view(d.forced, 2)[1] == 3
    b = canonical_bundle(d)
    assert dense_view(b.amounts, 2) == (F(1), F(3))
    assert bundle_in_demand(t, prices([1, 0]), _core(t, prices([1, 0])), b)
    # skipping the free satiated quantity is not optimal
    assert not bundle_in_demand(t, prices([1, 0]), _core(t, prices([1, 0])), Bundle(((0, F(1)),)))


def test_overspent_bundle_not_in_opt():
    t = linear_trader([1, 0], [2, 1])
    assert not bundle_in_demand(t, prices([1, 1]), _core(t, prices([1, 1])), Bundle(((0, F(2)),)))


def test_residual_spending_allowed_in_opt():
    # both goods satiated: cutoff 0, residual money may buy zero-utility amounts
    t = TraderSpec([(0, F(4))], [(0, validate_plc([2, 0], [1])), (1, validate_plc([1, 0], [1]))])
    p = prices([1, 1])
    d = optimal_demand(t, p)
    assert d.cutoff_rate == 0
    assert dense_view(d.forced, 2) == (F(1), F(1))
    assert d.tie_spend == 2  # residual ceiling
    assert dense_view(canonical_bundle(d).amounts, 2) == (F(1), F(1))
    assert bundle_in_demand(t, p, _core(t, p), Bundle(((0, F(2)), (1, F(2)))))  # burns residual, same utility
    assert not bundle_in_demand(t, p, _core(t, p), Bundle(((0, F(3)), (1, F(2)))))  # over budget


def test_full_spend_law_and_rate_partition():
    rng = random.Random(17)
    for _ in range(150):
        m = random_market(rng)
        p = prices(
            [F(rng.randint(1, 16), 8) for _ in range(m.n_goods)]
        )
        for i, t in enumerate(m.traders):
            d = optimal_demand(t, p, i)
            cost = sum(q * p.prices[k] for k, q in enumerate(dense_view(d.forced, m.n_goods)))
            if d.cutoff_rate > 0:
                assert d.tie_spend == d.budget - cost
                assert all(o.rate == d.cutoff_rate for o in d.tie_offers)
                b = canonical_bundle(d)
                assert dense_cost(dense_view(b.amounts, m.n_goods), p) == d.budget  # all money spent
            else:
                assert cost + d.tie_spend == d.budget
            assert bundle_in_demand(t, p, _core(t, p), canonical_bundle(d))


def test_rate_partition_around_cutoff():
    # forced purchases are exactly the segments strictly above the cutoff;
    # segments strictly below it contribute nothing, even in the canonical fill
    rng = random.Random(19)
    for _ in range(150):
        m = random_market(rng)
        p = prices([F(rng.randint(1, 16), 8) for _ in range(m.n_goods)])
        for i, t in enumerate(m.traders):
            d = optimal_demand(t, p, i)
            x = dense_view(canonical_bundle(d).amounts, m.n_goods)
            forced = dense_view(d.forced, m.n_goods)
            for k, f in t.wanted:
                if f.is_zero or p.prices[k] == 0:
                    continue
                above = F(0)  # mass of segments with rate > cutoff
                ceiling = above  # highest level reachable at rate >= cutoff
                for s, theta in enumerate(f.slopes):
                    end = f.breaks[s] if s < len(f.breaks) else None
                    rate = theta / p.prices[k]
                    if rate > d.cutoff_rate:
                        assert end is not None  # an uncapped better offer would move the cutoff
                        above = end
                        ceiling = end
                    elif rate == d.cutoff_rate and d.cutoff_rate > 0:
                        ceiling = end  # None = uncapped cutoff segment
                assert forced[k] == above
                if d.cutoff_rate > 0 and ceiling is not None:
                    assert x[k] <= ceiling


def test_scale_invariance():
    rng = random.Random(23)
    for _ in range(100):
        m = random_market(rng)
        vec = [F(rng.randint(1, 16), 8) for _ in range(m.n_goods)]
        c = F(rng.randint(1, 12), rng.randint(1, 12))
        for t in m.traders:
            d1 = optimal_demand(t, prices(vec))
            d2 = optimal_demand(t, prices([c * v for v in vec]))
            assert d1.forced == d2.forced
            assert canonical_bundle(d1).amounts == canonical_bundle(d2).amounts
            assert [(o.good, o.segment) for o in d1.tie_offers] == [
                (o.good, o.segment) for o in d2.tie_offers
            ]


def test_oracle_optimality_small_random():
    rng = random.Random(29)
    checked = 0
    while checked < 40:
        m = random_market(rng, max_goods=2, max_traders=1)
        t = m.traders[0]
        p = prices([F(rng.randint(4, 16), 8) for _ in range(m.n_goods)])
        if dense_budget(t, p) > 1:
            continue
        d = optimal_demand(t, p)
        util = dense_utility(t, dense_view(canonical_bundle(d).amounts, m.n_goods))
        assert util >= grid_max_utility(t, p)
        checked += 1


def _rationals(v, P, i):
    """The core's answer on view v at P with every int divided by v.den, so
    answers on two scales compare equal (money stays in units of 1/D, the
    canonical fill of good k in units of 1/P_k), or the UnboundedDemand's
    message."""
    try:
        d = int_demand(v, P, i)
    except UnboundedDemand as exc:
        return str(exc)
    return (
        {k: F(x, d.den) for k, x in d.forced.items()},
        [(k, s, None if cap is None else F(cap, d.den)) for k, s, cap in d.ties],
        F(d.spend, d.den),
        F(d.budget, d.den),
        {k: F(x, d.den) for k, x in canonical_amounts(d, P).items()},
    )


@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["random", "tie-rich", "mn", "reduced", "mixed"]))
@settings(max_examples=60)
def test_market_view_and_own_scale_view_give_one_demand(seed, family):
    """On every trader, the core answers on its row of the market's view
    (one scale for all traders) with the rationals it gives on the trader's
    own scale: forced amounts, tie caps, spend, budget and canonical fill.
    Reduced markets of mixed-denominator games put traders of unlike
    scales in one market; prices hold zeros a quarter of the time."""
    rng = random.Random(seed)
    if family == "random":
        m = random_market(rng, max_goods=4, max_traders=4)
    elif family == "tie-rich":
        m = tie_rich_market(rng, [F(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))])
    elif family == "mn":
        m = build_mn(rng.randint(2, 6))
    else:
        game = random_sparse_game_matrices if family == "reduced" else mixed_denominator_game_matrices
        m, _ = build_reduced_market(validate_game(*game(rng, rng.randint(2, 3))))
    vec = [F(0) if rng.random() < 0.25 else F(rng.randint(1, 16), rng.choice([1, 3, 8])) for _ in range(m.n_goods)]
    vec[rng.randrange(m.n_goods)] = F(1)
    P = PriceVector(tuple(vec)).scaled[1]
    assert len(m.view) == len(m.traders) and {v.den for v in m.view} == {m.scaled[0]}
    for i, t in enumerate(m.traders):
        assert _rationals(m.view[i], P, i) == _rationals(own_scale_view(t), P, i)


def _bundles_around(d, P, Q, n, rng):
    """Integer bundles on unit Q, as `in_demand` takes them: the canonical
    fill, the fill with tie money moved between two tie goods, one entry
    moved by one unit, and a random bundle."""
    c = {k: x * (Q // d.den) for k, x in canonical_amounts(d, P).items()}
    yield c
    priced = [k for k, _, _ in d.ties if P[k]]
    if len(priced) > 1:
        a, b = rng.sample(priced, 2)
        if c.get(a):
            moved = rng.randint(1, c[a])
            yield {**c, a: c[a] - moved, b: c.get(b, 0) + moved}
    k = rng.randrange(n)
    yield {**c, k: max(0, c.get(k, 0) + rng.choice([-1, 1]))}
    yield {k: rng.randint(0, 3 * Q * (P[k] or 1)) for k in rng.sample(range(n), rng.randint(0, n))}


@given(seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["random", "tie-rich", "mn", "reduced", "coprime", "reduced-n"]))
def test_integer_utility_change_matches_the_fraction_pieces(seed, family):
    """`in_demand` sums a witness's utility change in integers on a row of
    the market's view (`utility_change`).  On random integer bundles x and
    c, the sum equals f(x) - f(c) over the Fraction pieces, on the unit
    1/(Q * S * L) it names; and `in_demand` on the view agrees with
    `dense_in_demand` on bundles around canonical demand.  Every instance
    family, and reduced markets at n = 2-4."""
    rng = random.Random(seed)
    if family == "reduced-n":
        m, _ = build_reduced_market(validate_game(*random_sparse_game_matrices(rng, rng.randint(2, 4))))
        p = normalize_prices(PriceVector(tuple(F(rng.randint(7, 17), 8) for _ in range(m.n_goods))))
    else:
        m, p = random_instance(rng, family)
    n, P = m.n_goods, p.scaled[1]
    S = math.lcm(*[s.denominator for t in m.traders for _, f in t.wanted for s in f.slopes])
    Q = m.scaled[0] * rng.randint(1, 3)
    for i, (t, v) in enumerate(zip(m.traders, m.view)):
        pieces = dict(t.wanted)
        goods = rng.sample(range(n), rng.randint(1, n))
        differ = [(k, rng.randint(0, 3 * Q * (P[k] or 1)), rng.randint(0, 3 * Q * (P[k] or 1))) for k in goods]
        L = math.lcm(*[P[k] or 1 for k in goods])
        change = sum((pieces[k](F(x, Q * (P[k] or 1))) - pieces[k](F(c, Q * (P[k] or 1)))
                      for k, x, c in differ if k in pieces), F(0))
        assert utility_change(v, P, differ, Q) == change * Q * S * L
        try:
            d = int_demand(v, P, i)
        except UnboundedDemand:
            continue
        ds = optimal_demand(t, p, i)
        for x in _bundles_around(d, P, Q, n, rng):
            dense = [F(x.get(k, 0), Q * (P[k] or 1)) for k in range(n)]
            assert in_demand(v, p, d, x.items(), Q) == dense_in_demand(t, p, ds, dense)


def _fill_shifts(v, P):
    """Field offsets for v's packed fill at P, as the grid walk sets them: a
    priced good's fill is money the trader has, a free good's a satiation
    amount, so a field of the bit length of their sum never carries."""
    money = sum(w * P[k] for k, w in v.owned)
    width = max(1, (money + sum(s for _, s, _ in v.wanted if s is not None)).bit_length())
    return [width * k for k in range(len(P))]


def _packed_fills(v, P, shifts, i, scales):
    """The core's canonical fill of v at P packed on shifts, then
    `packed_fill`'s on the rate scale of each common multiple L of the
    positive P_k in scales; an UnboundedDemand's (trader, good) in place of
    a fill."""
    fills = []
    try:
        x = canonical_amounts(int_demand(v, P, i), P)
        fills.append(sum(a << shifts[k] for k, a in x.items()))
    except UnboundedDemand as exc:
        fills.append((exc.trader, exc.good))
    for L in scales:
        try:
            fills.append(packed_fill(v, P, [L // q if q else 0 for q in P], shifts, i))
        except UnboundedDemand as exc:
            fills.append((exc.trader, exc.good))
    return fills


@given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["random", "tie-rich", "coprime"]))
def test_packed_fill_matches_the_demand_core(seed, family):
    """The grid walk's kernel gives every trader's canonical fill, packed,
    as `canonical_amounts(int_demand(...))` does, or raises the same
    UnboundedDemand, on the rate scales of two common multiples of the
    prices, so its offer order does not depend on the scale.  Random
    markets get prices with zero entries and mixed denominators; tie-rich
    and coprime ones their own prices, where offers of several goods tie."""
    rng = random.Random(seed)
    if family == "random":
        m = random_market(rng, max_goods=4, max_traders=4)
        vec = [F(0) if rng.random() < 0.25 else F(rng.randint(1, 16), rng.choice([1, 3, 8])) for _ in range(m.n_goods)]
        vec[rng.randrange(m.n_goods)] = F(rng.randint(1, 16), rng.choice([1, 3, 8]))
        p = PriceVector(tuple(vec))
    else:
        m, p = random_instance(rng, family)
    P = p.scaled[1]
    L = math.lcm(*[q for q in P if q])
    for i, v in enumerate(m.view):
        reference, *fills = _packed_fills(v, P, _fill_shifts(v, P), i, [L, L * rng.randint(2, 30)])
        assert fills == [reference, reference]


def test_packed_fill_gives_an_uncapped_tie_to_the_first_good():
    """Two uncapped offers tie at one rate: the whole budget, 3 * 2, goes to
    the first good, as the core's tie order fills it."""
    v = ScaledTrader(1, ((0, 3),), ((1, None, ((0, 4, None),)), (2, None, ((0, 2, None),))))
    P = [2, 2, 1]
    shifts = _fill_shifts(v, P)
    reference, fill = _packed_fills(v, P, shifts, 0, [2])
    assert fill == reference == 6 << shifts[1]


def test_packed_fill_stops_in_the_middle_of_a_tie_group():
    """The budget is 3 * 3.  Good 0's first segment is bought whole for 2;
    goods 1 and 2 tie below it, and the 7 left buys good 1's cap of 2 for 4
    and spends its last 3 on good 2, whose cap would cost 12, so good 0's
    uncapped second segment gets nothing."""
    v = ScaledTrader(1, ((3, 3),), ((0, None, ((0, 6, 1), (1, 1, None))),
                                    (1, None, ((0, 2, 2),)), (2, None, ((0, 4, 3),))))
    P = [2, 2, 4, 3]
    shifts = _fill_shifts(v, P)
    reference, fill, fill_rescaled = _packed_fills(v, P, shifts, 0, [12, 36])
    assert fill == fill_rescaled == reference == (2 << shifts[0]) + (4 << shifts[1]) + (3 << shifts[2])


def test_packed_fill_of_a_zero_budget_trader():
    """A trader who owns nothing buys nothing priced, takes a free good's
    satiation amount, and has unbounded demand when a free good it wants
    never satiates."""
    v = ScaledTrader(2, (), ((0, None, ((0, 3, None),)), (1, 5, ((0, 1, 5),))))
    shifts = _fill_shifts(v, [1, 0])
    reference, fill = _packed_fills(v, [1, 0], shifts, 7, [1])
    assert fill == reference == 5 << shifts[1]
    assert _packed_fills(v, [1, 1], shifts, 7, [1]) == [0, 0]
    assert _packed_fills(v, [0, 1], shifts, 7, [1]) == [(7, 0), (7, 0)]
