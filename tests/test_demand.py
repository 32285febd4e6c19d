import random
from fractions import Fraction as F

import pytest

from plcmarket.demand import Bundle, budget, canonical_bundle, in_demand, optimal_demand
from plcmarket.errors import UnboundedDemand
from plcmarket.games import validate_game
from plcmarket.model import TraderSpec, prices
from plcmarket.plc import linear_plc, validate_plc
from plcmarket.reduction import build_reduced_market

from oracles import dense_utility, dense_view, endowment_row, grid_max_utility, random_market


def linear_trader(endow, slopes):
    return TraderSpec(
        enumerate(F(w) for w in endow), enumerate(linear_plc(s) for s in slopes)
    )


def test_budget_examples():
    t = linear_trader([F(1, 2), 0], [2, 1])
    assert budget(t, prices([2, 1])) == 1
    assert budget(linear_trader([0, 0], [1, 1]), prices([2, 1])) == 0


def test_budget_of_reduced_market_gadget_trader():
    # u = (1, 2, 1) at n = 2 with unit prices: 1/16 + sum(C)/32 + E/32
    game = validate_game([[1, F(-1, 2)], [0, F(1, 4)]], [[0, 0], [0, 0]])
    market, meta = build_reduced_market(game)
    u_trader = market.traders[meta.trader_slices()["u"][0]]
    assert u_trader.label == "U(1,2)"
    p = prices([1] * 6)
    # C = positive part of A_1 - A_2 = (1, 0), E = 0 here; dot product must agree
    expected = F(1, 16) + F(1, 32)
    assert budget(u_trader, p) == expected
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
    assert in_demand(t, prices([2, 1]), optimal_demand(t, prices([2, 1])), Bundle(((1, F(2)),)))


def test_greedy_across_segments():
    t = TraderSpec([(0, F(5))], [(0, validate_plc([3, 1], [2])), (1, linear_plc(2))])
    d = optimal_demand(t, prices([1, 1]))
    assert dense_view(canonical_bundle(d).amounts, 2) == (F(2), F(3))  # rates 3 > 2 > 1


def test_zero_budget_yields_zero_bundle():
    t = linear_trader([0, 0], [2, 1])
    d = optimal_demand(t, prices([1, 1]))
    assert d.budget == 0 and d.tie_spend == 0
    assert dense_view(canonical_bundle(d).amounts, 2) == (F(0), F(0))
    assert in_demand(t, prices([1, 1]), optimal_demand(t, prices([1, 1])), Bundle(()))


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
    assert in_demand(t, prices([1, 0]), optimal_demand(t, prices([1, 0])), b)
    # skipping the free satiated quantity is not optimal
    assert not in_demand(t, prices([1, 0]), optimal_demand(t, prices([1, 0])), Bundle(((0, F(1)),)))


def test_overspent_bundle_not_in_opt():
    t = linear_trader([1, 0], [2, 1])
    assert not in_demand(t, prices([1, 1]), optimal_demand(t, prices([1, 1])), Bundle(((0, F(2)),)))


def test_residual_spending_allowed_in_opt():
    # both goods satiated: cutoff 0, residual money may buy zero-utility amounts
    t = TraderSpec([(0, F(4))], [(0, validate_plc([2, 0], [1])), (1, validate_plc([1, 0], [1]))])
    p = prices([1, 1])
    d = optimal_demand(t, p)
    assert d.cutoff_rate == 0
    assert dense_view(d.forced, 2) == (F(1), F(1))
    assert d.tie_spend == 2  # residual ceiling
    assert dense_view(canonical_bundle(d).amounts, 2) == (F(1), F(1))
    assert in_demand(t, p, d, Bundle(((0, F(2)), (1, F(2)))))  # burns residual, same utility
    assert not in_demand(t, p, d, Bundle(((0, F(3)), (1, F(2)))))  # over budget


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
                assert b.cost(p) == d.budget  # all money spent
            else:
                assert cost + d.tie_spend == d.budget
            assert in_demand(t, p, d, canonical_bundle(d))


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
        if budget(t, p) > 1:
            continue
        d = optimal_demand(t, p)
        util = dense_utility(t, dense_view(canonical_bundle(d).amounts, m.n_goods))
        assert util >= grid_max_utility(t, p)
        checked += 1
