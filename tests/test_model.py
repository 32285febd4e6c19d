import random
from fractions import Fraction as F

import pytest

from plcmarket.clearing import EXACT, verify
from plcmarket.demand import Bundle
from plcmarket.errors import AllZeroPrices, InputError, InvalidMarket, InvalidPriceVector
from plcmarket.games import MixedStrategy, mixed, validate_game
from plcmarket.model import (
    Market,
    PriceVector,
    TraderSpec,
    classify_market,
    is_strongly_connected,
    normalize_prices,
    prices,
)
from plcmarket.plc import linear_plc, validate_plc
from plcmarket.regulating import build_mn
from plcmarket.search import unit_box

from oracles import dense_strongly_connected


def test_normalize_examples():
    assert normalize_prices(prices([2, 4])).prices == (F(1), F(2))
    assert normalize_prices(prices([0, 3])).prices == (F(0), F(1))
    assert normalize_prices(prices([1, 1])).prices == (F(1), F(1))


def test_int_prices_stay_exact():
    p = PriceVector((1, 2))
    assert p.prices == (F(1), F(2)) and all(type(q) is F for q in p.prices)
    assert all(type(q) is F for q in normalize_prices(PriceVector((2, 4))).prices)
    m = build_mn(2)
    assert verify(m, p, EXACT) == verify(m, prices([F(1), F(2)]), EXACT)


@pytest.mark.parametrize("value", [0.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("build", [
    lambda v: PriceVector((v, 1)),
    lambda v: TraderSpec([(0, v), (1, 1)], [(1, linear_plc(1))]),
    lambda v: prices([v, 1]),
    lambda v: MixedStrategy((v, 1 - v)),
    lambda v: mixed([v, 1 - v]),
    lambda v: linear_plc(v),
    lambda v: validate_plc([2, 1], [v]),
    lambda v: validate_game([[v]], [[0]]),
    lambda v: unit_box(2, v, 2),
    lambda v: Bundle(((0, v),)),
], ids=["PriceVector", "TraderSpec", "prices", "MixedStrategy", "mixed", "linear_plc", "validate_plc",
        "validate_game", "unit_box", "Bundle"])
def test_public_constructors_take_exact_rationals_only(build, value):
    with pytest.raises(InputError):
        build(value)


def test_bundle_goods_are_distinct_ints_in_ascending_order():
    assert Bundle(((2, 1), (0, F(1, 2)))).amounts == ((0, F(1, 2)), (2, F(1)))
    for pairs in (((1, F(1, 2)), (1, F(1, 2))), ((True, F(1)),), (("0", F(1)),)):
        with pytest.raises(InvalidMarket):
            Bundle(pairs)


def test_normalize_idempotent_and_scale_invariant():
    rng = random.Random(3)
    for _ in range(100):
        vec = [F(rng.randint(0, 12), rng.randint(1, 8)) for _ in range(rng.randint(1, 5))]
        if all(v == 0 for v in vec):
            continue
        p = normalize_prices(prices(vec))
        assert normalize_prices(p).prices == p.prices
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        assert normalize_prices(prices([c * v for v in vec])).prices == p.prices


def test_price_vector_validation():
    with pytest.raises(AllZeroPrices):
        prices([0, 0])
    with pytest.raises(InvalidPriceVector):
        prices([-1, 2])
    with pytest.raises(InvalidPriceVector):
        prices([2, 3], normalized=True)
    assert prices([1, 3], normalized=True).normalized


def test_market_validation():
    t = TraderSpec([(1, F(1))], [(0, linear_plc(1))])
    with pytest.raises(InvalidMarket):
        Market(1, (t,))  # a good outside the market
    with pytest.raises(InvalidMarket):
        Market(1, (TraderSpec([(0, F(-1))], []),))
    with pytest.raises(InvalidMarket):
        Market(1, (TraderSpec([(0, F(0))], []),))  # no supply anywhere


def test_trader_is_its_nonzeros_sorted_by_good():
    t = TraderSpec([(2, "1/2"), (0, 1), (1, 0)], [(1, linear_plc(1)), (0, validate_plc([], []))])
    assert t.owned == ((0, F(1)), (2, F(1, 2)))
    assert t.wanted == ((1, linear_plc(1)),)
    assert TraderSpec(enumerate([F(1), F(0)]), enumerate([linear_plc(1), validate_plc([], [])])) == (
        TraderSpec([(0, F(1))], [(0, linear_plc(1))])
    )


@pytest.mark.parametrize("owned, wanted", [
    ([(0, 1), (0, 2)], []),
    ([(0, 0), (0, 1)], []),
    ([(0, 1)], [(1, linear_plc(1)), (1, linear_plc(2))]),
    ([("0", 1)], []),
    ([(True, 1)], []),
    ([(F(0), 1)], []),
    ([(0, 1)], [(1.0, linear_plc(1))]),
], ids=["repeated-owned", "repeated-with-zero", "repeated-wanted", "str", "bool", "fraction", "float"])
def test_trader_goods_must_be_distinct_ints(owned, wanted):
    with pytest.raises(InvalidMarket):
        TraderSpec(owned, wanted)


@pytest.mark.parametrize("owned, wanted", [
    ([(2, 1)], []),
    ([(0, 1), (-1, 1)], []),
    ([(0, 1)], [(2, linear_plc(1))]),
], ids=["owned-past-the-end", "owned-negative", "wanted-past-the-end"])
def test_market_goods_must_lie_in_range(owned, wanted):
    with pytest.raises(InvalidMarket):
        Market(2, (TraderSpec([(0, 1)], []), TraderSpec(owned, wanted)))


def test_economy_graph_m2():
    assert is_strongly_connected(build_mn(2))


def test_economy_graph_no_edge_to_indifferent_trader():
    a = TraderSpec([(0, F(1))], [(0, linear_plc(1))])
    b = TraderSpec([(1, F(1))], [])
    m = Market(2, (a, b))
    assert is_strongly_connected(m) is False  # b wants nothing, so nothing reaches b
    assert dense_strongly_connected(m) is False


def test_single_trader_graph():
    m = Market(1, (TraderSpec([(0, F(1))], [(0, linear_plc(1))]),))
    assert is_strongly_connected(m)
    assert dense_strongly_connected(m)


def test_two_isolated_traders():
    a = TraderSpec([(0, F(1))], [(0, linear_plc(1))])
    b = TraderSpec([(1, F(1))], [(1, linear_plc(1))])
    assert not is_strongly_connected(Market(2, (a, b)))


def test_one_way_markets_are_not_strongly_connected():
    # 0 -> 1 only: a forward search from trader 0 alone would accept both
    a = TraderSpec([(0, F(1))], [])
    b = TraderSpec([(1, F(1))], [(0, linear_plc(1))])
    assert not is_strongly_connected(Market(2, (a, b)))
    # b owns nothing, so its utility piece on good 0 is no edge b -> a
    a = TraderSpec([(0, F(1))], [(0, linear_plc(1))])
    b = TraderSpec([], [(0, linear_plc(1))])
    assert not is_strongly_connected(Market(1, (a, b)))
    assert is_strongly_connected(Market(1, (a, a)))


def test_mn_strongly_connected_range():
    for n in range(2, 9):
        m = build_mn(n)
        assert is_strongly_connected(m)
        assert dense_strongly_connected(m)


def test_every_exported_name_resolves():
    import plcmarket

    assert [name for name in plcmarket.__all__ if not hasattr(plcmarket, name)] == []


def test_classify_mn():
    rep = classify_market(build_mn(4), 2, 2)
    assert rep.all_ok
    assert rep.alpha_bound == 2
    assert rep.sparsity_t == 2


@pytest.mark.parametrize("alpha, t", [(0.5, 23), (True, 23), (27, 2.5), (27, True), (27, "23")],
                         ids=["float-alpha", "bool-alpha", "float-t", "bool-t", "str-t"])
def test_classify_takes_exact_bounds_only(alpha, t):
    with pytest.raises(InputError):
        classify_market(build_mn(2), alpha, t)


def test_classify_fractional_slope_breaks_alpha():
    t = TraderSpec([(0, F(1))], [(0, validate_plc([F(1, 2)], []))])
    rep = classify_market(Market(1, (t,)), 27, 23)
    assert rep.alpha_bound is None
    assert not rep.alpha_ok


def test_classify_three_segments_not_2_linear():
    t = TraderSpec([(0, F(1))], [(0, validate_plc([3, 2, 1], [1, 2]))])
    rep = classify_market(Market(1, (t,)), 27, 23)
    assert not rep.is_2_linear


def test_classify_agrees_with_definitional_predicates():
    from oracles import random_market

    rng = random.Random(13)
    alpha, t_limit = F(4), 2
    for _ in range(60):
        m = random_market(rng)
        rep = classify_market(m, alpha, t_limit)
        nonzero = [f for tr in m.traders for _, f in tr.wanted if not f.is_zero]
        assert rep.is_2_linear == all(len(f.slopes) <= 2 for f in nonzero)
        assert rep.alpha_ok == all(
            f.slopes[0] <= alpha and f.slopes[-1] >= 1 for f in nonzero
        )
        assert rep.sparsity_ok == all(
            sum(1 for _, w in tr.owned if w > 0) <= t_limit
            and sum(1 for _, f in tr.wanted if not f.is_zero) <= t_limit
            for tr in m.traders
        )
