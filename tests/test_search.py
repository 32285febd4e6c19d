import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import plcmarket.search
from plcmarket.errors import BoxDimensionMismatch, GridBudgetExceeded, InvalidMarket
from plcmarket.games import validate_game
from plcmarket.model import Market, TraderSpec
from plcmarket.plc import linear_plc
from plcmarket.reduction import build_reduced_market
from plcmarket.regulating import build_mn
from plcmarket.search import SearchConfig, search_equilibrium, unit_box

from oracles import random_market, reference_search


def _count_profiles(monkeypatch):
    calls = []
    profile = plcmarket.search.imbalance_profile

    def counted(*args):
        calls.append(args)
        return profile(*args)

    monkeypatch.setattr(plcmarket.search, "imbalance_profile", counted)
    return calls


def test_m2_grid_search_accepts():
    m = build_mn(2)
    cfg = SearchConfig(box=unit_box(2), grid_k=4, refine_rounds=0, epsilon=F(1, 2))
    rep = search_equilibrium(m, cfg)
    assert rep.accepted
    assert rep.best_price is not None and rep.best_price.normalized
    assert rep.certificate.accepted


def test_single_trader_score_zero():
    m = Market(1, (TraderSpec((F(1),), (linear_plc(1),)),))
    rep = search_equilibrium(m, SearchConfig(box=unit_box(1), grid_k=2, refine_rounds=1))
    assert rep.accepted
    assert rep.best_max_relative_imbalance == 0


def test_trace_non_increasing_on_reduced_game():
    game = validate_game([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    market, _ = build_reduced_market(game)
    n_goods = market.n_goods
    cfg = SearchConfig(
        box=unit_box(n_goods),
        grid_k=1,
        refine_rounds=2,
        epsilon=F(1, n_goods**13),
    )
    rep = search_equilibrium(market, cfg)
    scores = [s for _, s in rep.trace]
    assert len(scores) == 3
    for a, b in zip(scores, scores[1:]):
        if a is not None:
            assert b is not None and b <= a


def test_box_dimension_mismatch():
    with pytest.raises(BoxDimensionMismatch):
        search_equilibrium(build_mn(2), SearchConfig(box=unit_box(3)))


def test_bad_config_is_rejected_before_scoring(monkeypatch):
    calls = _count_profiles(monkeypatch)
    m = build_mn(2)
    with pytest.raises(GridBudgetExceeded):
        search_equilibrium(m, SearchConfig(box=unit_box(2), refine_rounds=-1))
    with pytest.raises(InvalidMarket):
        search_equilibrium(m, SearchConfig(box=unit_box(2), epsilon=F(-1, 2)))
    with pytest.raises(BoxDimensionMismatch):
        search_equilibrium(m, SearchConfig(box=unit_box(2, 0, 0)))
    assert calls == []


def test_grid_budget_cap():
    # 217^3 points exceed MAX_GRID_POINTS = 10^7; it raises before scoring
    with pytest.raises(GridBudgetExceeded):
        search_equilibrium(build_mn(3), SearchConfig(box=unit_box(3), grid_k=216))


def test_search_is_deterministic():
    m = build_mn(3)
    cfg = SearchConfig(box=unit_box(3), grid_k=2, refine_rounds=1, epsilon=F(1, 3))
    a = search_equilibrium(m, cfg)
    b = search_equilibrium(m, cfg)
    assert a.best_price.prices == b.best_price.prices
    assert a.trace == b.trace


def test_accepted_report_revalidates():
    from plcmarket.clearing import APPROXIMATE, verify

    m = build_mn(2)
    rep = search_equilibrium(m, SearchConfig(box=unit_box(2), grid_k=3, epsilon=F(1, 2)))
    assert rep.accepted
    assert verify(m, rep.best_price, APPROXIMATE, F(1, 2)).accepted


def test_unshrinkable_box_is_scored_once(monkeypatch):
    # at grid_k 1 one grid step around any corner is the whole box again
    market, _ = build_reduced_market(validate_game([[1, 0], [0, 1]], [[1, 0], [0, 1]]))
    assert market.n_goods == 6
    calls = _count_profiles(monkeypatch)
    cfg = SearchConfig(box=unit_box(6), grid_k=1, refine_rounds=2, epsilon=F(1, 6**13))
    rep = search_equilibrium(market, cfg)
    assert len(calls) == 2**6
    assert len(rep.trace) == 3


@given(
    seed=st.integers(0, 2**32 - 1),
    grid_k=st.integers(1, 3),
    rounds=st.integers(0, 3),
    lo=st.sampled_from([F(0), F(1, 2), F(1)]),
    eps=st.sampled_from([F(0), F(1, 4), F(1, 2)]),
)
def test_search_matches_reference(seed, grid_k, rounds, lo, eps):
    market = random_market(random.Random(seed))
    cfg = SearchConfig(unit_box(market.n_goods, lo, 2), grid_k, rounds, eps)
    got, want = search_equilibrium(market, cfg), reference_search(market, cfg)
    assert got.best_price == want.best_price
    assert got.best_max_relative_imbalance == want.best_max_relative_imbalance
    assert got.trace == want.trace
    assert got.accepted == want.accepted
