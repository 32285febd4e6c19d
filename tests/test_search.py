import contextlib
import inspect
import random
import sys
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import plcmarket.search
from plcmarket.errors import BoxDimensionMismatch, GridBudgetExceeded, InputError, InvalidMarket
from plcmarket.games import validate_game
from plcmarket.model import Market, PriceVector, TraderSpec, normalize_prices
from plcmarket.plc import linear_plc, validate_plc
from plcmarket.reduction import build_reduced_market
from plcmarket.regulating import build_mn
from plcmarket.search import (
    MAX_REFINE_ROUNDS,
    SearchConfig,
    search_equilibrium,
    unit_box,
)
from plcmarket.serialize import dumps, search_report_to_obj

from oracles import (
    axis_points,
    endowment_row,
    grid_walk,
    random_market,
    random_sparse_game_matrices,
    reference_grid_scores,
    reference_search,
    utility_row,
)


def _count_scoring(monkeypatch):
    """Count the search's demand evaluations and the grid points it scores,
    the (idx, score) pairs `grid_scores` yields."""
    counts = {"demands": 0, "points": 0}
    packed_fill, walk = plcmarket.search.packed_fill, plcmarket.search.grid_scores

    def counted_demand(*args):
        counts["demands"] += 1
        return packed_fill(*args)

    def counted_points(*args):
        for pair in walk(*args):
            counts["points"] += 1
            yield pair

    monkeypatch.setattr(plcmarket.search, "packed_fill", counted_demand)
    monkeypatch.setattr(plcmarket.search, "grid_scores", counted_points)
    return counts


# the walk's code object, taken before any test wraps grid_scores
_WALK = plcmarket.search.grid_scores.__code__


@contextlib.contextmanager
def _count_visits():
    """Count the support visits of `grid_scores`: each visit reads one
    support's memo table once, at the line found by its text below.  A
    sys.settrace line counter on the walk's code object counts that line's
    runs, so the walk itself carries no hook."""
    lines, first = inspect.getsourcelines(_WALK)
    read = first + [line.strip() for line in lines].index("new = memos[g][keys[g]]")
    counts = {"visits": 0}

    def line_counter(frame, event, arg):
        if event == "line" and frame.f_lineno == read:
            counts["visits"] += 1
        return line_counter

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line_counter if frame.f_code is _WALK else None)
    try:
        yield counts
    finally:
        sys.settrace(previous)


def _flips(supports, sizes) -> list:
    """How often the walk moves each good's axis: the reflected mixed-radix
    Gray walk moves the good held by the most supports least, ties broken
    by good index, and the axis at place p of that order
    prod_{i <= p} |A_i| - prod_{i < p} |A_i| times."""
    held = [sum(k in s for s in supports) for k in range(len(sizes))]
    flips, before = [0] * len(sizes), 1
    for k in sorted(range(len(sizes)), key=lambda k: (-held[k], k)):
        flips[k], before = before * sizes[k] - before, before * sizes[k]
    return flips


def _in_product_order(m, axes):
    """The (p, score) pairs of the grid walk on Fraction axes, sorted by
    prices: every axis ascends, so this is the product order the reference
    walks in."""
    return sorted(grid_walk(m, axes), key=lambda ps: ps[0].prices)


def _support(trader, n_goods):
    return [
        k for k, (w, f) in enumerate(zip(endowment_row(trader, n_goods), utility_row(trader, n_goods)))
        if w > 0 or not f.is_zero
    ]


def test_m2_grid_search_accepts():
    m = build_mn(2)
    cfg = SearchConfig(box=unit_box(2), grid_k=4, refine_rounds=0, epsilon=F(1, 2))
    rep = search_equilibrium(m, cfg)
    assert rep.accepted
    assert rep.best_price is not None and rep.best_price.normalized
    assert rep.certificate.accepted


def test_single_trader_score_zero():
    m = Market(1, (TraderSpec([(0, F(1))], [(0, linear_plc(1))]),))
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
    counts = _count_scoring(monkeypatch)
    m = build_mn(2)
    with pytest.raises(GridBudgetExceeded):
        search_equilibrium(m, SearchConfig(box=unit_box(2), refine_rounds=-1))
    with pytest.raises(InvalidMarket):
        search_equilibrium(m, SearchConfig(box=unit_box(2), epsilon=F(-1, 2)))
    with pytest.raises(BoxDimensionMismatch):
        search_equilibrium(m, SearchConfig(box=unit_box(2, 0, 0)))
    with pytest.raises(InputError):
        search_equilibrium(m, SearchConfig(box=((F(1), 2.0), (F(1), F(2)))))
    with pytest.raises(InputError):
        search_equilibrium(m, SearchConfig(box=unit_box(2), epsilon=0.5))
    for bad in (1.5, "2", True):
        with pytest.raises(InputError):
            search_equilibrium(m, SearchConfig(box=unit_box(2), grid_k=bad))
        with pytest.raises(InputError):
            search_equilibrium(m, SearchConfig(box=unit_box(2), refine_rounds=bad))
    assert counts == {"demands": 0, "points": 0}


def test_refine_rounds_are_capped_before_scoring(monkeypatch):
    m = build_mn(2)
    rep = search_equilibrium(m, SearchConfig(box=unit_box(2), grid_k=1, refine_rounds=MAX_REFINE_ROUNDS))
    assert len(rep.trace) == MAX_REFINE_ROUNDS + 1
    counts = _count_scoring(monkeypatch)
    for rounds in (MAX_REFINE_ROUNDS + 1, 10**9):
        with pytest.raises(GridBudgetExceeded):
            search_equilibrium(m, SearchConfig(box=unit_box(2), grid_k=1, refine_rounds=rounds))
    assert counts == {"demands": 0, "points": 0}


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
    counts = _count_scoring(monkeypatch)
    cfg = SearchConfig(box=unit_box(6), grid_k=1, refine_rounds=2, epsilon=F(1, 6**13))
    rep = search_equilibrium(market, cfg)
    assert counts["points"] == 2**6
    assert len(rep.trace) == 3
    # at grid_k 2 a box keeps itself when the incumbent is its centre: M_2's
    # equilibrium (1, 1) on [0, 2]^2.  Each later shrink gives an equal
    # Fraction box, which compares equal to the box scored
    m = build_mn(2)
    cfg = SearchConfig(box=unit_box(2, 0, 2), grid_k=2, refine_rounds=0)
    counts.update(demands=0, points=0)
    search_equilibrium(m, cfg)
    once = dict(counts)
    rep = search_equilibrium(m, SearchConfig(box=cfg.box, grid_k=2, refine_rounds=3))
    assert rep.best_price.prices == (1, 1)
    assert counts == {key: 2 * value for key, value in once.items()}


def test_grid_pass_evaluates_each_support_price_once(monkeypatch):
    # a trader's demand is computed once per price vector on its support,
    # not once per grid point: 200 evaluations instead of 38 * 2^6 = 2,432
    market, _ = build_reduced_market(validate_game([[1, 0], [0, 1]], [[1, 0], [0, 1]]))
    assert sum(2 ** len(_support(t, market.n_goods)) for t in market.traders) == 200
    counts = _count_scoring(monkeypatch)
    cfg = SearchConfig(box=unit_box(6), grid_k=1, refine_rounds=0, epsilon=F(1, 2))
    search_equilibrium(market, cfg)
    assert counts == {"demands": 200, "points": 2**6}


@pytest.mark.parametrize("n, visits", [(2, 428), (3, 2593)])
def test_grid_pass_visits_only_traders_on_changed_coordinates(monkeypatch, n, visits):
    # the README's counts: a pass at grid_k 1 visits every support at the
    # first point, then at each step only the supports holding the one good
    # whose price changed, once for all the traders on it, not all 38 or 74
    # traders at each of the 2^6 or 2^8 points (2,432 and 18,944)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    market, _ = build_reduced_market(validate_game(identity, identity))
    N = market.n_goods
    supports = {tuple(_support(t, N)) for t in market.traders}
    flips = _flips(supports, [2] * N)  # the most-held good moves once, the least-held 2^(N - 1) times
    assert sorted(flips) == [2**k for k in range(N)]
    assert visits == len(supports) + sum(f * sum(k in s for s in supports) for k, f in enumerate(flips))
    counts = _count_scoring(monkeypatch)
    with _count_visits() as visited:
        search_equilibrium(market, SearchConfig(box=unit_box(N), grid_k=1, refine_rounds=0, epsilon=F(1, 2)))
    assert counts["points"] == 2**N
    assert visited["visits"] == visits < len(market.traders) * 2**N
    assert visits <= len(supports) * 2**N


@given(
    seed=st.integers(0, 2**32 - 1),
    grid_k=st.integers(1, 2),
    widths=st.lists(st.sampled_from([0, 1]), min_size=4, max_size=4),
)
def test_grid_walk_visits_match_the_gray_walk_count(seed, grid_k, widths):
    # on [1, 1 + w]^N no price is 0, so no point skips and no support goes
    # stale: the walk visits every support at the first point and then the
    # holders of each good as often as its axis moves; width 0 gives a
    # single-point axis, which never moves
    market = random_market(random.Random(seed), max_goods=4, max_traders=5)
    N = market.n_goods
    axes = [axis_points(F(1), F(1 + w), grid_k) for w in widths[:N]]
    supports = {tuple(_support(t, N)) for t in market.traders} - {()}
    flips = _flips(supports, [len(axis) for axis in axes])
    with _count_visits() as visited:
        walked = list(grid_walk(market, axes))
    assert len(walked) == prod(map(len, axes))
    assert visited["visits"] == len(supports) + sum(f * sum(k in s for s in supports) for k, f in enumerate(flips))


def test_search_builds_fractions_per_round_and_incumbent_only(monkeypatch):
    # the walk's scores are (num, den) pairs and its points index tuples, so
    # a search builds one Fraction per trace entry and one per price of the
    # incumbent, not one per grid point (2^6 of them here)
    market, _ = build_reduced_market(validate_game([[1, 0], [0, 1]], [[1, 0], [0, 1]]))
    built = []
    fraction = plcmarket.search.Fraction
    monkeypatch.setattr(plcmarket.search, "Fraction", lambda *args: built.append(args) or fraction(*args))
    cfg = SearchConfig(box=unit_box(6), grid_k=1, refine_rounds=2, epsilon=F(1, 6**13))
    rep = search_equilibrium(market, cfg)
    assert rep.best_price is not None
    assert len(built) == len(rep.trace) + market.n_goods == 3 + 6


def test_int_box_matches_fraction_box():
    m = build_mn(2)
    got = search_equilibrium(m, SearchConfig(box=((1, 3), (2, 3)), grid_k=2, epsilon=1))
    want = search_equilibrium(
        m, SearchConfig(box=((F(1), F(3)), (F(2), F(3))), grid_k=2, epsilon=F(1))
    )
    assert dumps(search_report_to_obj(got)) == dumps(search_report_to_obj(want))
    assert all(type(q) is F for q in got.best_price.prices)


@given(
    seed=st.integers(0, 2**32 - 1),
    grid_k=st.integers(1, 3),
    los=st.lists(st.sampled_from([F(0), F(1, 2), F(1)]), min_size=3, max_size=3),
)
def test_grid_scores_match_imbalance_profile(seed, grid_k, los):
    market = random_market(random.Random(seed))
    axes = [axis_points(lo, F(2), grid_k) for lo in los[: market.n_goods]]
    assert _in_product_order(market, axes) == reference_grid_scores(market, axes)


@pytest.mark.parametrize("n, seed, lo", [(2, 0, 1), (2, 1, 0), (3, 0, 1)])
def test_grid_scores_match_imbalance_profile_on_reduced_markets(n, seed, lo):
    # lo 0 on good 0 puts a free good in half the grid: those points skip
    market, _ = build_reduced_market(
        validate_game(*random_sparse_game_matrices(random.Random(seed), n))
    )
    axes = [axis_points(F(lo if k == 0 else 1), F(2), 1) for k in range(market.n_goods)]
    assert _in_product_order(market, axes) == reference_grid_scores(market, axes)


_LO = st.builds(F, st.just(0) | st.integers(1, 14), st.integers(2, 7))
_WIDTH = st.builds(F, st.integers(0, 14), st.integers(2, 7))


# a skip that leaves a support stale needs a rare box: 300 examples, and ten
# times that under the deep profile
@settings(max_examples=3 * settings.default.max_examples)
@given(
    seed=st.integers(0, 2**32 - 1),
    grid_k=st.integers(1, 3),
    bounds=st.lists(st.tuples(_LO, _WIDTH), min_size=3, max_size=3),
)
def test_grid_scores_match_imbalance_profile_on_mixed_denominator_boxes(seed, grid_k, bounds):
    # each bound has its own denominator, so the axes share no step; width 0
    # gives a single-point axis and lo 0 a free good anywhere in the walk
    market = random_market(random.Random(seed))
    axes = [axis_points(lo, lo + w, grid_k) for lo, w in bounds[: market.n_goods]]
    assert _in_product_order(market, axes) == reference_grid_scores(market, axes)


@pytest.mark.parametrize("n, seed, free", [(2, 0, 2), (2, 1, 5), (3, 0, 4), (3, 1, 7)])
def test_grid_scores_skip_midway_on_reduced_markets(n, seed, free):
    # lo 0 on a middle or the last axis skips points in the middle of the
    # walk, leaving the traders after the unbounded one to the next point
    market, _ = build_reduced_market(
        validate_game(*random_sparse_game_matrices(random.Random(seed), n))
    )
    axes = [axis_points(F(0 if k == free else 1), F(2), 1) for k in range(market.n_goods)]
    got = _in_product_order(market, axes)
    assert 0 < len(got) < 2**market.n_goods
    assert got == reference_grid_scores(market, axes)


@pytest.mark.parametrize("free", [0, 1])
def test_grid_scores_match_imbalance_profile_on_a_shared_support(free):
    # traders 0 and 2 share support {0, 1, 2}, and only trader 2 strictly
    # wants the good whose axis holds price 0: the first axis or a middle
    # one.  Where it is free, the group's entry goes unbounded after trader
    # 0's demand is computed, and the groups of traders 1 and 3, whose
    # supports end before the last axis, go stale
    capped = validate_plc([2, 0], [1])
    market = Market(3, (
        TraderSpec([(0, 1), (1, 1), (2, 1)], [(0, capped), (1, capped), (2, capped)]),
        TraderSpec([(0, 4)], [(0, validate_plc([2, 0], [4]))]),
        TraderSpec([(0, 1), (1, 1), (2, 1)], [(free, linear_plc(1))]),
        TraderSpec([(1, 1)], [(0, capped)]),
    ))
    assert len({tuple(_support(t, 3)) for t in market.traders}) == 3
    axes = [axis_points(F(0 if k == free else 1), F(2), 2 if k == free else 1) for k in range(3)]
    got = _in_product_order(market, axes)
    assert len(got) == 4 * 2  # the 4 points where the free good's price is 0 skip
    assert got == reference_grid_scores(market, axes)


@given(
    seed=st.integers(0, 2**32 - 1),
    grid_k=st.integers(1, 3),
    bounds=st.lists(st.tuples(_LO, _WIDTH), min_size=3, max_size=3),
)
def test_grid_scores_match_imbalance_profile_on_shared_supports(seed, grid_k, bounds):
    # every trader of a random market gets a twin with a larger endowment on
    # the same goods, so every support holds two traders or more
    rng = random.Random(seed)
    market = random_market(rng)
    twins = [TraderSpec([(k, w + F(rng.randint(1, 8), 8)) for k, w in t.owned], t.wanted) for t in market.traders]
    traders = [*market.traders, *twins]
    rng.shuffle(traders)
    market = Market(market.n_goods, tuple(traders))
    axes = [axis_points(lo, lo + w, grid_k) for lo, w in bounds[: market.n_goods]]
    assert _in_product_order(market, axes) == reference_grid_scores(market, axes)


def test_grid_scores_match_imbalance_profile_at_the_field_width():
    # trader 0 spends all its money on good 0; at the top corner that is
    # 2 * 1 + 2 * 3 = 8 in units of 1/(M * D), M = D = 1, the whole budget
    # part of the bound 8 + 1, trader 1's satiation on good 2 (free where
    # its price is 0) the rest: the total of good 0 fills all 4 bits of
    # its field, so a field one bit narrower carries into good 1's
    market = Market(3, (
        TraderSpec([(0, 1), (1, 3)], [(0, linear_plc(1))]),
        TraderSpec([], [(2, validate_plc([2, 0], [1]))]),
    ))
    axes = [axis_points(F(1), F(2), 1), axis_points(F(1), F(2), 1), axis_points(F(0), F(2), 1)]
    got = _in_product_order(market, axes)
    assert got[-1] == (PriceVector((F(2), F(2), F(2))), F(3))  # good 0's total 8 against its supply 1 * 2
    assert got == reference_grid_scores(market, axes)


def test_search_breaks_a_tie_by_product_order():
    # two grid points of [1, 2]^3 at grid_k 2 tie at the least score, and
    # the Gray walk reaches the later one in product order first; the
    # search keeps the earlier one, as the reference does
    market = random_market(random.Random(94))
    cfg = SearchConfig(unit_box(3), grid_k=2, refine_rounds=0)
    walk = [(p.prices, score) for p, score in grid_walk(market, [axis_points(F(1), F(2), 2)] * 3)]
    least = min(score for _, score in walk if score is not None)
    tied = [prices for prices, score in walk if score == least]
    assert len(tied) == 2 and tied[0] > tied[1]
    got, want = search_equilibrium(market, cfg), reference_search(market, cfg)
    assert dumps(search_report_to_obj(got)) == dumps(search_report_to_obj(want))
    assert got.best_price == normalize_prices(PriceVector(tied[1]))


def test_search_keeps_an_earlier_boxs_incumbent_on_a_tie():
    # a refined box holds a point earlier in product order than the
    # incumbent at its score; the incumbent, found in an earlier box, stays
    market = random_market(random.Random(24))
    cfg = SearchConfig(unit_box(market.n_goods, F(1, 2), 2), grid_k=2, refine_rounds=2)
    got, want = search_equilibrium(market, cfg), reference_search(market, cfg)
    assert dumps(search_report_to_obj(got)) == dumps(search_report_to_obj(want))


_BOX_END = st.builds(F, st.integers(0, 18), st.integers(1, 9))


# a kept incumbent whose denominator changes the shrink needs a rare draw:
# 300 examples, and ten times that under the deep profile
@settings(max_examples=3 * settings.default.max_examples)
@given(
    seed=st.integers(0, 2**32 - 1),
    grid_k=st.integers(1, 3),
    rounds=st.integers(0, 3),
    axes=st.lists(st.tuples(_BOX_END, _BOX_END), min_size=3, max_size=3),  # (lower end, width)
    eps=st.sampled_from([F(0), F(1, 4), F(1, 2)]),
)
# round 1 scores a box whose axes are over 10 * 2 and keeps round 0's
# incumbent, a grid point over 5 * 2; round 2 shrinks around it, so the
# shrink must meet an incumbent that is not on the scored box's grid
@example(seed=1372, grid_k=2, rounds=2, axes=[(F(0), F(1)), (F(1, 5), F(0)), (F(0), F(1))], eps=F(0))
def test_search_matches_reference_on_drawn_boxes(seed, grid_k, rounds, axes, eps):
    # every coordinate has its own denominator, lower end (0 among them) and
    # width (0 among them, a one-point axis), so the axes' common
    # denominator and the shrink around an incumbent that an earlier box
    # found, on that box's grid, both show
    market = random_market(random.Random(seed))
    box = tuple((lo, lo + w) for lo, w in axes[: market.n_goods])
    assume(any(hi > 0 for _, hi in box))
    cfg = SearchConfig(box, grid_k, rounds, eps)
    got, want = search_equilibrium(market, cfg), reference_search(market, cfg)
    assert dumps(search_report_to_obj(got)) == dumps(search_report_to_obj(want))


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
