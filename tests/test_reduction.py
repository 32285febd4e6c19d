import random
from fractions import Fraction as F

import pytest

from plcmarket.errors import DegenerateExtraction, NTooSmall, ShapeMismatch
from plcmarket.games import validate_game
from plcmarket.model import PriceVector, classify_market, prices
from plcmarket.reduction import (
    build_reduced_market,
    extract_strategies,
    gadget_vectors_col,
    gadget_vectors_row,
)

from oracles import random_sparse_game_matrices


def frac_rows(rows):
    return [[F(v) for v in row] for row in rows]


def test_gadget_row_examples():
    A = frac_rows([[F(1, 2), F(-1, 2)], [F(-1, 2), F(1, 2)]])
    gv = gadget_vectors_row(A, 0, 1)
    assert gv.C == (F(1), F(0)) and gv.D == (F(0), F(1))
    assert gv.E == 0 and gv.F == 0

    A = frac_rows([[1, 1], [0, 0]])
    gv = gadget_vectors_row(A, 0, 1)
    assert gv.C == (F(1), F(1)) and gv.D == (F(0), F(0))
    assert gv.E == 0 and gv.F == 2

    A = frac_rows([[1, -1], [1, -1]])
    gv = gadget_vectors_row(A, 0, 1)
    assert gv.C == gv.D == (F(0), F(0)) and gv.E == gv.F == 0


def test_gadget_col_mirrors_columns():
    B = frac_rows([[1, 0], [F(-1, 2), F(1, 2)]])
    gv = gadget_vectors_col(B, 0, 1)
    # column difference B_1 - B_2 = (1 - 0, -1/2 - 1/2) = (1, -1)
    assert gv.C == (F(1), F(0)) and gv.D == (F(0), F(1))


def test_gadget_identities_random():
    rng = random.Random(47)
    for n in (2, 3, 5, 8):
        A, B = random_sparse_game_matrices(rng, n)
        game = validate_game(A, B)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for gv, diff in (
                    (gadget_vectors_row(game.A, i, j),
                     [game.A[i][k] - game.A[j][k] for k in range(n)]),
                    (gadget_vectors_col(game.B, i, j),
                     [game.B[k][i] - game.B[k][j] for k in range(n)]),
                ):
                    assert [c - d for c, d in zip(gv.C, gv.D)] == diff
                    assert all(c * d == 0 for c, d in zip(gv.C, gv.D))
                    assert gv.E + sum(gv.C) == gv.F + sum(gv.D)
                    assert gv.E * gv.F == 0
                    assert 0 <= gv.E <= 40 and 0 <= gv.F <= 40
                    assert sum(1 for c in gv.C if c != 0) <= 20
                    assert sum(1 for d in gv.D if d != 0) <= 20
                    assert all(0 <= c <= 2 for c in gv.C)
                    assert all(0 <= d <= 2 for d in gv.D)


def test_reduced_market_shape_zero_game():
    game = validate_game([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    market, meta = build_reduced_market(game)
    assert market.n_goods == 6
    assert meta.s_count == 30 and len(meta.u_pairs) == 2 and meta.i_count == 4
    slices = meta.trader_slices()
    u0 = market.traders[slices["u"][0]]
    assert u0.endowment == (F(1, 16),) + (F(0),) * 5
    assert u0.utilities[0].slopes == (F(9), F(1))
    assert u0.utilities[0].breaks == (F(1, 16),)
    assert u0.utilities[5].slopes == (F(3),)
    i0 = market.traders[slices["i"][0]]
    assert i0.endowment == (F(0),) * 4 + (F(1, 4096), F(0))
    assert i0.utilities[0].slopes == (F(1),)


def test_reduction_too_small():
    with pytest.raises(NTooSmall):
        build_reduced_market(validate_game([[0]], [[0]]))


def test_reduced_market_classification():
    rng = random.Random(53)
    for n in (2, 3, 4):
        A, B = random_sparse_game_matrices(rng, n)
        market, _ = build_reduced_market(validate_game(A, B))
        rep = classify_market(market, 27, 23)
        assert rep.all_ok
        for t in market.traders:
            assert sum(1 for w in t.endowment if w > 0) <= 22
            assert sum(1 for f in t.utilities if not f.is_zero) <= 23


def test_conservation_pairing_identity():
    # paired gadget endowments on the y-block goods sum to |A_ik - A_jk| / n^5
    rng = random.Random(59)
    A, B = random_sparse_game_matrices(rng, 3)
    game = validate_game(A, B)
    market, meta = build_reduced_market(game)
    n = game.n
    u_start = meta.trader_slices()["u"][0]
    index = {pair: u_start + t for t, pair in enumerate(meta.u_pairs)}
    for (i, j), idx in index.items():
        other = market.traders[index[(j, i)]]
        mine = market.traders[idx]
        for k in range(n):
            expected = abs(game.A[i][k] - game.A[j][k]) / n**5
            assert mine.endowment[n + k] + other.endowment[n + k] == expected


def test_extract_examples():
    game = validate_game([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    _, meta = build_reduced_market(game)
    ex = extract_strategies(prices([2, 1, 1, 2, 1, 1], normalized=True), meta)
    assert ex.x.weights == (F(1), F(0)) and ex.y.weights == (F(0), F(1))
    ex = extract_strategies(prices([F(3, 2), F(3, 2), 1, 2, 1, 1], normalized=True), meta)
    assert ex.x.weights == (F(1, 2), F(1, 2))
    with pytest.raises(DegenerateExtraction):
        extract_strategies(prices([1, 1, 1, 2, 1, 1], normalized=True), meta)
    with pytest.raises(ShapeMismatch):
        extract_strategies(prices([1, 2], normalized=True), meta)


def test_extract_from_int_prices_gives_exact_weights():
    _, meta = build_reduced_market(validate_game([[0, 0], [0, 0]], [[0, 0], [0, 0]]))
    ex = extract_strategies(PriceVector((3, 2, 1, 2, 1, 1)), meta)
    assert ex.x.weights == (F(2, 3), F(1, 3)) and ex.y.weights == (F(0), F(1))
    assert all(type(w) is F for w in ex.x.weights + ex.y.weights + ex.x_raw + ex.y_raw)


def test_extract_round_trip():
    game = validate_game([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    _, meta = build_reduced_market(game)
    rng = random.Random(61)
    for _ in range(50):
        vec = [1 + F(rng.randint(0, 16), 16) for _ in range(6)]
        if sum(vec[:2]) == 2 or sum(vec[2:4]) == 2:
            continue
        p = prices(vec)
        ex = extract_strategies(p, meta)
        rebuilt = tuple(1 + w for w in ex.x_raw + ex.y_raw)
        assert rebuilt == p.prices[:4]
        assert not ex.clamped


def test_extract_clamps_out_of_box():
    game = validate_game([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    _, meta = build_reduced_market(game)
    ex = extract_strategies(prices([0, 2, 1, 2, 1, 1]), meta)
    assert ex.clamped
    assert ex.x.weights == (F(0), F(1))
