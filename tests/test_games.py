import random
from fractions import Fraction as F

import pytest

from plcmarket.errors import InputError, InvalidMarket, InvalidStrategy, NotNormalized, NotSparse, NTooLarge, ShapeMismatch
from plcmarket.games import (
    check_wsne,
    mixed,
    solve_game_support_enum,
    solve_unique,
    system_rank,
    validate_game,
)

from oracles import random_sparse_game_matrices

MP_A = [[1, -1], [-1, 1]]
MP_B = [[-1, 1], [1, -1]]


def test_validate_game_examples():
    assert validate_game([[0, 0], [0, 0]], [[0, 0], [0, 0]]).n == 2
    assert validate_game(MP_A, MP_B).n == 2


def test_validate_game_rejections():
    with pytest.raises(NotNormalized):
        validate_game([[2, 0], [0, 0]], [[0, 0], [0, 0]])
    with pytest.raises(ShapeMismatch):
        validate_game([[0, 0]], [[0, 0], [0, 0]])
    with pytest.raises(ShapeMismatch):
        validate_game([[0], [0]], [[0], [0]])
    n = 12
    dense = [[F(1, 2)] * n for _ in range(n)]
    zero = [[0] * n for _ in range(n)]
    with pytest.raises(NotSparse):
        validate_game(dense, zero)


def test_mixed_strategy_validation():
    with pytest.raises(InvalidStrategy):
        mixed([F(1, 2), F(1, 4)])
    with pytest.raises(InvalidStrategy):
        mixed([F(3, 2), F(-1, 2)])


def test_wsne_zero_game_everything_passes():
    g = validate_game([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert check_wsne(g, mixed([1, 0]), mixed([F(1, 2), F(1, 2)]), 0).passed


def test_wsne_matching_pennies():
    g = validate_game(MP_A, MP_B)
    assert check_wsne(g, mixed([F(1, 2), F(1, 2)]), mixed([F(1, 2), F(1, 2)]), 0).passed
    res = check_wsne(g, mixed([1, 0]), mixed([0, 1]), F(1, 2))
    assert not res.passed
    # row 1 earns -1 against y while row 2 earns 1; the gap exceeds eps
    assert res.witness == (0, 1, "row")


def test_wsne_epsilon_softens():
    g = validate_game(MP_A, MP_B)
    assert check_wsne(g, mixed([1, 0]), mixed([0, 1]), 2).passed


def test_wsne_takes_an_exact_nonnegative_epsilon():
    g = validate_game(MP_A, MP_B)
    x, y = mixed([1, 0]), mixed([0, 1])
    with pytest.raises(InputError, match="float"):
        check_wsne(g, x, y, 0.1)
    for eps in (-1, F(-1, 2), "-1/2"):
        with pytest.raises(InvalidMarket, match="nonnegative"):
            check_wsne(g, x, y, eps)
    assert check_wsne(g, x, y, "2") == check_wsne(g, x, y, F(2))


def test_support_enum_coordination():
    g = validate_game([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    eqs = solve_game_support_enum(g)
    expected = {
        ((F(1), F(0)), (F(1), F(0))),
        ((F(0), F(1)), (F(0), F(1))),
        ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
    }
    assert {(x.weights, y.weights) for x, y in eqs} == expected


def test_support_enum_matching_pennies_unique():
    eqs = solve_game_support_enum(validate_game(MP_A, MP_B))
    assert len(eqs) == 1
    x, y = eqs[0]
    assert x.weights == (F(1, 2), F(1, 2)) and y.weights == (F(1, 2), F(1, 2))


def test_support_enum_zero_game():
    g = validate_game([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    eqs = solve_game_support_enum(g)
    assert eqs  # every support pair contributes vertices
    for x, y in eqs:
        assert check_wsne(g, x, y, 0).passed


def test_support_enum_size_cap():
    A = [[0] * 5 for _ in range(5)]
    with pytest.raises(NTooLarge):
        solve_game_support_enum(validate_game(A, A))


def test_inconsistent_systems_have_no_rank_and_no_solution():
    one = ((F(1), F(1)), F(1))
    assert system_rank([one, ((F(2), F(2)), F(3))], 2) is None
    assert solve_unique([one, ((F(2), F(2)), F(3))], 2) is None
    assert system_rank([one, ((F(2), F(2)), F(2))], 2) == 1
    assert solve_unique([one], 2) is None  # underdetermined
    both = [one, ((F(1), F(-1)), F(0))]
    assert system_rank(both, 2) == 2 and solve_unique(both, 2) == (F(1, 2), F(1, 2))
    assert solve_unique(both + [((F(1), F(0)), F(1))], 2) is None  # consistent pivots, then 0 = 1/2


def test_support_enum_outputs_are_equilibria():
    rng = random.Random(43)
    for n in (2, 3):
        for _ in range(8):
            A, B = random_sparse_game_matrices(rng, n)
            g = validate_game(A, B)
            for x, y in solve_game_support_enum(g):
                assert check_wsne(g, x, y, 0).passed


def test_degenerate_rank_deficient_game():
    # both rows identical: every y works for the row player's indifference
    g = validate_game([[1, 1], [1, 1]], [[0, 1], [1, 0]])
    eqs = solve_game_support_enum(g)
    assert eqs
    for x, y in eqs:
        assert check_wsne(g, x, y, 0).passed
