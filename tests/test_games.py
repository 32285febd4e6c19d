import random
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcmarket.errors import InputError, InvalidMarket, InvalidStrategy, NotNormalized, NotSparse, NTooLarge, ShapeMismatch
from plcmarket.games import (
    _vertices,
    check_wsne,
    mixed,
    solve_game_support_enum,
    validate_game,
)

from oracles import (
    _reference_basic_feasible_points,
    degenerate_game_matrices,
    random_sparse_game_matrices,
    reference_support_enum,
)

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


def test_wsne_checks_profile_lengths():
    g = validate_game(MP_A, MP_B)
    # weight on a third, non-existent action must not pass as a profile
    with pytest.raises(ShapeMismatch):
        check_wsne(g, mixed([0, 0, 1]), mixed([1, 0]), 0)
    with pytest.raises(ShapeMismatch):
        check_wsne(g, mixed([1, 0]), mixed([1]), 0)
    with pytest.raises(ShapeMismatch):
        check_wsne(g, mixed([1]), mixed([1, 0]), 0)


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


NONNEGATIVE = [[-1, 0, 0], [0, -1, 0]]  # rows [coeffs..., rhs]: -z_k <= 0


def test_vertices_leave_out_the_origin_and_label_their_tight_rows():
    # the triangle z >= 0, z0 + z1 <= 1 has the corner 0 too, which pairs with nothing
    assert _vertices(NONNEGATIVE + [[1, 1, 1]], 2) == {(0, 1): 0b101, (1, 0): 0b110}


def test_singular_active_sets_solve_for_no_vertex():
    # a parallel pair of rows reduces to 0 = 1 (inconsistent) or 0 = 0 (no
    # rank); a redundant row is tight wherever its twin is
    assert _vertices(NONNEGATIVE + [[1, 1, 1], [2, 2, 3]], 2) == {(0, 1): 0b0101, (1, 0): 0b0110}
    assert _vertices(NONNEGATIVE + [[1, 1, 1], [2, 2, 2]], 2) == {(0, 1): 0b1101, (1, 0): 0b1110}


def test_vertices_on_their_active_inequalities_are_feasible():
    # each end of the segment z0 + z1 = 1, z >= 0 makes one bound tight
    assert _vertices([[1, 1, 1], [-1, -1, -1]] + NONNEGATIVE, 2) == {(0, 1): 0b0111, (1, 0): 0b1011}
    # the cube corner z = 1 is tight on all three upper bounds, and no lower one
    upper = [[int(i == k) for i in range(3)] + [1] for k in range(3)]
    lower = [[-int(i == k) for i in range(3)] + [0] for k in range(3)]
    corners = _vertices(upper + lower, 3)
    assert len(corners) == 7 and corners[(1, 1, 1)] == 0b000111 and corners[(1, 0, 0)] == 0b110001


def test_negative_pivots_keep_their_sign():
    assert _vertices([[-2, 1], [1, 1]], 1) == {(-1,): 0b01, (1,): 0b10}
    # the box [-2/3, 1] x [-4/5, 1]; each vertex comes back as a primitive integer vector
    box = [[-3, 0, 2], [0, -5, 4], [1, 0, 1], [0, 1, 1]]
    assert _vertices(box, 2) == {(-5, -6): 0b0011, (-2, 3): 0b1001, (5, -4): 0b0110, (1, 1): 0b1100}


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


# few distinct values, zero among them, so drawn games tie often
PAYOFFS = st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 3), F(1)])


@st.composite
def small_games(draw):
    n = draw(st.integers(1, 3))
    A, B = ([[draw(PAYOFFS) for _ in range(n)] for _ in range(n)] for _ in "AB")
    if draw(st.booleans()):  # A repeats a row, B repeats a column
        A[-1] = list(A[0])
        for row in B:
            row[-1] = row[0]
    zeroed = draw(st.sampled_from(["A", "B", "AB"] + [""] * 5))  # mostly neither
    if "A" in zeroed:
        A = [[0] * n for _ in range(n)]
    if "B" in zeroed:
        B = [[0] * n for _ in range(n)]
    return validate_game(A, B)


@settings(max_examples=60)  # the Fraction reference is slow on n = 3 games
@given(small_games())
def test_support_enum_matches_the_fraction_reference(g):
    assert solve_game_support_enum(g) == reference_support_enum(g)


def test_support_enum_matches_the_fraction_reference_at_n4():
    rng = random.Random("support/n4")
    sparse = random_sparse_game_matrices(rng, 4)
    _, repeated, tied = degenerate_game_matrices(rng, 4)  # the zero game is in the goldens
    for A, B in (sparse, repeated, tied):
        g = validate_game(A, B)
        assert solve_game_support_enum(g) == reference_support_enum(g)


def nondegenerate(g) -> bool:
    """No vertex of either best-response polytope makes more than n of its 2n
    constraints tight, so no mixed strategy has more pure best responses
    than actions in its support (von Stengel, "Computing equilibria for
    two-person games", 2002).  Vertices from the Fraction reference."""
    n = g.n
    unplayed = [(tuple(-F(i == k) for i in range(n)), F(0)) for k in range(n)]
    for M in (g.A, list(zip(*g.B))):
        low = min(map(min, M))
        rows = unplayed + [(tuple(v - low + 1 for v in row), F(1)) for row in M]
        for z in _reference_basic_feasible_points([], rows, n):
            if sum(sum(map(mul, coeffs, z)) == rhs for coeffs, rhs in rows) > n:
                return False
    return True


@st.composite
def drawn_games(draw):
    # about 1 draw in 50 has n = 4, whose Fraction reference takes ~0.25 s
    sizes = (2,) * 8 + (3,) * 4 + (4,)
    n = sizes[draw(st.integers(0, len(sizes) - 1))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["sparse", "sparse", "repeated", "tied"]))  # the zero games are in the goldens
    if family == "sparse":
        return validate_game(*random_sparse_game_matrices(rng, n))
    _, repeated, tied = degenerate_game_matrices(rng, n)
    return validate_game(*(repeated if family == "repeated" else tied))


@given(drawn_games())
def test_vertex_pairs_match_the_support_pair_reference(g):
    eqs = solve_game_support_enum(g)
    assert eqs == reference_support_enum(g)
    if nondegenerate(g):  # Shapley (1974): a nondegenerate game has an odd number of equilibria
        assert len(eqs) % 2 == 1
