import random
from fractions import Fraction as F

import pytest

from plcmarket.errors import (
    InputError,
    LengthMismatch,
    NegativeArgument,
    NegativeSlope,
    NonDecreasingSlopes,
    NonIncreasingBreakpoints,
)
from plcmarket.model import TraderSpec
from plcmarket.plc import ZERO_PLC, PLCFunction, linear_plc, validate_plc

from oracles import random_plc, satiation_point


def test_two_segment_representation():
    f = validate_plc([9, 1], [F(1, 16)])
    assert f.n_segments == 2
    assert f.is_strictly_monotone
    assert not f.is_zero


def test_zero_function_forms():
    for slopes in ([], [0]):
        f = validate_plc(slopes, [])
        assert f.is_zero
        assert f(F(7)) == 0
        assert satiation_point(f) == 0


def test_rejections():
    with pytest.raises(NonDecreasingSlopes):
        validate_plc([1, 2], [1])
    with pytest.raises(NonDecreasingSlopes):
        validate_plc([2, 2], [1])
    with pytest.raises(NegativeSlope):
        validate_plc([2, -1], [1])
    with pytest.raises(LengthMismatch):
        validate_plc([3, 2, 1], [1])
    with pytest.raises(NonIncreasingBreakpoints):
        validate_plc([3, 2, 1], [2, 1])
    with pytest.raises(NonIncreasingBreakpoints):
        validate_plc([3, 1], [0])


def test_constructor_rejects_floats():
    # floats never reach the verdict path, also through the bare constructor
    with pytest.raises(InputError, match="float"):
        PLCFunction((0.5,), ())
    with pytest.raises(InputError, match="float"):
        PLCFunction((2, 1), (0.5,))
    f = PLCFunction((3, 1), (2,))
    assert f == validate_plc([3, 1], [2])
    assert all(type(v) is F for v in f.slopes + f.breaks)


def test_constructor_makes_a_lone_zero_slope_the_zero_function():
    zero = PLCFunction((F(0),), ())
    assert zero.is_zero and zero == ZERO_PLC
    assert TraderSpec([(0, F(1))], [(0, linear_plc(1)), (1, zero)]).wanted == ((0, linear_plc(1)),)
    with pytest.raises(LengthMismatch):
        PLCFunction((F(0),), (F(1),))


def test_constructor_enforces_concavity():
    with pytest.raises(NonDecreasingSlopes):
        PLCFunction((1, 2), (1,))
    with pytest.raises(NegativeSlope):
        PLCFunction((2, -1), (1,))
    with pytest.raises(NonIncreasingBreakpoints):
        PLCFunction((3, 2, 1), (2, 1))


def test_eval_examples():
    f = validate_plc([3, 1], [2])
    assert f(F(2)) == 6
    assert f(F(5)) == 9
    assert f(F(0)) == 0
    with pytest.raises(NegativeArgument):
        f(F(-1))


def test_last_segment_is_a_ray():
    f = validate_plc([5, 2], [3])
    assert f(F(1000)) == 15 + 2 * 997


def test_satiation_and_bounds():
    f = validate_plc([3, 0], [2])
    assert satiation_point(f) == 2
    assert not f.is_strictly_monotone
    assert f(F(50)) == 6


def test_linear_plc():
    assert linear_plc(0).is_zero
    assert linear_plc(3)(F(7, 2)) == F(21, 2)


def test_concavity_property():
    rng = random.Random(7)
    for _ in range(200):
        f = random_plc(rng, max_segments=3)
        xs = sorted(rng.sample([F(q, 16) for q in range(0, 120)], 3))
        x, y, z = xs
        if x == y or y == z:
            continue
        # f(y) lies on or above the chord through (x, f(x)) and (z, f(z))
        assert f(y) * (z - x) >= f(x) * (z - y) + f(z) * (y - x)


def test_continuity_at_breakpoints():
    rng = random.Random(8)
    for _ in range(200):
        f = random_plc(rng, max_segments=3)
        prev = F(0)
        for i, a in enumerate(f.breaks):
            h_left = (a - prev) / 2
            nxt = f.breaks[i + 1] if i + 1 < len(f.breaks) else a + 1
            h_right = (nxt - a) / 2
            # value at the breakpoint matches both adjacent piece formulas
            assert f(a) == f(a - h_left) + f.slopes[i] * h_left
            assert f(a + h_right) == f(a) + f.slopes[i + 1] * h_right
            prev = a
