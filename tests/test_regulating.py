import random
from fractions import Fraction as F

import pytest

from plcmarket.clearing import APPROXIMATE, verify
from plcmarket.errors import NTooSmall
from plcmarket.model import TraderSpec, normalize_prices, prices
from plcmarket.regulating import build_mn, check_regulation_box

from oracles import OutOfRegulationBox, dense_regulating_block, regulation_forward_witness


def test_build_m2_structure():
    m = build_mn(2)
    assert m.n_goods == 2 and len(m.traders) == 2
    t12, t21 = m.traders
    assert t12.owned == ((0, F(1, 2)),)
    assert [(k, f.slopes) for k, f in t12.wanted] == [(0, (F(2),)), (1, (F(1),))]
    assert t21.owned == ((1, F(1, 2)),)
    assert [(k, f.slopes) for k, f in t21.wanted] == [(0, (F(1),)), (1, (F(2),))]


def test_block_equals_the_dense_builder():
    for n in range(2, 9):
        built = build_mn(n).traders
        dense = dense_regulating_block(n, F(1, n))
        assert built == tuple(TraderSpec(enumerate(e), enumerate(u), label) for e, u, label in dense)


def test_supply_audit():
    for n in range(2, 9):
        m = build_mn(n)
        assert len(m.traders) == n * (n - 1)
        assert all(s == F(n - 1, n) for s in m.supplies())


def test_n_too_small():
    with pytest.raises(NTooSmall):
        build_mn(1)


def test_box_check():
    assert check_regulation_box(3, prices([1, 2, F(3, 2)]))
    assert not check_regulation_box(2, prices([1, F(5, 2)]))
    assert check_regulation_box(3, prices([1, 1, 1]))
    assert not check_regulation_box(3, prices([1, 2]))  # wrong length


def test_forward_witness_examples():
    cert = regulation_forward_witness(2, prices([1, 2]))
    assert cert.accepted and all(r.imbalance == 0 for r in cert.report)
    cert = regulation_forward_witness(4, prices([1, 2, 1, 2]))
    assert cert.accepted
    # un-normalized input is normalized first
    cert = regulation_forward_witness(3, prices([2, 2, 2]))
    assert cert.accepted


def test_forward_witness_rejects_out_of_box():
    with pytest.raises(OutOfRegulationBox):
        regulation_forward_witness(2, prices([1, 3]))


def test_forward_random_in_box():
    rng = random.Random(31)
    for n in (2, 3, 5):
        for _ in range(20):
            vec = [1 + F(rng.randint(0, 32), 32) for _ in range(n)]
            vec[rng.randrange(n)] = F(1)
            cert = regulation_forward_witness(n, prices(vec))
            assert cert.accepted
            assert all(r.imbalance == 0 for r in cert.report)


def test_converse_random_out_of_box():
    rng = random.Random(37)
    for n in (2, 3, 4):
        m = build_mn(n)
        for _ in range(15):
            vec = [1 + F(rng.randint(0, 32), 32) for _ in range(n)]
            vec[rng.randrange(n)] = F(1)
            vec[rng.randrange(n)] = 2 + F(rng.randint(1, 64), 32)
            p = normalize_prices(prices(vec))
            if check_regulation_box(n, p):
                continue  # the bumped coordinate may have been the forced 1
            assert not verify(m, p, APPROXIMATE, F(1, n)).accepted


def test_encoding_identity_box_maps_to_unit_cube():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(2, 6)
        vec = [1 + F(rng.randint(0, 32), 32) for _ in range(n)]
        vec[rng.randrange(n)] = F(1)
        p = prices(vec)
        assert check_regulation_box(n, p)
        assert all(0 <= q - 1 <= 1 for q in p.prices)
