"""Metamorphic referees for `verify` at the benchmark's sizes.

The brute-force oracles stop at tiny markets, so nothing else referees a
verdict on `M_16` or on the reduced market of an n = 8 game.  These tests
check relations instead: the verdict, and the kind of its reason, must not
change when the goods are permuted together with the prices, when the
traders are permuted, when every trader is duplicated (each demand set is
convex, so half of a doubled market's allocation is one of the original),
or when the prices are scaled by a positive rational, which normalization
undoes.  A reason names trader and good indices, which the relations move,
so only its kind is compared.  The prices are drawn as the benchmark draws
them: in the box [1, 2], with one entry pushed out of it, or with one entry
zero.
"""

import functools
import random
from fractions import Fraction as F

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from plcmarket.clearing import APPROXIMATE, EXACT, QUASI, verify
from plcmarket.games import validate_game
from plcmarket.model import Market, PriceVector, TraderSpec
from plcmarket.reduction import build_reduced_market
from plcmarket.regulating import build_mn

from oracles import random_sparse_game_matrices

PRICE_DEN = 1000


@functools.cache
def _market(name: str):
    """The market and its small approximate eps: 1/n for M_n, N^-13 for a
    reduced market with N goods."""
    if name == "M16":
        return build_mn(16), F(1, 16)
    market, meta = build_reduced_market(validate_game(*random_sparse_game_matrices(random.Random(8), 8)))
    return market, F(1, meta.n_goods**13)


def _prices(kind: str, rng: random.Random, n: int) -> list:
    p = [F(rng.randint(PRICE_DEN, 2 * PRICE_DEN), PRICE_DEN) for _ in range(n)]
    k = rng.randrange(n)
    if kind == "pushed":  # above twice every other entry, so outside the box
        p[k] = 2 * min(p[:k] + p[k + 1:]) + F(rng.randint(1, PRICE_DEN), PRICE_DEN)
    elif kind == "zero":
        p[k] = F(0)
    return p


def _permute_goods(m: Market, perm) -> Market:
    """m with good k renamed perm[k]."""
    return Market(m.n_goods, tuple(
        TraderSpec([(perm[k], w) for k, w in t.owned], [(perm[k], f) for k, f in t.wanted], t.label)
        for t in m.traders
    ))


def _kind(cert) -> tuple:
    """The verdict and the reason up to the indices it names."""
    return cert.verdict, None if cert.reason is None else cert.reason.split(" (")[0]


@pytest.mark.parametrize("kind", ["inbox", "pushed", "zero"])
@pytest.mark.parametrize("name", ["M16", "reduced8"])
@given(seed=st.integers(0, 2**32 - 1), scale=st.fractions(F(1, 1000), 1000, max_denominator=1000))
@settings(max_examples=2, phases=[Phase.generate])  # no shrinking: an example is 20 verify calls
def test_verify_verdict_survives_relabelling_duplication_and_scaling(name, kind, seed, scale):
    m, small = _market(name)
    rng = random.Random(seed)
    n = m.n_goods
    p = _prices(kind, rng, n)
    perm = rng.sample(range(n), n)
    permuted = [F(0)] * n
    for k, q in enumerate(p):
        permuted[perm[k]] = q
    order = rng.sample(m.traders, len(m.traders))
    variants = [
        (_permute_goods(m, perm), permuted),
        (Market(n, tuple(order)), p),
        (Market(n, m.traders + m.traders), p),
        (m, [scale * q for q in p]),
    ]
    for mode, eps in ((EXACT, 0), (QUASI, 0), (APPROXIMATE, small), (APPROXIMATE, F(1, 2))):
        want = _kind(verify(m, PriceVector(p), mode, eps))
        for market, q in variants:
            assert _kind(verify(market, PriceVector(q), mode, eps)) == want, (mode, eps)
