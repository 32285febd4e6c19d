"""Byte-identity of artifacts and certificates on seeded inputs.

Each section hashes the canonical JSON text (`serialize.dumps`) of what the
builders, the verifier, the grid search and support enumeration produce on a
fixed, seeded set of inputs.  The digests were recorded once; any change to a
market file, a metadata file, a certificate, a witness, a search report or an
equilibrium list shows up as a digest mismatch.  Run this file as a script to
print the current digests when a format change is intended.
"""

import hashlib
import random
from fractions import Fraction as F

from plcmarket import serialize
from plcmarket.clearing import APPROXIMATE, MODES, verify
from plcmarket.errors import AllZeroPrices
from plcmarket.games import solve_game_support_enum, validate_game
from plcmarket.model import prices
from plcmarket.rational import format_rational
from plcmarket.reduction import build_reduced_market
from plcmarket.regulating import build_mn
from plcmarket.search import SearchConfig, search_equilibrium, unit_box

from oracles import (
    degenerate_game_matrices,
    dense_view,
    random_market,
    random_sparse_game_matrices,
    regulation_forward_witness,
    tie_rich_market,
)

GOLDEN = {
    "reduced_markets": "b03ec92056c0d6847aa3b7f72b4d748011619ca0c3f34546eb6cc3173db1c9fd",
    "reduced_verdicts": "a73da6c8a45812a31f3e54b0a2fb50d81f4a905171391d258fed63326cca7d44",
    "mn_certificates": "5ecb1e6fab61b33f8ff018010a487f6c508cbc9cfba36512068e791e3c7ee9dd",
    "forward_witnesses": "96928fd3b7d7c4e239d570a2bdbbe2266f529851c89089e528b9f7dfb7898263",
    "random_certificates": "9444c70ff6a1d644eaeb52be5f9bf9a9f2a1423bd231a1f28cfea4912f684759",
    "search_reports": "7703c2869a8b93da6441e9a09fed128a4f66f84876fedf5fc7cad6e48defa462",
    "support_enum": "55625edcdc41f0f9d2b8b77f9a1865a2baad753fd9d2d3c771b3b189b0f3eaf7",
}


def _game(n: int):
    A, B = random_sparse_game_matrices(random.Random(f"golden/game/{n}"), n)
    return validate_game(A, B)


def _in_box(rng: random.Random, n: int):
    vec = [1 + F(rng.randint(0, 16), 16) for _ in range(n)]
    vec[rng.randrange(n)] = F(1)
    return vec


def _witness_obj(bundles, n_goods):
    if bundles is None:
        return None
    return [[format_rational(q) for q in dense_view(b.amounts, n_goods)] for b in bundles]


def _reduced_markets():
    for n in range(2, 9):
        market, meta = build_reduced_market(_game(n))
        yield market
        yield serialize.meta_to_obj(meta)


def _reduced_verdicts():
    for n in range(2, 5):
        market, _ = build_reduced_market(_game(n))
        N = market.n_goods
        rng = random.Random(f"golden/reduced/{n}")
        p = prices(_in_box(rng, N))
        for eps in (F(1, N**13), F(1, 2)):
            cert = verify(market, p, APPROXIMATE, eps)
            yield cert
            yield _witness_obj(cert.allocation, N)


def _mn_price_vectors(rng: random.Random, n: int):
    inside = _in_box(rng, n)
    yield inside
    pushed = list(inside)
    k = rng.randrange(n)
    pushed[k] = 2 * min(pushed[j] for j in range(n) if j != k) + F(rng.randint(1, 16), 16)
    yield pushed
    zero = list(inside)
    zero[rng.randrange(n)] = F(0)
    yield zero


def _mn_certificates():
    for n in range(2, 7):
        m = build_mn(n)
        rng = random.Random(f"golden/mn/{n}")
        for _ in range(2):
            for vec in _mn_price_vectors(rng, n):
                for mode in MODES:
                    yield verify(m, prices(vec), mode, F(1, n))


def _forward_witnesses():
    for n in range(2, 7):
        rng = random.Random(f"golden/forward/{n}")
        for _ in range(3):
            vec = [v * 3 for v in _in_box(rng, n)]  # un-normalized on purpose
            yield regulation_forward_witness(n, prices(vec))


def _search_reports():
    for n in (2, 3):
        m = build_mn(n)
        for grid_k in (1, 2, 3):
            for rounds in (0, 2):
                for eps in (F(0), F(1, n)):
                    cfg = SearchConfig(unit_box(n), grid_k, rounds, eps)
                    yield serialize.search_report_to_obj(search_equilibrium(m, cfg))
    # zero-price grid points of M_2 have unbounded demand and are skipped
    cfg = SearchConfig(unit_box(2, 0, 2), 2, 2, F(1, 2))
    yield serialize.search_report_to_obj(search_equilibrium(build_mn(2), cfg))
    market, _ = build_reduced_market(_game(2))
    N = market.n_goods
    for eps in (F(1, N**13), F(1, 2)):
        cfg = SearchConfig(unit_box(N), 1, 2, eps)
        yield serialize.search_report_to_obj(search_equilibrium(market, cfg))
    rng = random.Random("golden/search")
    for case in range(40):
        market = random_market(rng)
        box = unit_box(market.n_goods, F(case % 3, 2), 2)
        cfg = SearchConfig(box, 1 + case % 3, case % 4, F(1, 4))
        yield serialize.search_report_to_obj(search_equilibrium(market, cfg))


def _random_certificates():
    rng = random.Random("golden/random")
    for case in range(60):
        if case % 2:
            vec = [F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            market = tie_rich_market(rng, vec)
        else:
            market = random_market(rng)
            vec = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(market.n_goods)]
        try:
            p = prices(vec)
        except AllZeroPrices:
            continue
        for mode in MODES:
            yield verify(market, p, mode, F(1, 4))


def _support_enum():
    for n in range(2, 5):
        rng = random.Random(f"golden/support/{n}")
        games = [random_sparse_game_matrices(rng, n) for _ in range(2)]
        for A, B in games + list(degenerate_game_matrices(rng, n)):
            eqs = solve_game_support_enum(validate_game(A, B))
            yield [[list(map(format_rational, s.weights)) for s in eq] for eq in eqs]


SECTIONS = {
    "reduced_markets": _reduced_markets,
    "reduced_verdicts": _reduced_verdicts,
    "mn_certificates": _mn_certificates,
    "forward_witnesses": _forward_witnesses,
    "random_certificates": _random_certificates,
    "search_reports": _search_reports,
    "support_enum": _support_enum,
}


def digest(section: str) -> str:
    h = hashlib.sha256()
    for obj in SECTIONS[section]():
        h.update(serialize.dumps(obj).encode())
    return h.hexdigest()


def test_golden_digests():
    assert {name: digest(name) for name in SECTIONS} == GOLDEN


if __name__ == "__main__":
    for name in SECTIONS:
        print(f'    "{name}": "{digest(name)}",')
