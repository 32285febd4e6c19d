"""The code that visits trader supports and nonzero entries, against dense
references over all N goods, plus a pin on the utility work of one verify."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plcmarket.clearing import APPROXIMATE, EXACT, MODES, verify
from plcmarket.demand import Bundle, budget, canonical_bundle, optimal_demand
from plcmarket.errors import UnboundedDemand
from plcmarket.games import validate_game
from plcmarket.model import Market, PriceVector, TraderSpec, economy_graph, normalize_prices, prices
from plcmarket.plc import ZERO_PLC, PLCFunction, linear_plc, validate_plc
from plcmarket.reduction import build_reduced_market

from oracles import (
    dense_budget,
    dense_cost,
    dense_demand,
    dense_economy_graph,
    dense_supplies,
    dense_totals,
    dense_utility,
    random_market,
    random_sparse_game_matrices,
)


def _prices_with_zeros(rng, n):
    while True:
        vec = [F(0) if rng.random() < 0.25 else F(rng.randint(1, 16), 8) for _ in range(n)]
        if any(vec):
            return PriceVector(tuple(vec))


def _bundle(rng, n):
    """Dense bundle, zero on about half the goods whatever the supports."""
    return tuple(F(0) if rng.random() < 0.5 else F(rng.randint(1, 16), 8) for _ in range(n))


def _check_against_dense(m: Market, p: PriceVector, rng):
    assert m.supplies() == dense_supplies(m)
    assert economy_graph(m) == dense_economy_graph(m)
    for i, t in enumerate(m.traders):
        assert budget(t, p) == dense_budget(t, p)
        x = _bundle(rng, m.n_goods)
        assert Bundle(x).cost(p) == dense_cost(x, p)
        assert t.utility(x) == dense_utility(t, x)
        try:
            want = dense_demand(t, p, i)
        except UnboundedDemand as exc:
            with pytest.raises(UnboundedDemand) as got:
                optimal_demand(t, p, i)
            assert got.value.args == exc.args
            continue
        d = optimal_demand(t, p, i)
        assert d == want
        y = canonical_bundle(d).quantities
        assert t.utility(y) == dense_utility(t, y)


def _demand_or_zero(t, p, i, n):
    try:
        return canonical_bundle(optimal_demand(t, p, i)).quantities
    except UnboundedDemand:
        return (F(0),) * n


def _check_reports(m: Market, p: PriceVector):
    """Each report's allocated column is the dense sum of the bundles it was
    built from: the witness on accept, the canonical bundles on a clearing
    reject (zero for a trader whose unbounded demand quasi mode waived)."""
    for mode in MODES:
        cert = verify(m, p, mode, F(1, 4))
        if cert.report is None:
            continue
        if cert.accepted:
            rows = [b.quantities for b in cert.allocation]
        else:
            q = normalize_prices(p)
            rows = [_demand_or_zero(t, q, i, m.n_goods) for i, t in enumerate(m.traders)]
        assert [r.allocated for r in cert.report] == dense_totals(rows, m.n_goods)


@given(seed=st.integers(0, 2**32 - 1))
def test_support_code_matches_dense_references(seed):
    rng = random.Random(seed)
    m = random_market(rng)
    p = _prices_with_zeros(rng, m.n_goods)
    _check_against_dense(m, p, rng)
    _check_reports(m, p)


@pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (4, 2)])
def test_support_code_matches_dense_references_on_reduced_markets(n, seed):
    rng = random.Random(seed)
    m, _ = build_reduced_market(validate_game(*random_sparse_game_matrices(rng, n)))
    assert max(len(t.support) for t in m.traders) < m.n_goods
    for p in (
        PriceVector(tuple(F(rng.randint(1001, 1999), 1000) for _ in range(m.n_goods))),
        _prices_with_zeros(rng, m.n_goods),
    ):
        _check_against_dense(m, p, rng)
        _check_reports(m, p)


def test_witness_totals_count_a_free_top_up_off_the_support():
    # good 1 is free and wanted by nobody; trader 0 gets the top-up to its window
    a = TraderSpec((F(1), F(0)), (linear_plc(1), ZERO_PLC))
    b = TraderSpec((F(0), F(1)), (ZERO_PLC, ZERO_PLC))
    m = Market(2, (a, b))
    cert = verify(m, prices([1, 0]), APPROXIMATE, F(1, 2))
    assert cert.accepted
    assert a.support == (0,)
    assert cert.allocation[0].quantities == (F(1), F(1, 2))
    assert [r.allocated for r in cert.report] == [F(1), F(1, 2)]


def test_witness_totals_count_residual_money_off_the_support():
    # trader 0 satiates on good 0 and must clear good 1 with its residual money
    a = TraderSpec((F(2), F(0)), (validate_plc([1, 0], [1]), ZERO_PLC))
    b = TraderSpec((F(0), F(1)), (linear_plc(1), ZERO_PLC))
    m = Market(2, (a, b))
    cert = verify(m, prices([1, 1]), EXACT)
    assert cert.accepted
    assert a.support == (0,)
    assert cert.allocation[0].quantities == (F(1), F(1))
    assert [r.allocated for r in cert.report] == [F(2), F(1)]


def test_accepting_verify_evaluates_pieces_on_supports_only(monkeypatch):
    market, _ = build_reduced_market(
        validate_game(*random_sparse_game_matrices(random.Random(0), 2))
    )
    supports = sum(
        1 for t in market.traders for w, f in zip(t.endowment, t.utilities) if w > 0 or not f.is_zero
    )
    assert (supports, len(market.traders), market.n_goods) == (88, 38, 6)
    calls = 0
    original = PLCFunction.__call__

    def counted(self, x):
        nonlocal calls
        calls += 1
        return original(self, x)

    monkeypatch.setattr(PLCFunction, "__call__", counted)
    assert verify(market, prices([1] * 6), APPROXIMATE, F(1, 2)).accepted
    # the witness re-check takes two utilities per trader; over all goods
    # that would be 2 * 38 * 6 = 456 evaluations
    assert calls == 2 * supports
