import random
from fractions import Fraction as F
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

import plcmarket
from plcmarket import clearing, demand
from plcmarket.cli import main
from plcmarket.clearing import APPROXIMATE, EXACT, MODES, QUASI, verify
from plcmarket.demand import Bundle, int_demand
from plcmarket.errors import (
    AllZeroPrices,
    InputError,
    InternalInvariantViolation,
    InvalidMarket,
    ShapeMismatch,
)
from plcmarket.games import validate_game
from plcmarket.model import Market, TraderSpec, normalize_prices, prices
from plcmarket.plc import linear_plc, validate_plc
from plcmarket.reduction import build_reduced_market
from plcmarket.regulating import build_mn
from plcmarket.serialize import certificate_to_obj, dumps, prices_to_obj

from oracles import (
    brute_force_clearing,
    bundle_in_demand,
    dense_in_demand,
    dense_view,
    imbalance_profile,
    optimal_demand,
    own_scale_view,
    random_instance,
    random_market,
    random_sparse_game_matrices,
)


def test_single_self_sufficient_trader_exact():
    m = Market(1, (TraderSpec([(0, F(1))], [(0, linear_plc(1))]),))
    for p in ([1], [F(7, 3)]):
        alloc = verify(m, prices(p), APPROXIMATE, 0).allocation
        assert alloc is not None
        assert alloc[0].amounts == ((0, F(1)),)


def test_m2_box_prices_feasible():
    m = build_mn(2)
    p = prices([1, 1], normalized=True)
    assert verify(m, p, APPROXIMATE, F(1, 2)).accepted
    # and the endowment allocation itself is a valid witness
    for i, t in enumerate(m.traders):
        assert bundle_in_demand(t, p, int_demand(own_scale_view(t), p.scaled[1], i), Bundle(t.owned))


def test_m2_out_of_box_infeasible():
    m = build_mn(2)
    assert not verify(m, prices([1, 3], normalized=True), APPROXIMATE, F(1, 2)).accepted


def test_m2_tie_splitting_needed_at_corner():
    # at p = (1, 2) the (2,1) trader is indifferent; only a tie split clears
    m = build_mn(2)
    cert = verify(m, prices([1, 2]), EXACT)
    assert cert.accepted
    assert all(r.imbalance == 0 for r in cert.report)


def test_m4_example_modes():
    m = build_mn(4)
    p = prices([1, 2, 1, 2])
    assert verify(m, p, APPROXIMATE, F(1, 4)).accepted
    assert verify(m, p, QUASI).accepted


def test_verify_takes_unnormalized_prices():
    m = build_mn(3)
    assert verify(m, prices([2, 2, 2]), EXACT).accepted


def test_all_zero_prices_rejected():
    m = build_mn(2)
    with pytest.raises(AllZeroPrices):
        verify(m, prices([0, 1]).__class__((F(0), F(0)), False), EXACT)


def test_unbounded_demand_rejects():
    m = build_mn(2)
    cert = verify(m, prices([0, 1]), APPROXIMATE, F(1, 2))
    assert not cert.accepted
    assert "unbounded" in cert.reason


def test_quasi_vs_exact_zero_income_trader():
    # B has zero income and a satiated want for good 2 that supply cannot meet
    a = TraderSpec([(0, F(1)), (1, F(3))], [(0, linear_plc(1))], "A")
    b = TraderSpec([], [(1, validate_plc([1, 0], [5]))], "B")
    m = Market(2, (a, b))
    p = prices([1, 0], normalized=True)
    assert verify(m, p, QUASI).accepted
    assert not verify(m, p, EXACT).accepted


def test_quasi_waives_a_zero_income_trader_with_unbounded_demand():
    # B owns only good 1, which is free, and strictly wants it: B's demand is
    # unbounded, B has no income, and the rest of the market clears without B
    a = TraderSpec([(0, F(1))], [(0, linear_plc(1))], "A")
    b = TraderSpec([(1, F(1))], [(1, linear_plc(1))], "B")
    m, p = Market(2, (a, b)), prices([1, 0])
    cert = verify(m, p, QUASI)
    assert cert.accepted
    assert cert.allocation[1].amounts == ()
    exact = verify(m, p, EXACT)
    assert not exact.accepted and "unbounded demand" in exact.reason
    # owning a priced good too gives B an income: quasi mode no longer waives B
    b = TraderSpec([(0, F(1)), (1, F(1))], [(1, linear_plc(1))], "B")
    cert = verify(Market(2, (a, b)), p, QUASI)
    assert not cert.accepted and "unbounded demand" in cert.reason


def test_quasi_equals_exact_when_incomes_positive():
    m = build_mn(3)
    for vec in ([1, 1, 1], [1, 2, F(3, 2)], [1, 3, 1]):
        assert verify(m, prices(vec), EXACT).accepted == verify(m, prices(vec), QUASI).accepted


def test_every_entry_point_checks_price_length():
    m = build_mn(2)
    for vec in ([1, 2, 2], [1]):
        for mode in MODES:
            with pytest.raises(ShapeMismatch, match="expected 2 prices"):
                verify(m, prices(vec), mode, F(1, 2))


def test_every_entry_point_takes_an_exact_nonnegative_epsilon():
    m, p = build_mn(2), prices([1, 1])
    with pytest.raises(InputError, match="float"):
        verify(m, p, APPROXIMATE, 0.5)
    for eps in (-1, F(-1, 2), "-1/2"):
        with pytest.raises(InvalidMarket, match="nonnegative"):
            verify(m, p, APPROXIMATE, eps)
    assert verify(m, p, APPROXIMATE, "1/2") == verify(m, p, APPROXIMATE, F(1, 2))
    assert verify(m, p, EXACT, 0.5).epsilon == 0  # exact mode pins eps to 0


def test_verify_is_the_one_clearing_entry_point():
    # the Fraction demand view, its canonical fill, scorer and budget live in the tests
    names = ("clearing_feasibility", "imbalance_profile", "canonical_bundle", "budget")
    for name in names + ("optimal_demand", "DemandSet", "SegmentOffer"):
        assert name not in plcmarket.__all__
        for module in (plcmarket, clearing, demand):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_accepting_verify_computes_each_demand_once(monkeypatch):
    calls, supplies_calls = [], []
    supplies = Market.supplies

    def counting(v, P, trader_idx=None):
        calls.append(trader_idx)
        return int_demand(v, P, trader_idx)

    monkeypatch.setattr(clearing, "int_demand", counting)
    m = build_mn(4)
    monkeypatch.setattr(Market, "supplies", lambda self: supplies_calls.append(1) or supplies(self))
    assert verify(m, prices([1, 2, F(5, 4), F(11, 8)]), APPROXIMATE, F(1, 4)).accepted
    assert calls == list(range(len(m.traders)))
    assert len(supplies_calls) == 1


def test_accept_bundles_are_shared_within_one_call():
    """An accept holds one `Bundle` per distinct witness bundle, fewer than
    its traders, and a second call builds its own: M_4 and M_8 at in-box
    prices in every mode, and a reduced n = 2 market at eps 1/2."""
    rng = random.Random(0)
    cases = [(build_mn(n), _in_box(rng, n), mode, F(1, n) if mode == APPROXIMATE else 0)
             for n in (4, 8) for mode in MODES]
    reduced, meta = build_reduced_market(validate_game(*random_sparse_game_matrices(random.Random(0), 2)))
    cases.append((reduced, _in_box(rng, meta.n_goods), APPROXIMATE, F(1, 2)))
    for m, vec, mode, eps in cases:
        first, second = (verify(m, prices(vec), mode, eps).allocation for _ in range(2))
        assert first is not None and second == first, (m.n_goods, mode)
        ids = {id(b) for b in first}
        assert len(ids) == len(set(first)) < len(m.traders), (m.n_goods, mode)
        assert not ids & {id(b) for b in second}, (m.n_goods, mode)


def test_imbalance_profile_m2():
    m = build_mn(2)
    prof = imbalance_profile(m, prices([1, 1], normalized=True))
    assert all(r.imbalance == 0 for r in prof)
    prof2 = imbalance_profile(m, prices([1, 3], normalized=True))
    assert any(r.imbalance != 0 for r in prof2)


def test_imbalance_profile_indifferent_traders():
    # nobody buys anything: allocated 0, imbalance equals -supply
    t = TraderSpec([(0, F(2)), (1, F(1))], [])
    m = Market(2, (t,))
    prof = imbalance_profile(m, prices([1, 1]))
    assert [r.imbalance for r in prof] == [F(-2), F(-1)]


def test_epsilon_monotonicity():
    m = build_mn(3)
    rng = random.Random(5)
    for _ in range(20):
        vec = [1 + F(rng.randint(0, 24), 16) for _ in range(3)]
        p = normalize_prices(prices(vec))
        feasible_small = verify(m, p, APPROXIMATE, F(1, 8)).accepted
        feasible_big = verify(m, p, APPROXIMATE, F(1, 2)).accepted
        if feasible_small:
            assert feasible_big


def test_mode_hierarchy_on_exact_accepts():
    m = build_mn(3)
    p = prices([1, F(3, 2), 2])
    assert verify(m, p, EXACT).accepted
    for eps in (0, F(1, 3), F(1, 2)):
        assert verify(m, p, APPROXIMATE, eps).accepted
    assert verify(m, p, QUASI).accepted


def test_witness_revalidates():
    m = build_mn(4)
    p = normalize_prices(prices([1, 2, F(5, 4), F(11, 8)]))
    cert = verify(m, p, APPROXIMATE, F(1, 4))
    assert cert.accepted
    for i, t in enumerate(m.traders):
        assert bundle_in_demand(t, p, int_demand(own_scale_view(t), p.scaled[1], i), cert.allocation[i])
        assert dense_in_demand(t, p, optimal_demand(t, p, i), dense_view(cert.allocation[i].amounts, m.n_goods))
    for row in cert.report:
        assert abs(row.imbalance) <= row.bound


def test_certificates_deterministic():
    m = build_mn(3)
    p = prices([1, F(5, 4), 2])
    a = dumps(certificate_to_obj(verify(m, p, APPROXIMATE, F(1, 3))))
    b = dumps(certificate_to_obj(verify(m, p, APPROXIMATE, F(1, 3))))
    assert a == b


def test_zero_supply_good_requires_zero_allocation():
    # good 2 exists but nobody owns it; a trader wants it at a positive price
    a = TraderSpec([(0, F(1))], [(0, linear_plc(2)), (1, linear_plc(1))], "A")
    m = Market(2, (a,))
    # at p=(1,1) the trader spends everything on good 1: feasible
    assert verify(m, prices([1, 1]), APPROXIMATE, 0).accepted
    # at p=(2,1) the rates tie, so keeping the endowment still clears
    assert verify(m, prices([2, 1]), APPROXIMATE, 0).accepted
    # at p=(3,1) the unsupplied good is strictly better per unit money: infeasible
    assert not verify(m, prices([3, 1]), APPROXIMATE, 0).accepted


def test_free_good_is_disposed_of_in_exact_modes_and_topped_up_in_approximate():
    """A free good nobody wants: exact and quasi modes leave its supply
    unallocated (free disposal, window [0, S]), while approximate mode tops
    it up to its window floor S * (1 - eps), all to trader 0."""
    a = TraderSpec([(0, F(1)), (1, F(3))], [(0, linear_plc(1))], "A")
    b = TraderSpec([(0, F(1))], [(0, linear_plc(2))], "B")
    m = Market(2, (a, b))
    p = prices([F(5, 2), 0])
    for mode in (EXACT, QUASI):
        cert = verify(m, p, mode)
        assert [x.amounts for x in cert.allocation] == [((0, F(1)),), ((0, F(1)),)]
        assert cert.report[1].allocated == 0
    cert = verify(m, p, APPROXIMATE, F(1, 3))
    assert [x.amounts for x in cert.allocation] == [((0, F(1)), (1, F(2))), ((0, F(1)),)]
    assert cert.report[1].allocated == 2


def test_flow_matches_brute_force_smoke():
    rng = random.Random(11)
    agree = 0
    for _ in range(40):
        m = random_market(rng, max_goods=2, max_traders=2)
        p = prices([F(rng.choice([1, 2, 3, 4]), 2) for _ in range(m.n_goods)])
        eps = rng.choice([F(0), F(1, 4), F(1, 2)])
        cert = verify(m, p, APPROXIMATE, eps)
        if cert.reason and "unbounded" in cert.reason:
            continue
        assert cert.accepted == brute_force_clearing(m, p, eps)
        agree += 1
    assert agree >= 25


def _zero_income_m4():
    """M_4 plus a trader who owns nothing and wants good 0: quasi mode waives
    that trader, whose witness bundle is empty."""
    m = build_mn(4)
    return Market(4, m.traders + (TraderSpec([], [(0, linear_plc(1))]),))


def _reduced_n2():
    m, _ = build_reduced_market(validate_game(*random_sparse_game_matrices(random.Random(0), 2)))
    return m


def _unwaived(demands, waived):
    return next(i for i, d in enumerate(demands) if i not in waived and d.ties)


# The corruptions act on `_solve`'s integer witness on the unit Q: a priced
# good k counts 1/(Q * P_k), so an entry is its money in units of 1/(Q * D).

def _move_tie_money(m, p, demands, waived, x, Q):
    """Half the money a tie trader spends above the forced purchase on a tie
    good, moved to a priced good the trader does not want (rate 0)."""
    wanted = [{k for k, _ in t.wanted} for t in m.traders]
    P = p.scaled[1]
    for i, d in enumerate(demands):
        others = [g for g, q in enumerate(P) if q and g not in wanted[i]]
        if i in waived or not d.ties or not others:
            continue
        for k, _, _ in d.ties:
            extra = x[i].get(k, 0) - d.forced.get(k, 0) * (Q // d.den) * P[k]
            if extra > 0:
                money = (extra + 1) // 2
                x[i][k] -= money
                x[i][others[0]] = x[i].get(others[0], 0) + money
                return i
    raise AssertionError("no tie trader with a lower-rate good")


def _raise_past_budget(m, p, demands, waived, x, Q):
    i = _unwaived(demands, waived)
    k = next(g for g, q in enumerate(p.prices) if q)
    d = demands[i]
    x[i][k] = x[i].get(k, 0) + d.budget * (Q // d.den) + Q * p.scaled[0]  # the budget and one unit of money
    return i


def _make_negative(m, p, demands, waived, x, Q):
    i = _unwaived(demands, waived)
    x[i][next(iter(x[i]), 0)] = -1
    return i


def _drop_canonical_entry(m, p, demands, waived, x, Q):
    i = _unwaived(demands, waived)
    del x[i][next(k for k in x[i] if k in dict(m.traders[i].wanted))]
    return i


def _add_outside_good(m, p, demands, waived, x, Q):
    i = _unwaived(demands, waived)
    x[i][m.n_goods] = 0
    return i


def _give_waived_a_priced_good(m, p, demands, waived, x, Q):
    i = min(waived)
    x[i][next(g for g, q in enumerate(p.prices) if q)] = 1
    return i


def _give_waived_an_outside_good(m, p, demands, waived, x, Q):
    i = min(waived)
    x[i][m.n_goods] = 0
    return i


def _offset_waived_priced_goods(m, p, demands, waived, x, Q):
    """+1 and -1 on two priced goods: their money sums to 0."""
    i = min(waived)
    k, j = [g for g, q in enumerate(p.prices) if q][:2]
    x[i][k], x[i][j] = 1, -1
    return i


_CORRUPTIONS = [_move_tie_money, _raise_past_budget, _make_negative, _drop_canonical_entry, _add_outside_good]
_WITNESS_MARKETS = {
    "M_4": (_zero_income_m4, [1, 2, 1, 2], QUASI, 0),
    "reduced-n2": (_reduced_n2, [1] * 6, APPROXIMATE, F(1, 2)),
}


def _corrupting_solve(corrupt, hit):
    """clearing._solve whose integer witness is corrupted by corrupt, which
    names the trader it changed in hit."""
    solve = clearing._solve

    def corrupted(m, p, demands, waived, windows):
        x = solve(m, p, demands, waived, windows)
        hit.append(corrupt(m, p, demands, waived, x, windows[0]))
        return x

    return corrupted


@pytest.mark.parametrize(
    "market, corrupt",
    [(market, f) for market in _WITNESS_MARKETS for f in _CORRUPTIONS]
    # only quasi mode waives a trader
    + [("M_4", f) for f in (_give_waived_a_priced_good, _give_waived_an_outside_good, _offset_waived_priced_goods)],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_witness_recheck_rejects_a_corrupted_witness(monkeypatch, market, corrupt):
    build, vec, mode, eps = _WITNESS_MARKETS[market]
    m, p = build(), prices(vec)
    assert verify(m, p, mode, eps).accepted
    hit = []
    monkeypatch.setattr(clearing, "_solve", _corrupting_solve(corrupt, hit))
    with pytest.raises(InternalInvariantViolation) as exc:
        verify(m, p, mode, eps)
    # the trader check fails, before any clearing window is looked at
    assert f"trader {hit[0]} " in str(exc.value)


def test_verify_cli_exits_3_on_a_corrupted_witness(tmp_path, monkeypatch):
    market, vec = tmp_path / "m.json", tmp_path / "p.json"
    market.write_text(dumps(build_mn(4)))
    vec.write_text(dumps(prices_to_obj(prices([1, 2, F(5, 4), F(11, 8)]))))
    args = ["verify", "--market", str(market), "--prices", str(vec), "--mode", "approximate", "--eps", "1/4"]
    assert CliRunner().invoke(main, args).exit_code == 0
    monkeypatch.setattr(clearing, "_solve", _corrupting_solve(_drop_canonical_entry, []))
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 3 and "internal invariant violation" in res.output


# --- the shortcuts around the flow ------------------------------------------------
#
# `clearing._solve` decides without a flow where it can.  Where no trader has
# a choice (`clearing._determined`), it routes each spending trader's money
# to its one tie good without building a network: the circulation is unique
# there, so the flow must give the same bytes.  Elsewhere the one-good cut
# (`clearing._short_good`) rejects before the flow runs, and it must reject
# only where the flow would.  On the benchmark's kinds of traffic routing
# should decide every verdict.


def _certificate_bytes(m, p, mode, eps):
    return dumps(certificate_to_obj(verify(m, p, mode, eps)))


def _in_box(rng, n):
    return [F(rng.randint(1001, 1999), 1000) for _ in range(n)]


def _benchmark_traffic():
    """(label, market, prices, mode, eps) drawn as the benchmark draws its
    verify inputs: reduced markets of seeded sparse games at n = 2 and 4 with
    in-box prices at eps N^-13 and 1/2, and M_4 and M_8 with one price pushed
    out of the box or set to zero, or with in-box prices, in every mode."""
    for n in (2, 4):
        for seed in range(6):
            rng = random.Random(seed)
            m, meta = build_reduced_market(validate_game(*random_sparse_game_matrices(rng, n)))
            p = _in_box(rng, meta.n_goods)
            for eps in (F(1, meta.n_goods**13), F(1, 2)):
                yield f"reduced{n}-{seed}-{eps}", m, p, APPROXIMATE, eps
    for n in (4, 8):
        m, rng = build_mn(n), random.Random(n)
        for kind in ("pushed", "zero", "inbox"):
            for j in range(3):
                p = _in_box(rng, n)
                if kind != "inbox":
                    k = rng.randrange(n)
                    p[k] = 2 * min(p[:k] + p[k + 1:]) + F(rng.randint(1, 1000), 1000) if kind == "pushed" else F(0)
                for mode in MODES:
                    yield f"M{n}-{kind}{j}-{mode}", m, p, mode, F(1, n) if mode == APPROXIMATE else 0


def _flowless_verdicts(monkeypatch, keep):
    """The certificates of the benchmark's kinds of traffic that `keep`
    selects, each checked to be decided without a flow and to keep the bytes
    the flow gives with neither routing nor the one-good cut in the way."""
    flows = []
    circulation = clearing.feasible_circulation

    def counting(arcs):
        flows.append(arcs)
        return circulation(arcs)

    kept = []
    for label, m, vec, mode, eps in _benchmark_traffic():
        flows.clear()
        with monkeypatch.context() as patch:
            patch.setattr(clearing, "feasible_circulation", counting)
            cert = verify(m, prices(vec), mode, eps)
        if not keep(cert):
            continue
        kept.append(cert)
        assert not flows, label
        with monkeypatch.context() as patch:
            patch.setattr(clearing, "_determined", lambda *args: False)
            patch.setattr(clearing, "_short_good", lambda *args: False)
            assert _certificate_bytes(m, prices(vec), mode, eps) == dumps(certificate_to_obj(cert)), label
    return kept


def test_the_one_good_cut_decides_the_benchmarks_clearing_rejects(monkeypatch):
    """Every reject of the benchmark's kinds of traffic is decided without a
    flow, and its certificate keeps the bytes the flow gives; at least 20 of
    them are clearing rejects."""
    rejects = _flowless_verdicts(monkeypatch, lambda cert: not cert.accepted)
    clearing_rejects = sum(cert.reason == "clearing-infeasible" for cert in rejects)
    assert clearing_rejects >= 20, clearing_rejects


def test_routing_decides_the_benchmarks_accepts(monkeypatch):
    """Every accept of the benchmark's kinds of traffic is decided without a
    flow, and its certificate keeps the bytes the flow gives."""
    accepts = len(_flowless_verdicts(monkeypatch, lambda cert: cert.accepted))
    assert accepts >= 20, accepts


def test_the_one_good_cut_rejects_only_what_the_flow_rejects():
    """Every certificate keeps its bytes when the one-good cut never
    rejects, so the flow decides where it would, in every mode and at eps 0,
    N^-13 and 1/2, on random, tie-rich, M_n, reduced and mixed-denominator
    markets, some of them at prices with zeros; the cut rejects in the run."""
    short_good = clearing._short_good
    cuts = []

    def counting(*args):
        cut = short_good(*args)
        cuts.append(cut)
        return cut

    @given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(["random", "tie-rich", "mn", "reduced", "coprime"]))
    def referee(seed, family):
        m, p = random_instance(random.Random(seed), family)
        n = m.n_goods
        for mode, eps in ((EXACT, 0), (QUASI, 0), (APPROXIMATE, F(1, n**13)), (APPROXIMATE, F(1, 2))):
            with mock.patch.object(clearing, "_short_good", counting):
                cut = _certificate_bytes(m, p, mode, eps)
            with mock.patch.object(clearing, "_short_good", lambda *args: False):
                assert _certificate_bytes(m, p, mode, eps) == cut, (family, seed, mode, eps)

    referee()
    assert any(cuts), len(cuts)


def test_routing_keeps_the_flows_bytes():
    """Every certificate keeps its bytes when the flow decides every `_solve`
    call, in every mode and at eps 0, N^-13 and 1/2, on random, tie-rich,
    M_n, reduced and mixed-denominator markets, some of them at prices with
    zeros; every family reaches both branches."""
    determined = clearing._determined
    families = ["random", "tie-rich", "mn", "reduced", "coprime"]
    ran = set()  # (family, routed)

    @given(seed=st.integers(0, 2**32 - 1), family=st.sampled_from(families))
    def referee(seed, family):
        def counting(demands, counted):
            routed = determined(demands, counted)
            ran.add((family, routed))
            return routed

        m, p = random_instance(random.Random(seed), family)
        n = m.n_goods
        for mode, eps in ((EXACT, 0), (QUASI, 0), (APPROXIMATE, F(1, n**13)), (APPROXIMATE, F(1, 2))):
            with mock.patch.object(clearing, "_determined", counting):
                routed = _certificate_bytes(m, p, mode, eps)
            with mock.patch.object(clearing, "_determined", lambda *args: False):
                assert _certificate_bytes(m, p, mode, eps) == routed, (family, seed, mode, eps)

    referee()
    assert ran == {(f, routed) for f in families for routed in (True, False)}, ran
