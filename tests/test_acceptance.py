"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact rational equality unless a tolerance is part of the
claim being tested.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from click.testing import CliRunner

from plcmarket.clearing import APPROXIMATE, EXACT, QUASI, verify
from plcmarket.cli import main as cli_main
from plcmarket.errors import DegenerateExtraction, PLCValidationError, UnboundedDemand
from plcmarket.games import check_wsne, mixed, solve_game_support_enum, validate_game
from plcmarket.model import classify_market, normalize_prices, prices
from plcmarket.plc import validate_plc
from plcmarket.reduction import build_reduced_market, extract_strategies
from plcmarket.regulating import build_mn

from oracles import (
    brute_force_clearing,
    canonical_bundle,
    dense_utility,
    dense_view,
    gadget_vectors_col,
    gadget_vectors_row,
    grid_max_utility,
    optimal_demand,
    plc_predicate,
    random_market,
    random_sparse_game_matrices,
    regulation_forward_witness,
    tie_rich_market,
)


@contextmanager
def criterion(num: int, name: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {name}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit_s
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name} ({elapsed:.1f}s, limit {limit_s:.0f}s)")
    assert ok, f"criterion {num} exceeded its runtime limit"


# --- 1: PLC validation against the independent predicate -----------------------


def _random_representation(rng: random.Random):
    """Valid and broken slope/breakpoint lists in roughly equal measure."""
    segs = rng.randint(1, 4)
    slopes = sorted(
        {F(rng.randint(0, 40), rng.choice([1, 2, 4, 8])) for _ in range(segs)},
        reverse=True,
    )
    breaks = sorted({F(rng.randint(1, 32), rng.choice([1, 2, 4, 8])) for _ in range(len(slopes) - 1)})
    mutation = rng.random()
    if mutation < 0.15 and len(slopes) > 1:
        slopes[0], slopes[-1] = slopes[-1], slopes[0]  # break monotonicity
    elif mutation < 0.25:
        slopes = slopes + [slopes[-1]]  # duplicate slope / length mismatch
    elif mutation < 0.35 and slopes:
        slopes[rng.randrange(len(slopes))] = F(-rng.randint(1, 5))
    elif mutation < 0.45 and breaks:
        breaks[rng.randrange(len(breaks))] = F(0)
    elif mutation < 0.55 and len(breaks) > 1:
        breaks[0], breaks[-1] = breaks[-1], breaks[0]
    elif mutation < 0.60:
        breaks = breaks + [F(rng.randint(1, 32), 8)]
    return list(slopes), list(breaks)


def test_criterion_01_plc_validation():
    with criterion(1, "PLC validation matches the definition predicate", 10):
        rng = random.Random(101)
        for _ in range(1000):
            slopes, breaks = _random_representation(rng)
            expected = plc_predicate(slopes, breaks)
            try:
                f = validate_plc(slopes, breaks)
                got = True
            except PLCValidationError:
                got = False
            assert got == expected, f"disagreement on {slopes} / {breaks}"
            if got and not f.is_zero:
                assert f.slopes == tuple(slopes) and f.breaks == tuple(breaks)


# --- 2: demand oracle vs exhaustive grid ---------------------------------------


def test_criterion_02_demand_oracle_optimality():
    with criterion(2, "canonical demand beats every grid bundle", 60):
        rng = random.Random(202)
        done = nonvacuous = 0
        while done < 200:
            m = random_market(rng, max_goods=3, max_traders=1, den=8)
            t = m.traders[0]
            p = prices([F(rng.randint(4, 16), 8) for _ in range(m.n_goods)])
            d = optimal_demand(t, p)
            if d.budget > F(3, 2) or d.budget == 0:
                continue
            util = dense_utility(t, dense_view(canonical_bundle(d).amounts, m.n_goods))
            best_on_grid = grid_max_utility(t, p, den=16)
            assert util >= best_on_grid
            nonvacuous += best_on_grid > 0
            done += 1
        assert nonvacuous >= 150  # the sweep saw mostly markets with real demand


# --- 3: price regulation, forward direction ------------------------------------


def _in_box_samples(rng: random.Random, n: int, count: int):
    out = []
    if n <= 4:
        for mask in range(2**n):
            out.append([F(2) if mask >> k & 1 else F(1) for k in range(n)])
    while len(out) < count:
        vec = [1 + F(rng.randint(0, 32), 32) for _ in range(n)]
        vec[rng.randrange(n)] = F(1)
        out.append(vec)
    return out


def _suite3_instances():
    """The criterion-3 instance stream, shared with criterion 8."""
    rng = random.Random(303)
    for n in range(2, 9):
        for vec in _in_box_samples(rng, n, 100):
            yield n, vec


def test_criterion_03_regulation_forward():
    with criterion(3, "in-box prices accept with zero imbalance (n=2..8)", 60):
        for n, vec in _suite3_instances():
            cert = regulation_forward_witness(n, prices(vec))
            assert cert.accepted
            assert all(row.imbalance == 0 for row in cert.report)
            assert cert.epsilon == F(1, n)


# --- 4: price regulation, converse ----------------------------------------------


def test_criterion_04_regulation_converse():
    with criterion(4, "out-of-box prices reject at eps=1/n (n=2..6)", 120):
        rng = random.Random(404)
        for n in range(2, 7):
            m = build_mn(n)
            samples = []
            for _ in range(100):
                vec = [1 + F(rng.randint(0, 32), 32) for _ in range(n)]
                anchor = rng.randrange(n)
                vec[anchor] = F(1)
                bump = rng.choice([k for k in range(n) if k != anchor])
                vec[bump] = 2 + (F(1, n * n) if rng.random() < 0.5 else F(rng.randint(1, 32), 32))
                samples.append(vec)
            for k in range(n):  # a zero price is also outside the box
                vec = [F(3, 2)] * n
                vec[k] = F(0)
                vec[(k + 1) % n] = F(1)
                samples.append(vec)
            for vec in samples:
                p = normalize_prices(prices(vec))
                assert max(p.prices) > 2 or min(p.prices) < 1
                cert = verify(m, p, APPROXIMATE, F(1, n))
                assert not cert.accepted, f"n={n}, p={p.prices}"


# --- 5: reduction structure -------------------------------------------------------


def _gadget_checks(game, n):
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
                assert gv.E + sum(gv.C) == gv.F + sum(gv.D)
                assert 0 <= gv.E <= 40 and 0 <= gv.F <= 40
                assert sum(1 for c in gv.C if c != 0) <= 20
                assert sum(1 for d in gv.D if d != 0) <= 20
                assert all(0 <= c <= 2 for c in gv.C) and all(0 <= d <= 2 for d in gv.D)


def test_criterion_05_reduction_structure():
    with criterion(5, "reduced markets are 2-linear, 27-bounded, 23-sparse, connected", 60):
        rng = random.Random(505)
        sizes = list(range(2, 17)) + list(range(2, 17)) + [rng.randint(2, 9) for _ in range(20)]
        assert len(sizes) >= 50
        for n in sizes:
            A, B = random_sparse_game_matrices(rng, n)
            game = validate_game(A, B)
            market, meta = build_reduced_market(game)
            assert market.n_goods == 2 * n + 2
            rep = classify_market(market, 27, 23)
            assert rep.is_2_linear and rep.alpha_ok and rep.sparsity_ok and rep.strongly_connected
            for t in market.traders:
                assert sum(1 for _, w in t.owned if w > 0) <= 22
                assert sum(1 for _, f in t.wanted if not f.is_zero) <= 23
            _gadget_checks(game, n)


# --- 6: flow solver vs brute force -----------------------------------------------


def _tiny_instance(rng: random.Random):
    if rng.random() < 0.7:
        vec = [F(rng.choice([1, 2, 3, 4]), 2) for _ in range(2)]
        return tie_rich_market(rng, tuple(vec)), prices(vec)
    m = random_market(rng, max_goods=2, max_traders=2, den=8)
    vec = [F(rng.choice([1, 2, 3, 4]), 2) for _ in range(m.n_goods)]
    return m, prices(vec)


def _suite6_instances():
    """The criterion-6 instance stream (100 tiny solvable markets), shared
    with criterion 8."""
    rng = random.Random(606)
    produced = 0
    while produced < 100:
        m, p = _tiny_instance(rng)
        eps = rng.choice([F(0), F(1, 8), F(1, 4), F(1, 2)])
        try:
            demands = [optimal_demand(t, p, i) for i, t in enumerate(m.traders)]
        except UnboundedDemand:
            continue
        produced += 1
        yield m, p, eps, demands


def test_criterion_06_verifier_equals_brute_force():
    with criterion(6, "flow feasibility verdict equals exhaustive enumeration", 60):
        feasible = infeasible = with_ties = 0
        for m, p, eps, demands in _suite6_instances():
            got = verify(m, p, APPROXIMATE, eps).accepted
            want = brute_force_clearing(m, p, eps)
            assert got == want, f"disagreement on {m} at {p.prices}, eps={eps}"
            feasible += got
            infeasible += not got
            with_ties += any(len(d.tie_offers) > 1 for d in demands)
        # the comparison saw both verdicts and genuinely tied frontiers
        assert feasible >= 20 and infeasible >= 20 and with_ties >= 25


# --- 7: Nash cross-validation ------------------------------------------------------


def test_criterion_07_nash_cross_validation():
    with criterion(7, "support enumeration vs well-supported checker", 60):
        rng = random.Random(707)
        games = [
            validate_game([[1, 0], [0, 1]], [[1, 0], [0, 1]]),
            validate_game([[1, -1], [-1, 1]], [[-1, 1], [1, -1]]),
            validate_game([[0, 0], [0, 0]], [[0, 0], [0, 0]]),
        ]
        for n in (2, 3):
            for _ in range(25):
                A, B = random_sparse_game_matrices(rng, n)
                games.append(validate_game(A, B))
        assert len(games) >= 50

        corrupted = 0
        for game in games:
            equilibria = solve_game_support_enum(game)
            assert equilibria, "support enumeration found no equilibrium"
            for x, y in equilibria:
                assert check_wsne(game, x, y, 0).passed
            # corrupt: pile all row mass on a strictly worse action, when one exists
            x, y = equilibria[0]
            row_pay = [
                sum(game.A[i][k] * y.weights[k] for k in range(game.n))
                for i in range(game.n)
            ]
            worst = min(range(game.n), key=lambda i: row_pay[i])
            if row_pay[worst] == max(row_pay):
                continue  # all rows equal; nothing to corrupt
            bad_x = mixed([1 if i == worst else 0 for i in range(game.n)])
            res = check_wsne(game, bad_x, y, 0)
            assert not res.passed
            wi, wj, side = res.witness
            assert side == "row"
            assert row_pay[wi] < row_pay[wj] and bad_x.weights[wi] > 0
            corrupted += 1
        assert corrupted >= 30


# --- 8: mode hierarchy --------------------------------------------------------------


def test_criterion_08_mode_hierarchy():
    with criterion(8, "exact accepts imply approximate and quasi accepts", 30):
        # suite-3 instances, deterministic stride to stay inside the time cap
        markets = {}
        for idx, (n, vec) in enumerate(_suite3_instances()):
            if idx % 5:
                continue
            m = markets.setdefault(n, build_mn(n))
            p = prices(vec)
            assert verify(m, p, EXACT).accepted  # in-box prices are exact equilibria
            for eps in (F(0), F(1, n), F(1, 2)):
                assert verify(m, p, APPROXIMATE, eps).accepted
            assert verify(m, p, QUASI).accepted
        # suite-6 instances, filtered to the exact accepts
        hits = 0
        for m, p, _, _ in _suite6_instances():
            if not verify(m, p, EXACT).accepted:
                continue
            hits += 1
            for eps in (F(0), F(1, m.n_goods), F(1, 2)):
                assert verify(m, p, APPROXIMATE, eps).accepted
            assert verify(m, p, QUASI).accepted
        assert hits >= 10


# --- 9: extraction round trip ---------------------------------------------------------


def test_criterion_09_extraction_round_trip():
    with criterion(9, "strategy extraction round-trips in-box prices", 10):
        rng = random.Random(909)
        done = 0
        while done < 100:
            n = rng.randint(2, 5)
            A, B = random_sparse_game_matrices(rng, n)
            _, meta = build_reduced_market(validate_game(A, B))
            vec = [1 + F(rng.randint(0, 16), 16) for _ in range(2 * n + 2)]
            if all(v == 1 for v in vec[:n]) or all(v == 1 for v in vec[n : 2 * n]):
                continue
            p = prices(vec)
            ex = extract_strategies(p, meta)
            rebuilt = tuple(1 + w for w in ex.x_raw + ex.y_raw)
            assert rebuilt == p.prices[: 2 * n]
            assert not ex.clamped
            assert sum(ex.x.weights) == 1 and sum(ex.y.weights) == 1
            done += 1
        # degenerate block raises
        _, meta = build_reduced_market(validate_game([[0, 0], [0, 0]], [[0, 0], [0, 0]]))
        try:
            extract_strategies(prices([1, 1, 1, 2, 1, 1]), meta)
            assert False, "degenerate extraction did not raise"
        except DegenerateExtraction:
            pass


# --- 10: pipeline determinism -----------------------------------------------------------


def _run_pipeline(tmp_path, name: str):
    game_file = tmp_path / "game.json"
    game_file.write_text(
        json.dumps({"n": 2, "A": [["1", "0"], ["0", "1"]], "B": [["1", "0"], ["0", "1"]]})
    )
    outdir = tmp_path / name
    result = CliRunner().invoke(
        cli_main,
        ["pipeline", "--game", str(game_file), "--outdir", str(outdir),
         "--grid-k", "1", "--rounds", "2"],
    )
    assert result.exit_code in (0, 1), result.output
    return outdir


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "pipeline artifacts are byte-identical across runs", 120):
        run1 = _run_pipeline(tmp_path, "run1")
        run2 = _run_pipeline(tmp_path, "run2")
        names = sorted(p.name for p in run1.iterdir())
        assert names == sorted(p.name for p in run2.iterdir())
        assert "market.json" in names and "search.json" in names and "summary.json" in names
        for name in names:
            assert (run1 / name).read_bytes() == (run2 / name).read_bytes(), name
        trace = json.loads((run1 / "search.json").read_text())["trace"]
        scores = []
        for _, text in trace:
            scores.append(None if text == "inf" else F(text.split("/")[0]) / F(text.split("/")[1]))
        assert len(scores) == 3
        for a, b in zip(scores, scores[1:]):
            if a is not None:
                assert b is not None and b <= a
