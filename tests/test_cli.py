import json
import time

from click.testing import CliRunner

from plcmarket.cli import main


def run(*args):
    return CliRunner().invoke(main, list(args))


def write(path, obj):
    path.write_text(json.dumps(obj))


COORD = {"n": 2, "A": [["1", "0"], ["0", "1"]], "B": [["1", "0"], ["0", "1"]]}


def test_gen_mn_and_validate(tmp_path):
    out = tmp_path / "m2.json"
    assert run("gen-mn", "--n", "2", "-o", str(out)).exit_code == 0
    res = run("validate", str(out))
    assert res.exit_code == 0
    assert "OK" in res.output


def test_gen_mn_rejects_small_n():
    assert run("gen-mn", "--n", "1").exit_code == 2


def test_verify_exit_codes(tmp_path):
    market = tmp_path / "m.json"
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    assert run("gen-mn", "--n", "2", "-o", str(market)).exit_code == 0
    write(good, {"prices": ["1", "2"], "normalized": True})
    write(bad, {"prices": ["1", "3"], "normalized": True})
    assert run("verify", "--market", str(market), "--prices", str(good),
               "--mode", "approximate", "--eps", "1/2").exit_code == 0
    assert run("verify", "--market", str(market), "--prices", str(bad),
               "--mode", "approximate", "--eps", "1/2").exit_code == 1
    assert run("verify", "--market", str(market), "--prices", str(good),
               "--mode", "exact").exit_code == 0


def test_malformed_json_is_input_error(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    res = run("validate", str(broken))
    assert res.exit_code == 2
    market = tmp_path / "m.json"
    run("gen-mn", "--n", "2", "-o", str(market))
    res = run("verify", "--market", str(market), "--prices", str(broken))
    assert res.exit_code == 2


def test_validate_rejects_negative_endowment(tmp_path):
    bad = tmp_path / "bad_market.json"
    write(bad, {
        "n_goods": 1,
        "traders": [{"endowment": ["-1"], "utilities": [{"kind": "zero"}]}],
    })
    assert run("validate", str(bad)).exit_code == 2


def test_market_row_of_the_wrong_length_is_input_error(tmp_path):
    market = tmp_path / "m2.json"
    assert run("gen-mn", "--n", "2", "-o", str(market)).exit_code == 0
    good = json.loads(market.read_text())
    p = tmp_path / "p.json"
    write(p, {"prices": ["1", "2"], "normalized": True})
    for key, row in (("endowment", ["1/2"]), ("endowment", ["1/2", "0/1", "0/1"]),
                     ("utilities", [{"kind": "zero"}])):
        bad = tmp_path / f"bad_{key}_{len(row)}.json"
        obj = json.loads(json.dumps(good))
        obj["traders"][1][key] = row
        write(bad, obj)
        res = run("verify", "--market", str(bad), "--prices", str(p), "--eps", "1/2")
        assert res.exit_code == 2 and "trader 1" in res.output
        res = run("validate", str(bad))
        assert res.exit_code == 2 and "INVALID" in res.output


def test_meta_that_contradicts_its_game_size_is_input_error(tmp_path):
    meta = tmp_path / "meta.json"
    write(meta, {"game_n": 1, "n_goods": 99, "s_count": 7, "i_count": 0, "u_pairs": [[5, 5]], "v_pairs": [[5, 5]]})
    res = run("validate", str(meta))
    assert res.exit_code == 2 and "INVALID" in res.output
    stale = tmp_path / "stale.json"
    write(stale, {"game_n": 2, "n_goods": 99, "s_count": 30, "i_count": 4,
                  "u_pairs": [[0, 1], [1, 0]], "v_pairs": [[0, 1], [1, 0]]})
    res = run("validate", str(stale))
    assert res.exit_code == 2 and "n_goods disagrees with game_n=2" in res.output
    p = tmp_path / "p.json"
    write(p, {"prices": ["2", "1", "1", "2", "1", "1"], "normalized": True})
    res = run("extract", "--prices", str(p), "--meta", str(stale))
    assert res.exit_code == 2 and "n_goods" in res.output


def test_reduce_extract_check_nash(tmp_path):
    game = tmp_path / "game.json"
    write(game, COORD)
    market = tmp_path / "market.json"
    meta = tmp_path / "meta.json"
    assert run("reduce", "--game", str(game), "-o", str(market), "--meta", str(meta)).exit_code == 0
    assert run("validate", str(market), str(meta), str(game)).exit_code == 0

    p = tmp_path / "prices.json"
    write(p, {"prices": ["2", "1", "2", "1", "1", "1"], "normalized": True})
    strat = tmp_path / "strat.json"
    assert run("extract", "--prices", str(p), "--meta", str(meta), "-o", str(strat)).exit_code == 0
    loaded = json.loads(strat.read_text())
    assert loaded["x"] == ["1/1", "0/1"] and loaded["y"] == ["1/1", "0/1"]

    # (e1, e1) is an exact equilibrium of the coordination game
    assert run("check-nash", "--game", str(game), "--profile", str(strat), "--eps", "0").exit_code == 0
    # the mismatched pure profile fails at eps = 0
    write(strat, {"x": ["1", "0"], "y": ["0", "1"]})
    res = run("check-nash", "--game", str(game), "--profile", str(strat), "--eps", "0", "--json")
    assert res.exit_code == 1
    assert json.loads(res.output)["witness"] is not None


def test_check_nash_wrong_length_profile_is_input_error(tmp_path):
    game = tmp_path / "game.json"
    write(game, COORD)
    strat = tmp_path / "strat.json"
    write(strat, {"x": ["0", "0", "1"], "y": ["1", "0"]})
    res = run("check-nash", "--game", str(game), "--profile", str(strat), "--eps", "0")
    assert res.exit_code == 2 and "weights" in res.output


def test_check_nash_relative_eps(tmp_path):
    game = tmp_path / "game.json"
    write(game, COORD)
    strat = tmp_path / "strat.json"
    write(strat, {"x": ["1", "0"], "y": ["1", "0"]})
    res = run("check-nash", "--game", str(game), "--profile", str(strat), "--eps", "n^-6", "--json")
    assert res.exit_code == 0
    assert json.loads(res.output)["epsilon"] == "1/64"


def test_solve_game_cli(tmp_path):
    game = tmp_path / "game.json"
    write(game, COORD)
    res = run("solve-game", "--game", str(game), "--json")
    assert res.exit_code == 0
    assert len(json.loads(res.output)["equilibria"]) == 3


def test_solve_game_past_the_support_enumeration_cap_is_input_error(tmp_path):
    game = tmp_path / "game.json"
    write(game, {"n": 5, "A": [["0"] * 5] * 5, "B": [["0"] * 5] * 5})
    res = run("solve-game", "--game", str(game))
    assert res.exit_code == 2 and "capped at n = 4" in res.output


def test_search_eq_cli(tmp_path):
    market = tmp_path / "m2.json"
    run("gen-mn", "--n", "2", "-o", str(market))
    out = tmp_path / "report.json"
    res = run("search-eq", "--market", str(market), "--eps", "1/2",
              "--grid-k", "4", "--rounds", "0", "-o", str(out))
    assert res.exit_code == 0
    report = json.loads(out.read_text())
    assert report["accepted"] is True
    assert report["best_price"]["normalized"] is True


def test_pipeline_artifacts(tmp_path):
    game = tmp_path / "game.json"
    write(game, COORD)
    outdir = tmp_path / "run"
    res = run("pipeline", "--game", str(game), "--outdir", str(outdir),
              "--grid-k", "1", "--rounds", "1")
    assert res.exit_code in (0, 1)  # finding an equilibrium at N^-13 is not promised
    for name in ("market.json", "meta.json", "search.json", "summary.json"):
        assert (outdir / name).exists()
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["n_goods"] == 6
    assert summary["support_enum"] is not None
    if not summary["equilibrium_found"]:
        assert summary["nash_check"] == {"status": "skipped-by-precision"}


ONE_GOOD = {"n_goods": 1, "traders": [
    {"endowment": ["1"], "utilities": [{"slopes": ["1"], "breaks": []}]}]}


def test_verify_rejects_wrong_length_prices(tmp_path):
    market = tmp_path / "m.json"
    write(market, ONE_GOOD)
    long_p = tmp_path / "long.json"
    write(long_p, {"prices": ["1", "5"]})
    res = run("verify", "--market", str(market), "--prices", str(long_p))
    assert res.exit_code == 2 and "expected 1 prices" in res.output
    m2 = tmp_path / "m2.json"
    run("gen-mn", "--n", "2", "-o", str(m2))
    short_p = tmp_path / "short.json"
    write(short_p, {"prices": ["1"]})
    res = run("verify", "--market", str(m2), "--prices", str(short_p))
    assert res.exit_code == 2 and "expected 2 prices" in res.output


def test_json_true_is_not_an_int(tmp_path):
    market = tmp_path / "m.json"
    write(market, {**ONE_GOOD, "n_goods": True})
    p = tmp_path / "p.json"
    write(p, {"prices": ["1"]})
    assert run("verify", "--market", str(market), "--prices", str(p)).exit_code == 2
    assert run("validate", str(market)).exit_code == 2
    game = tmp_path / "game.json"
    write(game, {**COORD, "n": True})
    assert run("validate", str(game)).exit_code == 2


def test_json_true_after_an_equal_entry_is_still_rejected(tmp_path):
    # true == 1 and hash(true) == hash(1): the parser must not reuse the value
    # it parsed for an earlier 1 when it meets true
    p = tmp_path / "p.json"
    write(p, {"prices": ["1", "1"]})
    market = tmp_path / "m.json"
    one = {"slopes": [1], "breaks": []}
    bad = (
        ([1, 1], [one, one], [1, True], [one, one]),
        (["1", 1], [one, one], ["1", True], [one, one]),
        (["1", "0"], [one, one], ["0", "1"], [one, {"slopes": [True], "breaks": []}]),
        (["1", "0"], [{"slopes": ["1"], "breaks": []}] * 2, ["0", "1"],
         [{"slopes": ["1"], "breaks": []}, {"slopes": [True], "breaks": []}]),
    )
    for w0, u0, w1, u1 in bad:
        traders = [{"endowment": w0, "utilities": u0}, {"endowment": w1, "utilities": u1}]
        write(market, {"n_goods": 2, "traders": traders})
        assert run("validate", str(market)).exit_code == 2
        res = run("verify", "--market", str(market), "--prices", str(p))
        assert res.exit_code == 2 and "true" in res.output.lower()


def test_game_row_that_is_not_a_list_is_input_error(tmp_path):
    game = tmp_path / "game.json"
    for A in ([5, 5], ["10", "01"]):
        write(game, {**COORD, "A": A})
        res = run("reduce", "--game", str(game), "-o", str(tmp_path / "m.json"),
                  "--meta", str(tmp_path / "meta.json"))
        assert res.exit_code == 2 and "row of A" in res.output
        assert run("validate", str(game)).exit_code == 2


def test_huge_eps_exponent_is_rejected_promptly(tmp_path):
    market = tmp_path / "m.json"
    run("gen-mn", "--n", "2", "-o", str(market))
    p = tmp_path / "p.json"
    write(p, {"prices": ["1", "2"]})
    game = tmp_path / "game.json"
    write(game, COORD)
    strat = tmp_path / "strat.json"
    write(strat, {"x": ["1", "0"], "y": ["1", "0"]})
    start = time.perf_counter()
    res = run("verify", "--market", str(market), "--prices", str(p), "--eps", "N^-1000000000")
    assert res.exit_code == 2 and "[-64, 0]" in res.output
    res = run("check-nash", "--game", str(game), "--profile", str(strat), "--eps", "n^-65")
    assert res.exit_code == 2 and "[-64, 0]" in res.output
    assert time.perf_counter() - start < 5
    res = run("check-nash", "--game", str(game), "--profile", str(strat), "--eps", "n^-64", "--json")
    assert res.exit_code == 0 and json.loads(res.output)["epsilon"] == f"1/{2 ** 64}"


def test_undecodable_json_is_input_error(tmp_path):
    market = tmp_path / "m.json"
    run("gen-mn", "--n", "2", "-o", str(market))
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"prices": ["1", "2"], "label": "\xe9"}')
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    for bad in (latin, nested):
        res = run("validate", str(bad))
        assert res.exit_code == 2 and "INVALID" in res.output
        res = run("verify", "--market", str(market), "--prices", str(bad))
        assert res.exit_code == 2 and "invalid JSON" in res.output


def test_unexpected_exception_exits_3(tmp_path, monkeypatch):
    market = tmp_path / "m.json"
    run("gen-mn", "--n", "2", "-o", str(market))
    p = tmp_path / "p.json"
    write(p, {"prices": ["1", "2"]})

    def crash(*args, **kwargs):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr("plcmarket.cli.verify", crash)
    res = run("verify", "--market", str(market), "--prices", str(p))
    assert res.exit_code == 3 and "internal error" in res.output
    monkeypatch.setattr("plcmarket.cli._validate_one", crash)
    assert run("validate", str(p)).exit_code == 3


def test_bad_search_config_is_input_error(tmp_path):
    market = tmp_path / "m2.json"
    run("gen-mn", "--n", "2", "-o", str(market))
    game = tmp_path / "game.json"
    write(game, COORD)
    res = run("search-eq", "--market", str(market), "--rounds", "-1")
    assert res.exit_code == 2 and "refine_rounds" in res.output
    res = run("pipeline", "--game", str(game), "--outdir", str(tmp_path / "run"), "--rounds", "-1")
    assert res.exit_code == 2 and "refine_rounds" in res.output
    res = run("search-eq", "--market", str(market), "--box-lo", "0", "--box-hi", "0")
    assert res.exit_code == 2 and "nonzero" in res.output


def test_too_many_rounds_is_input_error_promptly(tmp_path):
    market = tmp_path / "m2.json"
    run("gen-mn", "--n", "2", "-o", str(market))
    game = tmp_path / "game.json"
    write(game, COORD)
    for rounds in ("65", "1000000000"):
        start = time.perf_counter()
        res = run("search-eq", "--market", str(market), "--grid-k", "1", "--eps", "1/2", "--rounds", rounds)
        assert res.exit_code == 2 and "refine_rounds" in res.output
        res = run("pipeline", "--game", str(game), "--outdir", str(tmp_path / "run"), "--rounds", rounds)
        assert res.exit_code == 2 and "refine_rounds" in res.output
        assert time.perf_counter() - start < 5


def test_pipeline_checks_its_settings_before_writing_anything(tmp_path):
    game = tmp_path / "game.json"
    write(game, COORD)
    for flag, value, word in (("--rounds", "65", "refine_rounds"), ("--grid-k", "0", "grid_k"),
                              ("--eps", "-1/2", "nonnegative"), ("--eps", "N^-65", "exponent")):
        outdir = tmp_path / f"run{flag}{value}".replace("/", "_")
        res = run("pipeline", "--game", str(game), "--outdir", str(outdir), flag, value)
        assert res.exit_code == 2 and word in res.output
        assert not (outdir / "market.json").exists() and not outdir.exists()


def test_negative_eps_is_input_error(tmp_path, monkeypatch):
    game = tmp_path / "game.json"
    write(game, COORD)
    strat = tmp_path / "strat.json"
    write(strat, {"x": ["1", "0"], "y": ["1", "0"]})
    res = run("check-nash", "--game", str(game), "--profile", str(strat), "--eps", "-1/2")
    assert res.exit_code == 2 and "nonnegative" in res.output
    market = tmp_path / "m2.json"
    run("gen-mn", "--n", "2", "-o", str(market))
    calls = []
    monkeypatch.setattr("plcmarket.search.optimal_demand", lambda *args: calls.append(args))
    monkeypatch.setattr("plcmarket.search.PriceVector", lambda *args: calls.append(args))
    res = run("search-eq", "--market", str(market), "--eps", "-1/2")
    assert res.exit_code == 2 and "nonnegative" in res.output
    assert calls == []
