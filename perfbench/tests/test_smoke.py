"""Smoke test of the benchmark: each workload at its smallest instance.

    python3 -m pytest -q perfbench/tests

Run from the root of the repository.  Checks that every metric named in
BENCHMARK.json is printed with its unit, and that no operation failed; and,
in-process, that the timing leaves the garbage collector as the command left
it, that tracing skips a target the program no longer has, and that every
pushed price vector is outside the regulation box.
"""

import gc
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smallest"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run
    return run


def test_timing_leaves_the_collector_as_the_command_left_it(bench):
    seen = []

    def main(argv, standalone_mode):
        {"off": gc.disable, "on": gc.enable}[argv[0]]()
        time.sleep(2.5 * bench.SAMPLE_PERIOD_S)  # long enough for in-step samples
        seen.append(gc.isenabled())

    loop = bench.Loop(bench.Client(main), {})
    try:
        loop.timed(lambda: loop.client(["off"]))
        assert len(loop._samples) > 2
        assert not gc.isenabled()
        loop.timed(lambda: loop.client(["on"]))
        assert gc.isenabled()
        assert seen == [False, True]
    finally:
        gc.enable()


def test_trace_skips_a_target_the_program_no_longer_has(bench, monkeypatch):
    from plcmarket import flow
    from spans import Tracer

    monkeypatch.delattr(flow.FlowNetwork, "max_flow")
    tracer = Tracer()
    try:
        missing = tracer.install()
    finally:
        tracer.uninstall()
    assert missing == ["flow:FlowNetwork.max_flow"]
    metrics = tracer.metrics(0.0)
    assert metrics["flow.max_flow.self_s"]["value"] == 0
    assert {m["name"] for m in BENCH["per_layer"]} == set(metrics)


def test_pushed_prices_are_outside_the_box(bench):
    from cases import pushed_prices
    from plcmarket.model import PriceVector, normalize_prices
    from plcmarket.regulating import check_regulation_box

    rng = random.Random(0)
    for n in (4, 8, 16):
        for _ in range(300):
            p = PriceVector(tuple(pushed_prices(rng, n)))
            assert not check_regulation_box(n, normalize_prices(p))
