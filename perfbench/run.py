#!/usr/bin/env python3
"""Benchmark of the plcmarket CLI.

    python3 perfbench/run.py --workload verify-mn --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the program is imported from ./src.  One
process, one thread, one client: the CLI runs in-process
(`main(argv, standalone_mode=False)`) and each operation starts after the
previous one returned (a closed loop).  The inputs are generated from
--seed, and every outcome is checked (see oracle.py).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer ones of spans.py, taken from a traced
pass that is compared against an untraced pass.  Lines before it are
informational.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

SETUP_REPEATS = 5
REF_NOMINAL_S = 0.002  # wall time of reference() on a quiet host (2 vCPU Xeon, Python 3.11)
SAMPLE_PERIOD_S = 0.25
ROOT = Path.cwd()
SRC = ROOT / "src"

if __name__ == "__main__":
    if not (SRC / "plcmarket" / "__init__.py").is_file():
        sys.exit("perfbench: no src/plcmarket under the current directory; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

from cases import WORKLOADS, build_cases  # noqa: E402  (needs the paths above)
from oracle import judge, load_golden  # noqa: E402
from plcmarket.cli import main as cli_main  # noqa: E402
from spans import Tracer  # noqa: E402


class Client:
    """Runs one CLI command in-process and returns its exit code."""

    def __init__(self, main):
        self.main = main
        self.sink = io.StringIO()

    def __call__(self, argv) -> int:
        self.sink.seek(0)
        self.sink.truncate()
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            try:
                self.main(argv, standalone_mode=False)
            except SystemExit as exc:
                return exc.code or 0
        return 0


class TracedClient(Client):
    """A Client whose every command is the root span of one operation."""

    def __init__(self, main, tracer):
        super().__init__(main)
        self.tracer = tracer
        self.roots = {}

    def __call__(self, argv) -> int:
        command = argv[0]
        if command not in self.roots:
            self.roots[command] = self.tracer.span(f"cli.{command}", super().__call__)
        self.tracer.current_op += 1
        return self.roots[command](argv)


def reference():
    """A fixed stdlib-only computation that mirrors the program's mix of
    Fraction arithmetic and dict updates; its wall time tracks host speed."""
    acc, seen = Fraction(0), {}
    for i in range(1, 500):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        seen[i % 17] = acc
    return acc


def _reference_s() -> float:
    """Wall time of reference(), with the collector paused so that garbage
    left by the program is not collected on the reference's clock.  The
    collector is left as the program left it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference()
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Loop:
    """Closed-loop runner that times operations and judges their outcomes.

    Every timed step runs `reference()` before and after it and, from a
    timer signal, every SAMPLE_PERIOD_S while it runs; the time spent in
    those in-step samples is taken off the step's wall time.  The wall time
    is then scaled by REF_NOMINAL_S over the mean reference time: the scaled
    time is what the step would take on a host that runs the reference in
    REF_NOMINAL_S.  Other tenants of a shared host slow the reference and the
    program alike, so the scaling removes most of their effect; the raw
    times are kept too.  The host's speed moves within seconds, so the
    in-step samples are what let a multi-second step be scaled by the speed
    it ran at; README.md gives the measurement.
    """

    def __init__(self, client, golden):
        self.client, self.golden = client, golden
        self.latency: dict[str, list[float]] = {}  # case id -> scaled seconds
        self.raw: list[float] = []
        self.ref: list[float] = []
        self.failures: list[str] = []
        self._samples: list[float] = []
        self._sampling_s = 0.0

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self._samples.append(_reference_s())
        self._sampling_s += perf_counter() - t0

    def timed(self, fn):
        """Run fn(); return (result, raw seconds, scaled seconds)."""
        self._samples, self._sampling_s = [_reference_s()], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            raw = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            raw -= self._sampling_s
            self._samples.append(_reference_s())
            ref = statistics.fmean(self._samples)
            self.ref.append(ref)
        return result, raw, raw * REF_NOMINAL_S / ref

    def op(self, case) -> float:
        """Run and judge one operation; returns its scaled seconds."""
        if "outdir" in case.files:
            shutil.rmtree(case.files["outdir"], ignore_errors=True)
        if "cert" in case.files:
            case.files["cert"].unlink(missing_ok=True)

        def attempt():
            try:
                return self.client(case.argv), None
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                return None, exc

        (code, crash), raw, scaled = self.timed(attempt)
        problems = [f"raised {crash!r}"] if crash else judge(code, case, self.golden)[1]
        if problems and self.client.sink.getvalue():
            problems.append(f"output: {self.client.sink.getvalue().strip()[:300]}")
        self.latency.setdefault(case.id, []).append(scaled)
        self.raw.append(raw)
        self.failures.extend(f"{case.id}: {p}" for p in problems[:1])
        return scaled

    def cycle(self, cases) -> float:
        """One pass over the case list; returns its scaled seconds."""
        return sum(self.op(case) for case in cases)

    def run(self, cases, seconds: float):
        """Whole cycles of the case list, while another one fits in `seconds`."""
        t0, cycles = perf_counter(), 0
        while True:
            self.cycle(cases)
            cycles += 1
            elapsed = perf_counter() - t0
            if elapsed + elapsed / cycles > seconds:
                return

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.latency.values())

    def samples(self) -> list[float]:
        return sorted(s for v in self.latency.values() for s in v)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q of all samples at or below it."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def program_meta() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def setup(loop, args, workdir):
    """Generate the workload's inputs; returns (scaled seconds, cases)."""
    shutil.rmtree(workdir, ignore_errors=True)
    cases, _, scaled = loop.timed(
        lambda: build_cases(args.workload, args.seed, workdir, loop.client, args.smallest))
    return scaled, cases


def measure(args, loop, work):
    """End-to-end metrics with tracing off."""
    setup_s = []
    for _ in range(SETUP_REPEATS):
        seconds, cases = setup(loop, args, work / "setup")
        setup_s.append(seconds)
    loop.run(cases, args.seconds)
    samples, raw = loop.samples(), sorted(loop.raw)
    for case_id, values in loop.latency.items():
        print(f"case {case_id} ops={len(values)} median_s={statistics.median(values):.6f}")
    print(f"samples {len(samples)}; reference median {statistics.median(loop.ref) * 1e3:.3f} ms"
          f" (nominal {REF_NOMINAL_S * 1e3:.3f} ms); unscaled op_s.p50={statistics.median(raw):.6f}"
          f" op_s.p90={percentile(raw, 0.9):.6f} ops_per_s={len(raw) / sum(raw):.6f}")
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_s.p50": (statistics.median(samples), "s"),
        "op_s.p90": (percentile(samples, 0.9), "s"),
        "ops_per_s": (len(samples) / sum(samples), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def measure_traced(args, main, golden, work):
    """Per-layer metrics from a traced pass, after an untraced one.

    A pass is one set-up plus one cycle of the case list.  Span times are
    scaled by the traced pass's mean reference time, as operations are; the
    tracing overhead is the difference of the two passes' scaled times.
    """

    def one_pass(loop, name):
        setup_s, cases = setup(loop, args, work / name)
        return setup_s + loop.cycle(cases)

    plain = Loop(Client(main), golden)
    plain_s = one_pass(plain, "plain")
    tracer = Tracer()
    traced = Loop(TracedClient(main, tracer), golden)
    for target in tracer.install():
        print(f"spans: plcmarket.{target} not found; its metrics read 0")
    try:
        traced_s = one_pass(traced, "traced")
    finally:
        tracer.uninstall()

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(spans)
    print(f"spans {len(tracer.dur)} written to {spans.relative_to(ROOT)}")
    for case_id, values in plain.latency.items():
        traced.latency[case_id] += values
    traced.failures += plain.failures
    return traced, tracer.metrics(traced_s - plain_s, REF_NOMINAL_S / statistics.fmean(traced.ref))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smallest", action="store_true",
                        help="run only the smallest instance of the workload")
    args = parser.parse_args()

    golden = load_golden().get(str(args.seed), {})
    print("meta " + json.dumps(program_meta(), sort_keys=True))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            loop, metrics = measure_traced(args, cli_main, golden, work)
        else:
            loop = Loop(Client(cli_main), golden)
            metrics = measure(args, loop, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in loop.failures[:20]:
        print(f"FAIL {failure}")
    failed = len(loop.failures)
    print(f"failed_ratio {failed / loop.attempted:.6f} ({failed}/{loop.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
