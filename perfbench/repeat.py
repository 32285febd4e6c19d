#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/repeat.py --workload verify-mn --seeds 1-10 \
        [--out perfbench/baseline/seed-commit.json]

Runs are sequential, one process at a time, from the current directory (the
root of a checkout), with tracing off and the run_seconds of BENCHMARK.json.
For every metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread: the distance between
the quartiles as a share of the median.  Metrics whose
spread exceeds a third of their bound in BENCHMARK.json are flagged, and the
unscaled latencies and reference timings are summarized alongside.  --out
writes the summaries, the per-case median latencies and the program's
metadata (Python version, nproc, commit, src/ line count) as JSON.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    meta = next((json.loads(line[5:]) for line in lines if line.startswith("meta ")), None)
    cases, unscaled = {}, {}
    for line in lines:
        m = re.match(r"case (\S+) ops=(\d+) median_s=(\S+)", line)
        if m:
            cases[m.group(1)] = float(m.group(3))
        if line.startswith("samples "):
            unscaled = {k: float(v) for k, v in re.findall(r"(\S+)=([0-9.]+)", line.split("unscaled", 1)[1])}
            unscaled["reference_ms"] = float(re.search(r"reference median ([0-9.]+) ms", line).group(1))
    return json.loads(lines[-1]), meta, cases, unscaled


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {"seconds": seconds, "workloads": {}}
    for workload in args.workload:
        runs, case_times, unscaled = [], {}, {}
        for seed in parse_seeds(args.seeds):
            result, meta, cases, raw = run_once(workload, seed, seconds)
            report["meta"] = meta
            runs.append(result)
            for k, v in raw.items():
                unscaled.setdefault(k, []).append(v)
            for case_id, t in cases.items():
                case_times.setdefault(case_id, []).append(t)
            print(f"{workload} seed={seed} failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            summary = summarize([r["metrics"][name]["value"] for r in runs])
            summary["unit"] = first["unit"]
            metrics[name] = summary
            bound = bounds.get(name)
            flag = ""
            if bound and name != "setup_s" and summary["spread"] is not None and summary["spread"] > bound / 3:
                flag = f"  <-- spread above a third of bound {bound}"
            spread = "n/a" if summary["spread"] is None else f"{summary['spread']:.4f}"
            print(f"  {name}: median={summary['median']:.6g} q1={summary['q1']:.6g} "
                  f"q3={summary['q3']:.6g} spread={spread}{flag}")
        unscaled = {k: summarize(v) for k, v in unscaled.items()}
        for name, summary in unscaled.items():
            print(f"  unscaled {name}: median={summary['median']:.6g} spread={summary['spread']:.4f}")
        report["workloads"][workload] = {
            "unscaled": unscaled,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
            "case_median_s": {k: statistics.median(v) for k, v in case_times.items()},
        }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
