#!/usr/bin/env python3
"""Record the golden decisions that the oracle compares against.

    python3 perfbench/record_golden.py --seed 0 --seed 1

Runs every case of verify-reduced and pipeline once per seed, from the root
of a checkout, and writes their decisions (exit code, verdict and reason;
for pipeline also the best score, the extracted strategies, the Nash result
and the sha256 of market.json and meta.json) to perfbench/golden.json.  A
case whose outcome already fails the oracle's structural checks is not
recorded; the script exits 1 instead.  Record at the commit whose behaviour
the goldens pin, and only then.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
GOLDEN_WORKLOADS = ("verify-reduced", "pipeline")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "plcmarket" / "__init__.py").is_file():
        sys.exit("record_golden: no src/plcmarket under the current directory")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from cases import build_cases
    from oracle import GOLDEN_PATH, judge
    from plcmarket.cli import main as cli_main
    from run import Client

    client = Client(cli_main)
    golden = {}
    work = ROOT / ".bench_work" / f"golden-{os.getpid()}"
    try:
        for seed in args.seed:
            decisions = golden.setdefault(str(seed), {})
            for workload in GOLDEN_WORKLOADS:
                for case in build_cases(workload, seed, work / workload, client):
                    code = client(case.argv)
                    decision, problems = judge(code, case, {})
                    if problems:
                        sys.exit(f"record_golden: seed {seed} {case.id}: {problems}")
                    decisions[case.id] = decision
                    print(f"seed {seed} {case.id}: {decision}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
