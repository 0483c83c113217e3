#!/usr/bin/env python3
"""Check how steady the benchmark is: one run per seed, then quartile spreads.

Usage, from the repository root::

    python3 perfbench/steadiness.py --workload map-serve --seeds 1-10

Runs ``perfbench/run.py`` once per seed (untraced, ``run_seconds`` from
``BENCHMARK.json``) and prints, for every end-to-end metric, the median of
the runs and the distance between their first and third quartile as a share
of the median, next to the metric's bound.  A spread above the bound means
two sets of runs of the same code could disagree by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str):
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench.stats import quartile_spread

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if len(next(iter(values.values()))) < 2:
        return 0
    for metric in spec["end_to_end"]:
        runs = values[metric["name"]]
        print(f"{args.workload} {metric['name']}: median {statistics.median(runs):.4g} "
              f"{metric['unit']}, spread {quartile_spread(runs):.3f} (bound {metric['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
