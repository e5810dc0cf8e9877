#!/usr/bin/env python3
"""Steadiness check: every workload twice with the same seed must agree.

    python3 bench/check_steady.py [--seed N] [--seconds S] [--workload NAME ...]

For each workload this runs ``run.py`` twice untraced and twice traced, all
with the same seed, and checks that

  * every answer was correct;
  * the exact counts repeat: ``word_letters`` and ``word_bytes`` of the
    untraced runs, and every per-layer metric counted in ``count`` units
    (among them ``classify.span_examined`` and ``rings.mul_ops``);
  * the stdout of every ``decide`` and ``verify`` request is byte-identical
    (compared by digest);
  * the Python version and ``nproc`` are recorded with each result.

It takes a few minutes; it is not part of the test suite.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stdout}"
                         f"{proc.stderr}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def exact(info, result):
    counts = {k: info[k] for k in ("word_letters", "word_bytes",
                                   "outputs_sha256")}
    counts.update({name: m["value"] for name, m in result["metrics"].items()
                   if m["unit"] == "count"})
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1)
    parser.add_argument("--workload", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args()
    problems = []
    for workload in args.workload:
        for trace in (0, 1):
            runs = [bench(workload, args.seed, args.seconds, trace)
                    for _ in range(2)]
            for info, result in runs:
                if not result["correct"]:
                    problems.append(f"{workload} trace={trace}: "
                                    f"{result['failed']} failed requests")
                if "python" not in info or "nproc" not in info:
                    problems.append(f"{workload}: python/nproc not recorded")
            first, second = (exact(*run) for run in runs)
            for key in sorted(first):
                if first[key] != second.get(key):
                    problems.append(f"{workload} trace={trace} {key}: "
                                    f"{first[key]} then {second.get(key)}")
            print(f"{workload} trace={trace}: {len(first)} exact values"
                  f" compared, python {runs[0][0]['python']},"
                  f" nproc {runs[0][0]['nproc']}", flush=True)
    for problem in problems:
        print("MISMATCH", problem)
    print("steady" if not problems else "NOT steady")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
