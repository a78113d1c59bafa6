"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/reference.py --seconds 20 --seeds 1-10

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
and prints for every metric its median, quartiles and spread (the
quartile distance as a share of the median), plus the failed-operation
share.  This is the command behind the README's reference numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.run import WORKLOADS  # noqa: E402

#: A run that takes longer than this has hung.
RUN_TIMEOUT_S = 900


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=str(HERE.parent), capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-800:]}")
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])["details"]
    return result


def summarise(results) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        middle = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = middle
        summary[name] = {"median": middle, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / middle if middle else 0.0,
                         "unit": results[0]["metrics"][name]["unit"]}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, args.trace)
                   for seed in _seeds(args.seeds)]
        summary = summarise(results)
        shares = sorted({result["failed"] / result["attempted"]
                         for result in results})
        report[workload] = {
            "metrics": summary, "failed_shares": shares,
            "details": [result["details"] for result in results],
            "all_correct": all(result["correct"] for result in results),
            "runs": len(results)}
        print(f"{workload}: correct={report[workload]['all_correct']} "
              f"failed_shares={shares}")
        for name, entry in summary.items():
            print(f"  {name:<32} {entry['median']:>14.6g} {entry['unit']:<8}"
                  f" spread {entry['spread']:.4f}")
        sys.stdout.flush()
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
