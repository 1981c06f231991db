"""Repeat bench/run.py over seeds and summarise each metric's spread.

Usage:
    python3 bench/collect.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                             [--seconds S] [--out FILE]

For every workload and seed it runs ``bench/run.py`` once, one run at a
time, and reads the JSON result line.  Per metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  End-to-end
spreads are compared with a third of the bound in BENCHMARK.json.  With
``--out`` the runs, the summary and the environment are written as JSON;
bench/baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS, env_info


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    report = {"env": env_info(), "seconds": seconds, "trace": args.trace,
              "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            *log, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            result["seed"] = seed
            result["log"] = log
            runs.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} " +
                  " ".join(f"{k}={v['value']:.6g}"
                           for k, v in result["metrics"].items()
                           if k in bounds), flush=True)
        summary = {}
        for name, first in runs[0]["metrics"].items():
            summary[name] = summarise([r["metrics"][name]["value"]
                                       for r in runs])
            summary[name]["unit"] = first["unit"]
        for name, s in summary.items():
            flag = ""
            if name in bounds and name != "setup_s":
                ok = s["spread"] < bounds[name] / 3
                steady &= ok
                flag = "ok" if ok else "SPREAD ABOVE BOUND/3"
            print(f"  {workload:16s} {name:36s} median {s['median']:.6g} "
                  f"{s['unit']}  spread {s['spread']:.4f} {flag}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
