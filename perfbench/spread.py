"""Run one or more workloads over several seeds and summarise the spread.

    python3 perfbench/spread.py --workloads toy-cli score-many --seeds 1 2 3 4 5 \
        [--seconds 35] [--trace 0] [--out perfbench/results/name.json]

Each run is a separate ``run.py`` process with the benchmark's command
line, started from the root of the checkout. For every metric the
summary gives the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread, the distance between the quartiles as a share of
the median, beside the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's last stdout line, and its details file."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    details = ROOT / ".bench_work" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(details.read_text())


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(median) if median else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    import numpy

    report: dict = {
        "seconds": seconds, "seeds": args.seeds, "trace": args.trace,
        "environment": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
                        "cpu": platform.processor() or platform.machine()},
        "workloads": {},
    }
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, args.trace) for seed in args.seeds]
        lines = [line for line, _ in runs]
        entry = {
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "reps": [len(details["rep_totals_s"]) for _, details in runs],
            "metrics": {},
            "stages": {},
        }
        for name in lines[0]["metrics"]:
            stats = summarise([line["metrics"][name]["value"] for line in lines])
            stats["unit"] = lines[0]["metrics"][name]["unit"]
            entry["metrics"][name] = stats
        for name in runs[0][1]["stages"]:
            entry["stages"][name] = summarise([details["stages"][name] for _, details in runs])
        report["workloads"][workload] = entry
        print(f"== {workload}: correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}")
        for name, s in entry["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}  {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {name:42s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.3f}{flag}", flush=True)
        for name, s in entry["stages"].items():
            print(f"  {name:42s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.3f}  (not gated)", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
