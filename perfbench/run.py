"""Benchmark of the smjp pipeline: three workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload toy-cli --seed 1 --seconds 35 --trace 0

``--workload`` is ``toy-cli``, ``forage-pipeline``, ``score-many`` or
``all`` (every workload in this one process). Each workload alternates a
set-up of its inputs from ``--seed`` with a run of its body for about
``--seconds`` and reports medians over the pairs. ``--trace 0``
reports the end-to-end metrics that BENCHMARK.json lists; ``--trace 1``
alternates untraced and traced pairs and reports the per-layer metrics.
A table for people comes first; the last line of standard output is one
JSON object. The table's contents go to ``.bench_work/result-*.json``,
and with ``--trace 1`` the spans to ``.bench_work/spans-*.json``. Under
``all``, ``peak_rss_mb`` is the process peak so far.

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DESIGN = json.loads((HERE / "design.json").read_text())

# Native thread pools are capped before numpy loads (workloads imports it).
os.environ.update(DESIGN["environment"]["thread_caps"])

EXIT_NO_PACKAGE = 2


def import_package():
    """Import smjp from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "smjp" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import smjp

    if Path(smjp.__file__).resolve().parent != SRC / "smjp":
        return None
    return smjp


class OpFailed(Exception):
    """A call returned normally but reported failure (CLI exit code,
    a failed state count)."""


class Run:
    """One workload at one seed: set-ups, repetitions, checks."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, min_reps: int | None = None):
        from tracer import Tracer
        from workloads import WORKLOADS

        run = DESIGN["run"]
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.min_reps = min_reps if min_reps is not None else run["trace_min_reps" if trace else "min_reps"]
        self.workdir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
        self.workload = WORKLOADS[name](DESIGN["workloads"][name], seed, self.workdir)
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []

    def op(self, stages: dict):
        def call(stage, fn, *args, ok=None, **kwargs):
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if ok is not None and not ok(result):
                    raise OpFailed(f"{getattr(fn, '__name__', fn)} returned {result!r}")
            except Exception:
                self.failed += 1
                raise
            finally:
                stages[stage] = stages.get(stage, 0.0) + time.perf_counter() - start
            return result

        return call

    def execute(self) -> dict:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tracer.install()
        try:
            return self._execute()
        finally:
            self.tracer.uninstall()
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _execute(self) -> dict:
        # Set-up and body alternate, so both sample the whole run.
        tracer = self.tracer
        setup_times, setup_counts, reps = [], {}, []
        began = time.perf_counter()
        while True:
            i = len(reps)
            timing = self.trace and i % 2 == 1
            stages: dict = {}
            op = self.op(stages)
            try:
                with tracer.window("bench.setup", f"setup-{i}", timing) as counts:
                    op("setup_s", self.workload.setup)
                setup_counts = dict(counts)
                with tracer.window("bench.body", f"body-{i}", timing) as counts:
                    start = time.perf_counter()
                    out = self.workload.body(op)
                    total = time.perf_counter() - start
            except Exception:
                traceback.print_exc()
                break
            setup_times.append(stages.pop("setup_s"))
            reps.append({"id": f"body-{i}", "setup_id": f"setup-{i}", "traced": timing, "total": total,
                         "stages": stages, "counts": dict(counts), "out": out})
            spent = time.perf_counter() - began
            typical = statistics.median(r["total"] for r in reps) + statistics.median(setup_times)
            if len(reps) >= self.min_reps and spent + typical > self.seconds:
                break

        # Peak memory of set-ups and bodies, before the checks allocate.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if reps and self.failed == 0:
            self._check(reps)
        if self.trace:
            WORK.mkdir(exist_ok=True)
            tracer.write(WORK / f"spans-{self.name}-seed{self.seed}.json")
        return {"setup_times": setup_times, "setup_counts": setup_counts, "reps": reps, "peak_rss_mb": peak_rss_mb}

    def _check(self, reps: list[dict]) -> None:
        first = reps[0]
        same = all(r["counts"] == first["counts"] and r["out"]["fingerprint"] == first["out"]["fingerprint"]
                   for r in reps)
        self.checks.append(("repetitions agree on counts and outputs", same, f"{len(reps)} repetitions"))
        try:
            self.checks += self.workload.check(reps[-1]["out"])
        except Exception:
            traceback.print_exc()
            self.checks.append(("output checks ran", False, "raised"))
        self.attempted += len(self.checks)
        self.failed += sum(not ok for _, ok, _ in self.checks)


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(run: Run, result: dict) -> dict:
    reps = result["reps"]
    return {
        "setup_s": _median(result["setup_times"]),
        "total_s": _median([r["total"] for r in reps]),
        "heldout_nll_per_event": reps[0]["out"]["nll_per_event"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


GRID_STEP_COUNTS = (
    "switching.estep.grid_steps",
    "switching.held_out_loglik.grid_steps",
    "analysis.event_state_posterior.grid_steps",
)


def stage_table(run: Run, result: dict) -> dict:
    """Workload-specific numbers, medians over untraced reps. They are
    printed for people, not gated: BENCHMARK.json's end-to-end metrics
    have to exist on every workload."""
    reps = [r for r in result["reps"] if not r["traced"]]
    per_rep = []
    for r in reps:
        metrics = run.workload.stage_metrics(r["stages"], r["counts"])
        steps = sum(r["counts"].get(k, 0) for k in GRID_STEP_COUNTS)
        metrics["grid_steps_per_s"] = (steps / r["total"], "1/s")
        per_rep.append(metrics)
    return {k: (_median([m[k][0] for m in per_rep]), per_rep[0][k][1]) for k in per_rep[0]}


def per_layer(run: Run, result: dict, names: list[str]) -> dict:
    tracer = run.tracer
    reps = result["reps"]
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    values: dict[str, float] = {}
    # Median self time over traced reps and over their set-ups. Counts
    # repeat exactly, so any rep gives them.
    for ids in ([r["id"] for r in traced], [r["setup_id"] for r in traced]):
        per_window = [tracer.self_times(i) for i in ids]
        for layer in {k for w in per_window for k in w}:
            values[layer + ".self_s"] = _median([w.get(layer, 0.0) for w in per_window])
    counts = {**result["setup_counts"], **reps[0]["counts"]}
    values.update(counts)
    points = counts.get("ctmc.grid_points", 0)
    values["ctmc.virtual_frac"] = counts.get("ctmc.virtual_points", 0) / points if points else 0.0
    values["trace.overhead_frac"] = (
        _median([r["total"] for r in traced]) / _median([r["total"] for r in plain]) - 1.0
    )
    return {name: values.get(name, 0) for name in names}


def self_time_error(run: Run, result: dict) -> float:
    """Largest gap between a traced window's root duration and the sum of
    its layers' self times."""
    tracer = run.tracer
    ids = [r["id"] for r in result["reps"] if r["traced"]]
    return max((abs(sum(tracer.self_times(i).values()) - tracer.root_duration(i)) for i in ids), default=0.0)


def measure(name: str, seed: int, seconds: float, trace: bool, min_reps: int | None = None) -> dict:
    """Run one workload and return everything the report needs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(name, seed, seconds, trace, min_reps)
    result = run.execute()
    correct = bool(result["reps"]) and run.failed == 0
    out = {"name": name, "run": run, "result": result, "correct": correct,
           "attempted": max(run.attempted, 1), "failed": max(run.failed, 0 if correct else 1)}
    if not result["reps"]:
        return out
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        out["metrics"] = per_layer(run, result, names)
        out["units"] = {m["name"]: m["unit"] for m in spec["per_layer"]}
        out["self_time_error_s"] = self_time_error(run, result)
    else:
        out["metrics"] = end_to_end(run, result)
        out["units"] = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out["stages"] = stage_table(run, result)
    return out


def print_table(m: dict, seed: int, trace: bool) -> None:
    reps = m["result"]["reps"]
    print(f"== {m['name']}  seed={seed}  trace={int(trace)}  reps={len(reps)}  "
          f"setups={len(m['result']['setup_times'])}")
    print("  rep totals (s): " + " ".join(f"{r['total']:.3f}{'t' if r['traced'] else ''}" for r in reps))
    print("  setup times (s): " + " ".join(f"{t:.3f}" for t in m["result"]["setup_times"]))
    for name, ok, detail in m["run"].checks:
        print(f"  check  {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    print(f"  ops_failed_frac      {m['failed'] / m['attempted']:.4g}  ({m['failed']} of {m['attempted']})")
    for key, value in m.get("metrics", {}).items():
        print(f"  {key:40s} {value:.6g} {m['units'][key]}")
    for key, (value, unit) in m.get("stages", {}).items():
        print(f"  {key:40s} {value:.6g} {unit}")
    if "self_time_error_s" in m:
        print(f"  self times vs root span: max gap {m['self_time_error_s']:.3g} s")


def write_details(m: dict, seed: int, trace: bool) -> None:
    """Everything the table shows, as JSON in .bench_work/ (spread.py reads it)."""
    result = m["result"]
    details = {
        "workload": m["name"], "seed": seed, "trace": int(trace),
        "correct": m["correct"], "attempted": m["attempted"], "failed": m["failed"],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in m["run"].checks],
        "rep_totals_s": [r["total"] for r in result["reps"]],
        "rep_traced": [r["traced"] for r in result["reps"]],
        "setup_times_s": result["setup_times"],
        "metrics": m.get("metrics", {}),
        "stages": {k: v for k, (v, _) in m.get("stages", {}).items()},
    }
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{m['name']}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(details, indent=1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if import_package() is None:
        print(f"error: no smjp package under {SRC}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    trace = bool(args.trace)
    runs = [measure(n, args.seed, args.seconds, trace) for n in names]
    for m in runs:
        print_table(m, args.seed, trace)
        write_details(m, args.seed, trace)

    def tagged(m, key):
        return key if len(runs) == 1 else f"{m['name']}.{key}"

    line = {
        "correct": all(m["correct"] for m in runs),
        "attempted": sum(m["attempted"] for m in runs),
        "failed": sum(m["failed"] for m in runs),
        "metrics": {tagged(m, k): {"value": v, "unit": m["units"][k]}
                    for m in runs for k, v in m.get("metrics", {}).items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
