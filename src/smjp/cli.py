"""Command-line pipeline.

Every command reads an optional ``key = value`` config file plus flag
overrides, writes its data products plus a ``manifest.txt`` (command,
resolved config, input/output digests) into ``--out``, and is byte-for-
byte deterministic under a fixed ``--seed``. The ``SMJP_LOG`` environment
variable only controls progress chatter on stderr, never results.

Exit codes: 2 usage/config errors, 3 input parse errors, 4 domain
validation errors, 5 numeric failures.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    EmptyGraph,
    GridMisalignment,
    cocluster,
    event_state_posterior,
    extract_subgraphs,
    interval_stats,
    joint_operator,
    select_cocluster_sizes,
    state_correspondence,
)
from .core import SmjpError
from .events import EventParseError, EventSequence, parse_event_file, split_chronological, write_event_file
from .foraging import (
    NonConvergence,
    ToyConfig,
    WorldConfig,
    generate_toy,
    policy_is_nontrivial,
    simulate_agent,
    solve_belief_mdp,
)
from .quantize import quantize_locations
from .switching import (
    FitConfig,
    ModelFormatError,
    NonFiniteLikelihood,
    ZeroProbabilityObservation,
    fit_best,
    held_out_loglik,
    load_model,
    save_model,
    select_num_states,
)

EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4
EXIT_NUMERIC = 5


class UsageError(SmjpError):
    pass


class InputParseError(SmjpError):
    """A line of a matrix or agent-truth input file does not parse."""


def _log(msg: str) -> None:
    if os.environ.get("SMJP_LOG"):
        print(msg, file=sys.stderr)


@dataclass(frozen=True)
class RunConfig:
    """Flat bag of every pipeline knob; command flags override file values.

    Unknown keys in a config file are rejected rather than ignored.
    """

    seed: int = 0
    # fitting
    n_states: int = 5
    inner_iterations: int = 10
    outer_cap: int = 200
    tol: float = 1e-4
    inner_tol: float = 1e-7
    grids_per_iteration: int = 1
    eval_grids: int = 5
    restarts: int = 5
    holdout_fraction: float = 0.2
    plateau_eps: float = 0.01
    omega_factor: float = 2.0
    omega_prior_scale: float = 1.0
    emission_floor: float = 0.0
    per_action_emission: bool = False
    # toy generator
    toy_states: int = 5
    toy_observations: int = 2
    toy_actions: int = 2
    toy_length: int = 5000
    toy_event_rate: float = 1.0
    toy_concentration: float = 0.5
    # foraging world and planner
    box_mean_1: float = 10.0
    box_mean_2: float = 30.0
    press_cost: float = 0.1
    switch_cost: float = 0.5
    reward_value: float = 1.0
    travel_time: float = 2.0
    decision_tick: float = 0.5
    discount: float = 0.99
    m_bins: int = 10
    diffusion_eps: float = 0.05
    horizon: float = 10000.0
    # analysis
    operator_threshold: float = 0.05
    persistence_frac: float = 0.7
    cocluster_restarts: int = 20
    bin_width: float = 0.0
    # quantization
    k_locations: int = 4

    def fit_config(self) -> FitConfig:
        return FitConfig(**{f.name: getattr(self, f.name) for f in fields(FitConfig)})

    def world_config(self) -> WorldConfig:
        shared = {f.name: getattr(self, f.name) for f in fields(WorldConfig) if f.name != "box_means"}
        return WorldConfig(box_means=(self.box_mean_1, self.box_mean_2), **shared)

    def toy_config(self) -> ToyConfig:
        return ToyConfig(
            n_states=self.toy_states,
            n_observations=self.toy_observations,
            n_actions=self.toy_actions,
            expected_length=self.toy_length,
            event_rate=self.toy_event_rate,
            concentration=self.toy_concentration,
        )


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    if kind in ("int", int):
        return int(raw)
    if kind in ("float", float):
        return float(raw)
    if kind in ("bool", bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise UsageError(f"bad boolean {raw!r} for config key {name}")
    return raw


def load_run_config(path: str) -> dict:
    """Read ``key = value`` lines; unknown keys are an error."""
    overrides: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            overrides[key] = _parse_value(key, value)
    return overrides


def resolve_config(args: argparse.Namespace) -> RunConfig:
    overrides: dict = {}
    if getattr(args, "config", None):
        overrides.update(load_run_config(args.config))
    for name in _FIELD_TYPES:
        flag = getattr(args, name, None)
        if flag is not None:
            overrides[name] = flag
    try:
        return RunConfig(**overrides)
    except TypeError as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# Output helpers.

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fmt(x: float) -> str:
    return repr(float(x))


class Workspace:
    """Collects the files a command reads and writes, then renders the
    manifest. Writing is centralized so digests stay consistent. The
    output directory is created when the first output is requested, so a
    command that fails before writing leaves none behind."""

    def __init__(self, command: str, out_dir: str, config: RunConfig):
        self.command = command
        self.dir = Path(out_dir)
        self.config = config
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []

    def note_input(self, path: str) -> str:
        self.inputs.append(Path(path))
        return path

    def path(self, name: str) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        p = self.dir / name
        self.outputs.append(p)
        return p

    def write_text(self, name: str, text: str) -> Path:
        p = self.path(name)
        p.write_text(text)
        return p

    def finish(self) -> Path:
        lines = ["smjp-manifest v1", f"command: {self.command}", f"package: smjp {__version__}", "config:"]
        for f in sorted(_FIELD_TYPES):
            value = getattr(self.config, f)
            lines.append(f"  {f} = {value!r}" if isinstance(value, float) else f"  {f} = {value}")
        lines.append("inputs:")
        for p in self.inputs:
            lines.append(f"  {p.name} sha256={_sha256(p)}")
        lines.append("outputs:")
        for p in self.outputs:
            lines.append(f"  {p.name} sha256={_sha256(p)}")
        manifest = self.dir / "manifest.txt"
        manifest.write_text("\n".join(lines) + "\n")
        return manifest


def write_labeled_matrix(path: Path, name: str, matrix: np.ndarray, rows: list[str], cols: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("# smjp-matrix v1\n")
        fh.write(f"# name: {name}\n")
        fh.write("# rows: " + " ".join(rows) + "\n")
        fh.write("# cols: " + " ".join(cols) + "\n")
        for row in np.atleast_2d(matrix):
            fh.write(" ".join(_fmt(x) for x in row) + "\n")


def read_labeled_matrix(path: str) -> tuple[np.ndarray, list[str], list[str]]:
    rows_labels: list[str] = []
    cols_labels: list[str] = []
    data: list[list[float]] = []
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != "# smjp-matrix v1":
            raise UsageError(f"{path}: not a labeled-matrix file")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if line.startswith("# rows:"):
                rows_labels = line[len("# rows:"):].split()
            elif line.startswith("# cols:"):
                cols_labels = line[len("# cols:"):].split()
            elif line.startswith("#") or not line.strip():
                continue
            else:
                try:
                    data.append([float(x) for x in line.split()])
                except ValueError:
                    raise InputParseError(f"{path}:{lineno}: bad matrix row {line!r}") from None
                if len(data[-1]) != len(data[0]):
                    raise InputParseError(f"{path}:{lineno}: expected {len(data[0])} columns, got {len(data[-1])}")
    return np.asarray(data), rows_labels, cols_labels


def _load_events(ws: Workspace, path: str) -> EventSequence:
    ws.note_input(path)
    return parse_event_file(path)


def _load_model(ws: Workspace, path: str):
    ws.note_input(path)
    return load_model(path)


# ---------------------------------------------------------------------------
# Commands.

def cmd_simulate_toy(args) -> int:
    cfg = resolve_config(args)
    ws = Workspace("simulate-toy", args.out, cfg)
    toy = generate_toy(cfg.toy_config(), cfg.seed)
    write_event_file(toy.sequence, str(ws.path("events.csv")))
    with open(ws.path("states.csv"), "w") as fh:
        fh.write("# smjp-toy-states v1\n")
        fh.write("time,state\n")
        for t, s in zip(toy.sequence.times, toy.states):
            fh.write(f"{_fmt(t)},{toy.model.states.label(int(s))}\n")
    save_model(toy.model, str(ws.path("true_model.smjp")), {"source": "simulate-toy", "seed": str(cfg.seed)})
    ws.finish()
    _log(f"simulate-toy: {len(toy.sequence)} events")
    return 0


def cmd_simulate_foraging(args) -> int:
    cfg = resolve_config(args)
    ws = Workspace("simulate-foraging", args.out, cfg)
    mdp = solve_belief_mdp(cfg.world_config(), cfg.m_bins, cfg.diffusion_eps)
    if not policy_is_nontrivial(mdp):
        print("warning: solved policy is trivial for this configuration", file=sys.stderr)
    seq, trace = simulate_agent(mdp, cfg.horizon, cfg.seed)
    write_event_file(seq, str(ws.path("events.csv")))
    with open(ws.path("truth_z.csv"), "w") as fh:
        fh.write("# smjp-agent-truth v1\n")
        fh.write(f"# m_bins: {mdp.m_bins}\n")
        fh.write(f"# n_z: {trace.n_z}\n")
        fh.write("time,z,location,rewarded,belief_bin\n")
        for i in range(trace.times.shape[0]):
            fh.write(
                f"{_fmt(trace.times[i])},{int(trace.z[i])},{int(trace.location[i])},"
                f"{int(trace.rewarded[i])},{int(trace.belief_bin[i])}\n"
            )
    with open(ws.path("policy.csv"), "w") as fh:
        fh.write("# smjp-policy v1\n")
        fh.write("state,location,bin_box1,bin_box2,action,value\n")
        for s in range(mdp.n_states):
            loc, b0, b1 = mdp.state_parts(s)
            fh.write(f"{s},{loc},{b0},{b1},{mdp.policy[s]},{_fmt(mdp.values[s])}\n")
    ws.finish()
    _log(f"simulate-foraging: {len(seq)} events, {int(trace.rewarded.sum())} rewards")
    return 0


def cmd_fit(args) -> int:
    cfg = resolve_config(args)
    ws = Workspace("fit", args.out, cfg)
    seq = _load_events(ws, args.events)
    report = fit_best([seq], cfg.n_states, cfg.fit_config())
    meta = {
        "heldout_loglik": _fmt(report.heldout_ll),
        "iterations": str(report.iterations),
        "converged": str(report.converged),
        "seed": str(cfg.seed),
    }
    save_model(report.final_model, str(ws.path("model.smjp")), meta)
    lines = ["smjp-fit-report v1", f"n_states: {cfg.n_states}", f"iterations: {report.iterations}",
             f"converged: {report.converged}", f"heldout_loglik: {_fmt(report.heldout_ll)}"]
    if report.actions_without_data:
        lines.append("actions_without_data: " + " ".join(str(a) for a in report.actions_without_data))
    for i, (tr, hl) in enumerate(zip(report.train_ll_trace, report.heldout_trace)):
        lines.append(f"outer {i}: train={_fmt(tr)} heldout={_fmt(hl)}")
    ws.write_text("fit_report.txt", "\n".join(lines) + "\n")
    ws.finish()
    _log(f"fit: heldout={report.heldout_ll:.3f} after {report.iterations} outer iterations")
    return 0


def _parse_range(text: str) -> list[int]:
    if ":" not in text:
        return [int(text)]
    lo, hi = text.split(":", 1)
    lo_i, hi_i = int(lo), int(hi)
    if hi_i < lo_i:
        raise UsageError(f"bad range {text!r}")
    return list(range(lo_i, hi_i + 1))


def cmd_select_states(args) -> int:
    cfg = resolve_config(args)
    ws = Workspace("select-states", args.out, cfg)
    seq = _load_events(ws, args.events)
    selection = select_num_states([seq], _parse_range(args.range), cfg.fit_config())
    lines = ["# smjp-state-selection v1", f"# chosen: {selection.chosen_n}", "n_states,heldout_loglik"]
    for n, ll in zip(selection.n_values, selection.heldout_lls):
        lines.append(f"{n},{_fmt(ll)}")
    ws.write_text("state_selection.csv", "\n".join(lines) + "\n")
    ws.finish()
    _log(f"select-states: chose {selection.chosen_n}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args)
    ws = Workspace("evaluate", args.out, cfg)
    model, meta = _load_model(ws, args.model)
    seq = _load_events(ws, args.events)
    if cfg.holdout_fraction > 0 and args.use_holdout:
        _, seq = split_chronological(seq, cfg.holdout_fraction)
    ll = held_out_loglik(model, [seq], cfg.fit_config())
    lines = ["smjp-evaluation v1", f"events: {len(seq)}", f"eval_grids: {cfg.eval_grids}", f"loglik: {_fmt(ll)}"]
    ws.write_text("evaluation.txt", "\n".join(lines) + "\n")
    ws.finish()
    print(_fmt(ll))
    return 0


def _read_truth(path: str) -> tuple[np.ndarray, np.ndarray, int]:
    times: list[float] = []
    zs: list[int] = []
    n_z = 0
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != "# smjp-agent-truth v1":
            raise UsageError(f"{path}: not an agent-truth file")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            try:
                if line.startswith("# n_z:"):
                    n_z = int(line[len("# n_z:"):])
                elif line.startswith("#") or not line.strip() or line.startswith("time,"):
                    continue
                else:
                    parts = line.split(",")
                    times.append(float(parts[0]))
                    zs.append(int(parts[1]))
            except (ValueError, IndexError):
                raise InputParseError(f"{path}:{lineno}: bad truth line {line!r}") from None
    if n_z <= 0:
        raise UsageError(f"{path}: missing n_z header")
    return np.asarray(times), np.asarray(zs, dtype=np.int64), n_z


def cmd_correspond(args) -> int:
    cfg = resolve_config(args)
    ws = Workspace("correspond", args.out, cfg)
    model, _ = _load_model(ws, args.model)
    seq = _load_events(ws, args.events)
    ws.note_input(args.truth)
    t_truth, z, n_z = _read_truth(args.truth)
    if t_truth.shape[0] != len(seq) or not np.array_equal(t_truth, seq.times):
        raise GridMisalignment("truth timestamps do not match the event sequence")
    gamma = event_state_posterior(model, seq, cfg.fit_config())
    onehot = np.zeros((z.shape[0], n_z))
    onehot[np.arange(z.shape[0]), z] = 1.0
    corr = state_correspondence(gamma, onehot)
    s_labels = list(model.states.labels)
    z_labels = [f"z{i}" for i in range(n_z)]
    write_labeled_matrix(ws.path("correspondence.csv"), "joint", corr.joint, s_labels, z_labels)
    write_labeled_matrix(ws.path("conditional.csv"), "agent-given-state", corr.conditional, s_labels, z_labels)
    ws.finish()
    return 0


def cmd_cocluster(args) -> int:
    cfg = resolve_config(args)
    ws = Workspace("cocluster", args.out, cfg)
    ws.note_input(args.joint)
    joint, row_labels, col_labels = read_labeled_matrix(args.joint)
    rows = _parse_range(args.rows)
    cols = _parse_range(args.cols)
    lines = ["smjp-cocluster v1"]
    if len(rows) > 1 or len(cols) > 1:
        sel = select_cocluster_sizes(joint, rows, cols, cfg.seed, cfg.cocluster_restarts)
        k_rows, k_cols = sel.chosen
        surf = ["# smjp-matrix v1", "# name: cocluster-loss-surface",
                "# rows: " + " ".join(str(r) for r in sel.row_sizes),
                "# cols: " + " ".join(str(c) for c in sel.col_sizes)]
        for row in sel.loss_surface:
            surf.append(" ".join(_fmt(x) for x in row))
        ws.write_text("loss_surface.csv", "\n".join(surf) + "\n")
        lines.append(f"chosen_sizes: {k_rows} {k_cols}")
    else:
        k_rows, k_cols = rows[0], cols[0]
    result = cocluster(joint, k_rows, k_cols, cfg.seed, cfg.cocluster_restarts)
    lines += [
        f"k_rows: {result.n_row_clusters}",
        f"k_cols: {result.n_col_clusters}",
        f"loss: {_fmt(result.mutual_information_loss)}",
        "row_assignment: " + " ".join(str(int(c)) for c in result.row_assignment),
        "col_assignment: " + " ".join(str(int(c)) for c in result.col_assignment),
    ]
    ws.write_text("cocluster.txt", "\n".join(lines) + "\n")
    ws.finish()
    return 0


def cmd_operators(args) -> int:
    cfg = resolve_config(args)
    ws = Workspace("operators", args.out, cfg)
    model, _ = _load_model(ws, args.model)
    k = model.n_actions
    lines = ["smjp-operators v1", f"threshold: {_fmt(cfg.operator_threshold)}",
             f"persistence_frac: {_fmt(cfg.persistence_frac)}"]
    ordered = [(i, j) for i in range(k) for j in range(k)]
    distinct = [(i, j) for (i, j) in ordered if i < j] + [(j, i) for (i, j) in ordered if i < j]
    rest = [(i, i) for i in range(k)]
    lines.append("# distinct action pairs first, self-compositions after")
    for i, j in distinct + rest:
        op = joint_operator(model, i, j)
        lines.append(f"operator {model.actions.label(i)} {model.actions.label(j)}:")
        for row in op.matrix.probs:
            lines.append(" ".join(_fmt(x) for x in row))
        try:
            sub = extract_subgraphs(op, cfg.operator_threshold, cfg.persistence_frac)
        except EmptyGraph:
            lines.append("subgraphs: none (graph empty after threshold)")
            continue
        lines.append("partition: " + " ".join(str(int(c)) for c in sub.partition))
        lines.append(f"modularity: {_fmt(sub.modularity)}")
        for comm in sub.persistent_subspaces:
            lines.append("persistent: " + " ".join(model.states.label(s) for s in comm))
    ws.write_text("operators.txt", "\n".join(lines) + "\n")
    ws.finish()
    return 0


def cmd_intervals(args) -> int:
    cfg = resolve_config(args)
    ws = Workspace("intervals", args.out, cfg)
    seq = _load_events(ws, args.events)
    width = cfg.bin_width if cfg.bin_width > 0 else None
    result = interval_stats(seq, observation=args.observation, action=args.action, bin_width=width)
    lines = [
        "smjp-intervals v1",
        f"filter_observation: {args.observation or '-'}",
        f"filter_action: {args.action or '-'}",
        f"n_intervals: {result.n_intervals}",
        f"mean_interval: {_fmt(result.mean_interval)}",
        f"exp_rate: {_fmt(result.exp_rate)}",
        f"exp_loglik: {_fmt(result.exp_loglik)}",
        f"ks_statistic: {_fmt(result.ks_statistic)}",
        f"ks_pvalue: {_fmt(result.ks_pvalue)}",
        "histogram:",
    ]
    for lo, hi, c in zip(result.hist_edges[:-1], result.hist_edges[1:], result.hist_counts):
        lines.append(f"{_fmt(lo)},{_fmt(hi)},{int(c)}")
    ws.write_text("intervals.txt", "\n".join(lines) + "\n")
    ws.finish()
    return 0


def _read_points(path: str) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("x,"):
                continue
            parts = line.split(",")
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise UsageError(f"{path}:{lineno}: bad point line {line!r}") from None
    if not rows:
        raise UsageError(f"{path}: no points found")
    return np.asarray(rows)


def cmd_quantize(args) -> int:
    cfg = resolve_config(args)
    ws = Workspace("quantize", args.out, cfg)
    ws.note_input(args.points)
    points = _read_points(args.points)
    result = quantize_locations(points, cfg.k_locations, cfg.seed)
    with open(ws.path("labels.csv"), "w") as fh:
        fh.write("# smjp-quantize-labels v1\n")
        fh.write("index,label\n")
        for i, lab in enumerate(result.labels):
            fh.write(f"{i},{int(lab)}\n")
    with open(ws.path("centroids.csv"), "w") as fh:
        fh.write("# smjp-quantize-centroids v1\n")
        fh.write(f"# inertia: {_fmt(result.inertia)}\n")
        fh.write("label," + ",".join(f"dim{d}" for d in range(points.shape[1])) + "\n")
        for c, row in enumerate(result.centroids):
            fh.write(f"{c}," + ",".join(_fmt(x) for x in row) + "\n")
    ws.finish()
    return 0


# ---------------------------------------------------------------------------
# Argument wiring.

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="root seed for every random stream")
    p.add_argument("--config", type=str, default=None, help="key = value config file")
    p.add_argument("--out", type=str, required=True, help="output directory")


def _add_override(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        kind = _FIELD_TYPES[name]
        typer = int if kind in ("int", int) else float if kind in ("float", float) else str
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typer, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smjp", description="Latent-state inference for event sequences")
    parser.add_argument("--version", action="version", version=f"smjp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-toy", help="sample a known switching chain")
    _add_common(p)
    _add_override(p, "toy_states", "toy_observations", "toy_actions", "toy_length", "toy_event_rate", "toy_concentration")
    p.set_defaults(func=cmd_simulate_toy)

    p = sub.add_parser("simulate-foraging", help="simulate the two-box planner")
    _add_common(p)
    _add_override(p, "horizon", "box_mean_1", "box_mean_2", "press_cost", "switch_cost",
                  "reward_value", "travel_time", "decision_tick", "discount", "m_bins", "diffusion_eps")
    p.set_defaults(func=cmd_simulate_foraging)

    p = sub.add_parser("fit", help="fit a model to an event file")
    _add_common(p)
    p.add_argument("--events", required=True)
    _add_override(p, "n_states", "inner_iterations", "outer_cap", "tol", "restarts",
                  "grids_per_iteration", "eval_grids", "holdout_fraction", "emission_floor")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("select-states", help="held-out likelihood curve over state counts")
    _add_common(p)
    p.add_argument("--events", required=True)
    p.add_argument("--range", required=True, help="inclusive range like 2:8")
    _add_override(p, "inner_iterations", "outer_cap", "tol", "restarts", "eval_grids",
                  "holdout_fraction", "plateau_eps")
    p.set_defaults(func=cmd_select_states)

    p = sub.add_parser("evaluate", help="score an event file under a saved model")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--use-holdout", action="store_true",
                   help="evaluate only the chronological holdout tail (as fit does)")
    _add_override(p, "eval_grids", "holdout_fraction")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("correspond", help="joint distribution of model states and agent truth")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--truth", required=True)
    _add_override(p, "eval_grids")
    p.set_defaults(func=cmd_correspond)

    p = sub.add_parser("cocluster", help="information-theoretic co-clustering of a joint matrix")
    _add_common(p)
    p.add_argument("--joint", required=True)
    p.add_argument("--rows", required=True, help="cluster count or range like 2:6")
    p.add_argument("--cols", required=True)
    _add_override(p, "cocluster_restarts")
    p.set_defaults(func=cmd_cocluster)

    p = sub.add_parser("operators", help="joint action operators and their subgraphs")
    _add_common(p)
    p.add_argument("--model", required=True)
    _add_override(p, "operator_threshold", "persistence_frac")
    p.set_defaults(func=cmd_operators)

    p = sub.add_parser("intervals", help="interval statistics for filtered events")
    _add_common(p)
    p.add_argument("--events", required=True)
    p.add_argument("--observation", default=None)
    p.add_argument("--action", default=None)
    _add_override(p, "bin_width")
    p.set_defaults(func=cmd_intervals)

    p = sub.add_parser("quantize", help="k-means location quantization")
    _add_common(p)
    p.add_argument("--points", required=True)
    _add_override(p, "k_locations")
    p.set_defaults(func=cmd_quantize)

    return parser


PARSE_ERRORS = (EventParseError, ModelFormatError, InputParseError, FileNotFoundError)
NUMERIC_ERRORS = (NonFiniteLikelihood, NonConvergence, ZeroProbabilityObservation)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SmjpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
