"""Command-line pipeline.

Every command reads an optional ``key = value`` config file plus flag
overrides and returns its data products as ``{file name: text}``;
``main`` then writes them plus a ``manifest.txt`` (command, resolved
config, input/output digests) into ``--out``. Outputs are byte-for-byte
deterministic under a fixed ``--seed``, and a command that fails writes
nothing. The ``SMJP_LOG`` environment variable only controls progress
chatter on stderr, never results.

Exit codes: 2 usage/config errors (``UsageError``), 3 unreadable or
malformed input files (``InputFormatError``, ``OSError``), 4 domain
validation errors (``SmjpError``) and allocations the host cannot make
(``MemoryError``, printed as ``error: out of memory: ...``), 5 numeric
failures (``NumericError``). A malformed input prints ``error:
FILE:LINE: message``, or ``error: FILE: message`` when no single line is
at fault, and exits 3.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    EmptyGraph,
    cocluster,
    event_state_posterior,
    extract_subgraphs,
    interval_stats,
    joint_operator,
    select_cocluster_sizes,
    state_correspondence,
)
from .core import InputFormatError, NumericError, SmjpError, read_lines, write_text
from .events import parse_event_file, split_chronological, write_event_file
from .foraging import (
    ToyConfig,
    WorldConfig,
    check_horizon,
    generate_toy,
    policy_is_nontrivial,
    simulate_agent,
    solve_belief_mdp,
)
from .quantize import quantize_locations
from .switching import (
    FitConfig,
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


def _log(msg: str) -> None:
    if os.environ.get("SMJP_LOG"):
        print(msg, file=sys.stderr)


@dataclass(frozen=True)
class RunConfig(FitConfig):
    """Flat bag of every pipeline knob; command flags override file values.

    The fitting knobs are ``FitConfig``'s own fields, and the toy and world
    keys take their defaults from ``ToyConfig`` and ``WorldConfig``. Unknown
    keys in a config file are rejected rather than ignored.
    """

    n_states: int = 5
    # toy generator
    toy_states: int = ToyConfig.n_states
    toy_observations: int = ToyConfig.n_observations
    toy_actions: int = ToyConfig.n_actions
    toy_length: int = ToyConfig.expected_length
    toy_event_rate: float = ToyConfig.event_rate
    toy_concentration: float = ToyConfig.concentration
    # foraging world and planner
    box_mean_1: float = WorldConfig.box_means[0]
    box_mean_2: float = WorldConfig.box_means[1]
    press_cost: float = WorldConfig.press_cost
    switch_cost: float = WorldConfig.switch_cost
    reward_value: float = WorldConfig.reward_value
    travel_time: float = WorldConfig.travel_time
    decision_tick: float = WorldConfig.decision_tick
    discount: float = WorldConfig.discount
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
_CASTS = {"int": int, "float": float}


def _parse_value(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    raw = raw.strip()
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise UsageError(f"bad boolean {raw!r} for config key {name}")
    try:
        return _CASTS.get(kind, str)(raw)
    except ValueError:
        raise UsageError(f"bad {kind} {raw!r} for config key {name}") from None


def load_run_config(path: str) -> dict:
    """Read ``key = value`` lines; unknown keys are an error."""
    overrides: dict = {}
    name, lines = read_lines(path)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{name}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise UsageError(f"{name}:{lineno}: unknown config key {key!r}")
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
    return RunConfig(**overrides)


# ---------------------------------------------------------------------------
# Output helpers.

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fmt(x: float) -> str:
    return repr(float(x))


def _lines(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _text(write, obj, *rest) -> str:
    """What ``write(obj, fh, *rest)`` (``save_model``, ``write_event_file``) writes."""
    buf = io.StringIO()
    write(obj, buf, *rest)
    return buf.getvalue()


class Workspace:
    """Collects the files a command reads; once the command has returned
    its outputs, writes them and the manifest. A command that fails
    therefore leaves no ``--out`` directory behind."""

    def __init__(self, command: str, out_dir: str, config: RunConfig):
        self.command = command
        self.dir = Path(out_dir)
        existing = next((p for p in (self.dir, *self.dir.parents) if p.exists()), None)
        if existing is not None and not existing.is_dir():
            where = "" if existing == self.dir else f"{existing} "
            raise UsageError(f"--out {out_dir}: {where}exists and is not a directory")
        self.config = config
        self.inputs: list[Path] = []

    def note_input(self, path: str) -> str:
        self.inputs.append(Path(path))
        return path

    def finish(self, outputs: dict[str, str]) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, text in outputs.items():
            write_text(self.dir / name, text)
        lines = ["smjp-manifest v1", f"command: {self.command}", f"package: smjp {__version__}", "config:"]
        for f in sorted(_FIELD_TYPES):
            value = getattr(self.config, f)
            lines.append(f"  {f} = {value!r}" if isinstance(value, float) else f"  {f} = {value}")
        lines += ["inputs:"] + [f"  {p.name} sha256={_sha256(p)}" for p in self.inputs]
        lines += ["outputs:"] + [f"  {name} sha256={_sha256(self.dir / name)}" for name in outputs]
        manifest = self.dir / "manifest.txt"
        write_text(manifest, _lines(lines))
        return manifest


def _matrix_text(name: str, matrix: np.ndarray, rows, cols) -> str:
    lines = ["# smjp-matrix v1", f"# name: {name}",
             "# rows: " + " ".join(map(str, rows)), "# cols: " + " ".join(map(str, cols))]
    lines += [" ".join(_fmt(x) for x in row) for row in np.atleast_2d(matrix)]
    return _lines(lines)


def _float_rows(name: str, numbered: list[tuple[int, str]], sep: str | None, what: str) -> np.ndarray:
    """One row of floats per ``(line number, text)``, all of one width."""
    rows: list[list[float]] = []
    for lineno, line in numbered:
        try:
            rows.append([float(x) for x in line.split(sep)])
        except ValueError:
            raise InputFormatError(name, lineno, f"bad {what} {line!r}") from None
        if len(rows[-1]) != len(rows[0]):
            raise InputFormatError(name, lineno, f"expected {len(rows[0])} columns, got {len(rows[-1])}")
    return np.asarray(rows)


def read_labeled_matrix(path: str) -> tuple[np.ndarray, list[str], list[str]]:
    name, lines = read_lines(path)
    if not lines or lines[0] != "# smjp-matrix v1":
        raise InputFormatError(name, None, "not a labeled-matrix file")
    labels = {line[2:6]: line[7:].split() for line in lines if line.startswith(("# rows:", "# cols:"))}
    body = [(i, line) for i, line in enumerate(lines, start=1) if line.strip() and not line.startswith("#")]
    data = _float_rows(name, body, None, "matrix row")
    if not data.size:
        raise InputFormatError(name, None, "no matrix rows")
    return data, labels.get("rows", []), labels.get("cols", [])


# ---------------------------------------------------------------------------
# Commands. Each returns its outputs as {file name: text}, in manifest order.

def cmd_simulate_toy(args, cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    toy = generate_toy(cfg.toy_config(), cfg.seed)
    states = ["# smjp-toy-states v1", "time,state"]
    states += [f"{_fmt(t)},{toy.model.states.label(int(s))}" for t, s in zip(toy.sequence.times, toy.states)]
    _log(f"simulate-toy: {len(toy.sequence)} events")
    return {
        "events.csv": _text(write_event_file, toy.sequence),
        "states.csv": _lines(states),
        "true_model.smjp": _text(save_model, toy.model, {"source": "simulate-toy", "seed": str(cfg.seed)}),
    }


def cmd_simulate_foraging(args, cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    world = cfg.world_config()
    check_horizon(cfg.horizon, world)
    mdp = solve_belief_mdp(world, cfg.m_bins, cfg.diffusion_eps)
    if not policy_is_nontrivial(mdp):
        print("warning: solved policy is trivial for this configuration", file=sys.stderr)
    seq, trace = simulate_agent(mdp, cfg.horizon, cfg.seed)
    truth = ["# smjp-agent-truth v1", f"# m_bins: {mdp.m_bins}", f"# n_z: {trace.n_z}",
             "time,z,location,rewarded,belief_bin"]
    truth += [f"{_fmt(t)},{int(z)},{int(loc)},{int(r)},{int(b)}"
              for t, z, loc, r, b in zip(trace.times, trace.z, trace.location, trace.rewarded, trace.belief_bin)]
    policy = ["# smjp-policy v1", "state,location,bin_box1,bin_box2,action,value"]
    for s in range(mdp.n_states):
        loc, b0, b1 = mdp.state_parts(s)
        policy.append(f"{s},{loc},{b0},{b1},{mdp.policy[s]},{_fmt(mdp.values[s])}")
    _log(f"simulate-foraging: {len(seq)} events, {int(trace.rewarded.sum())} rewards")
    return {"events.csv": _text(write_event_file, seq), "truth_z.csv": _lines(truth), "policy.csv": _lines(policy)}


def cmd_fit(args, cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    seq = parse_event_file(ws.note_input(args.events))
    report = fit_best([seq], cfg.n_states, cfg.fit_config())
    meta = {
        "heldout_loglik": _fmt(report.heldout_ll),
        "iterations": str(report.iterations),
        "converged": str(report.converged),
        "seed": str(cfg.seed),
    }
    lines = ["smjp-fit-report v1", f"n_states: {cfg.n_states}", f"iterations: {report.iterations}",
             f"converged: {report.converged}", f"heldout_loglik: {_fmt(report.heldout_ll)}"]
    if report.actions_without_data:
        lines.append("actions_without_data: " + " ".join(str(a) for a in report.actions_without_data))
    for i, (tr, hl) in enumerate(zip(report.train_ll_trace, report.heldout_trace)):
        lines.append(f"outer {i}: train={_fmt(tr)} heldout={_fmt(hl)}")
    _log(f"fit: heldout={report.heldout_ll:.3f} after {report.iterations} outer iterations")
    return {"model.smjp": _text(save_model, report.final_model, meta), "fit_report.txt": _lines(lines)}


def _parse_range(flag: str, text: str) -> range:
    lo, sep, hi = text.partition(":")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if sep else lo_i
    except ValueError:
        raise UsageError(f"{flag}: bad range {text!r}") from None
    if hi_i < lo_i:
        raise UsageError(f"{flag}: bad range {text!r}")
    return range(lo_i, hi_i + 1)


def cmd_select_states(args, cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    n_values = _parse_range("--range", args.range)
    seq = parse_event_file(ws.note_input(args.events))
    selection = select_num_states([seq], n_values, cfg.fit_config())
    for n, message in selection.failures.items():
        print(f"warning: n_states={n} failed: {message}", file=sys.stderr)
    lines = ["# smjp-state-selection v1", f"# chosen: {selection.chosen_n}", "n_states,heldout_loglik"]
    lines += [f"{n},{_fmt(ll)}" for n, ll in zip(selection.n_values, selection.heldout_lls)]
    _log(f"select-states: chose {selection.chosen_n}")
    return {"state_selection.csv": _lines(lines)}


def cmd_evaluate(args, cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    model, _ = load_model(ws.note_input(args.model))
    seq = parse_event_file(ws.note_input(args.events))
    if cfg.holdout_fraction > 0 and args.use_holdout:
        _, seq = split_chronological(seq, cfg.holdout_fraction)
    ll = held_out_loglik(model, [seq])
    print(_fmt(ll))
    return {"evaluation.txt": _lines(["smjp-evaluation v1", f"events: {len(seq)}", f"loglik: {_fmt(ll)}"])}


def _read_truth(path: str) -> tuple[np.ndarray, np.ndarray, int]:
    name, lines = read_lines(path)
    if not lines or lines[0] != "# smjp-agent-truth v1":
        raise InputFormatError(name, None, "not an agent-truth file")
    n_z, rows = 0, []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            if line.startswith("# n_z:"):
                n_z = int(line[len("# n_z:"):])
            elif line.strip() and not line.startswith(("#", "time,")):
                parts = line.split(",")
                rows.append((lineno, float(parts[0]), int(parts[1])))
        except (ValueError, IndexError):
            raise InputFormatError(name, lineno, f"bad truth line {line!r}") from None
    if n_z <= 0:
        raise InputFormatError(name, None, "missing n_z header")
    for lineno, _, z in rows:
        if not 0 <= z < n_z:
            raise InputFormatError(name, lineno, f"agent state {z} outside 0..{n_z - 1}")
    return np.array([t for _, t, _ in rows]), np.array([z for _, _, z in rows], dtype=np.int64), n_z


def cmd_correspond(args, cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    model, _ = load_model(ws.note_input(args.model))
    seq = parse_event_file(ws.note_input(args.events))
    t_truth, z, n_z = _read_truth(ws.note_input(args.truth))
    if t_truth.shape[0] != len(seq) or not np.array_equal(t_truth, seq.times):
        raise SmjpError("truth timestamps do not match the event sequence")
    gamma = event_state_posterior(model, seq)
    onehot = np.zeros((z.shape[0], n_z))
    onehot[np.arange(z.shape[0]), z] = 1.0
    corr = state_correspondence(gamma, onehot)
    s_labels = model.states.labels
    z_labels = [f"z{i}" for i in range(n_z)]
    return {
        "correspondence.csv": _matrix_text("joint", corr.joint, s_labels, z_labels),
        "conditional.csv": _matrix_text("agent-given-state", corr.conditional, s_labels, z_labels),
    }


def cmd_cocluster(args, cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    rows = _parse_range("--rows", args.rows)
    cols = _parse_range("--cols", args.cols)
    joint, _, _ = read_labeled_matrix(ws.note_input(args.joint))
    # Checked on the ranges' ends, so no list of sizes or pairs is built first.
    for flag, sizes, n in (("--rows", rows, joint.shape[0]), ("--cols", cols, joint.shape[1])):
        if sizes[0] < 1 or sizes[-1] > n:
            raise SmjpError(f"{flag}: cluster counts {sizes[0]}:{sizes[-1]} out of range for shape {joint.shape}")
    outputs: dict[str, str] = {}
    lines = ["smjp-cocluster v1"]
    if len(rows) > 1 or len(cols) > 1:
        sel = select_cocluster_sizes(joint, rows, cols, cfg.seed, cfg.cocluster_restarts)
        outputs["loss_surface.csv"] = _matrix_text("cocluster-loss-surface", sel.loss_surface,
                                                   sel.row_sizes, sel.col_sizes)
        lines.append("chosen_sizes: {} {}".format(*sel.chosen))
        result = sel.chosen_clustering
    else:
        result = cocluster(joint, rows[0], cols[0], cfg.seed, cfg.cocluster_restarts)
    lines += [
        f"k_rows: {result.n_row_clusters}",
        f"k_cols: {result.n_col_clusters}",
        f"loss: {_fmt(result.mutual_information_loss)}",
        "row_assignment: " + " ".join(str(int(c)) for c in result.row_assignment),
        "col_assignment: " + " ".join(str(int(c)) for c in result.col_assignment),
    ]
    outputs["cocluster.txt"] = _lines(lines)
    return outputs


def cmd_operators(args, cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    model, _ = load_model(ws.note_input(args.model))
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
    return {"operators.txt": _lines(lines)}


def cmd_intervals(args, cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    seq = parse_event_file(ws.note_input(args.events))
    width = None if cfg.bin_width == 0 else cfg.bin_width
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
    return {"intervals.txt": _lines(lines)}


def _read_points(path: str) -> np.ndarray:
    name, lines = read_lines(path)
    body = [(i, line.strip()) for i, line in enumerate(lines, start=1)
            if line.strip() and not line.strip().startswith(("#", "x,"))]
    points = _float_rows(name, body, ",", "point line")
    if not points.size:
        raise InputFormatError(name, None, "no points found")
    return points


def cmd_quantize(args, cfg: RunConfig, ws: Workspace) -> dict[str, str]:
    points = _read_points(ws.note_input(args.points))
    result = quantize_locations(points, cfg.k_locations, cfg.seed)
    labels = ["# smjp-quantize-labels v1", "index,label"]
    labels += [f"{i},{int(lab)}" for i, lab in enumerate(result.labels)]
    centroids = ["# smjp-quantize-centroids v1", f"# inertia: {_fmt(result.inertia)}",
                 "label," + ",".join(f"dim{d}" for d in range(points.shape[1]))]
    centroids += [f"{c}," + ",".join(_fmt(x) for x in row) for c, row in enumerate(result.centroids)]
    return {"labels.csv": _lines(labels), "centroids.csv": _lines(centroids)}


# ---------------------------------------------------------------------------
# Argument wiring.

def _subparser(sub, name: str, func, help: str, *inputs: str) -> argparse.ArgumentParser:
    """A command's parser with the common flags and one required flag per input file."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--seed", type=int, default=None, help="root seed for every random stream")
    p.add_argument("--config", type=str, default=None, help="key = value config file")
    p.add_argument("--out", type=str, required=True, help="output directory")
    for flag in inputs:
        p.add_argument(f"--{flag}", required=True)
    p.set_defaults(func=func)
    return p


def _add_override(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        typer = _CASTS.get(_FIELD_TYPES[name], str)
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=typer, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smjp", description="Latent-state inference for event sequences")
    parser.add_argument("--version", action="version", version=f"smjp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subparser(sub, "simulate-toy", cmd_simulate_toy, "sample a known switching chain")
    _add_override(p, "toy_states", "toy_observations", "toy_actions", "toy_length", "toy_event_rate", "toy_concentration")

    p = _subparser(sub, "simulate-foraging", cmd_simulate_foraging, "simulate the two-box planner")
    _add_override(p, "horizon", "box_mean_1", "box_mean_2", "press_cost", "switch_cost",
                  "reward_value", "travel_time", "decision_tick", "discount", "m_bins", "diffusion_eps")

    p = _subparser(sub, "fit", cmd_fit, "fit a model to an event file", "events")
    _add_override(p, "n_states", "inner_iterations", "outer_cap", "tol", "restarts",
                  "eval_grids", "holdout_fraction", "emission_floor")

    p = _subparser(sub, "select-states", cmd_select_states, "held-out likelihood curve over state counts",
                   "events")
    p.add_argument("--range", required=True, help="inclusive range like 2:8")
    _add_override(p, "inner_iterations", "outer_cap", "tol", "restarts", "eval_grids",
                  "holdout_fraction", "plateau_eps")

    p = _subparser(sub, "evaluate", cmd_evaluate, "score an event file under a saved model", "model", "events")
    p.add_argument("--use-holdout", action="store_true",
                   help="evaluate only the chronological holdout tail (as fit does)")
    _add_override(p, "holdout_fraction")

    _subparser(sub, "correspond", cmd_correspond, "joint distribution of model states and agent truth",
               "model", "events", "truth")

    p = _subparser(sub, "cocluster", cmd_cocluster, "information-theoretic co-clustering of a joint matrix",
                   "joint")
    p.add_argument("--rows", required=True, help="cluster count or range like 2:6")
    p.add_argument("--cols", required=True)
    _add_override(p, "cocluster_restarts")

    p = _subparser(sub, "operators", cmd_operators, "joint action operators and their subgraphs", "model")
    _add_override(p, "operator_threshold", "persistence_frac")

    p = _subparser(sub, "intervals", cmd_intervals, "interval statistics for filtered events", "events")
    p.add_argument("--observation", default=None)
    p.add_argument("--action", default=None)
    _add_override(p, "bin_width")

    p = _subparser(sub, "quantize", cmd_quantize, "k-means location quantization", "points")
    _add_override(p, "k_locations")

    return parser


# First matching row wins, so the SmjpError catch-all comes last.
EXIT_CODES = (
    (UsageError, EXIT_USAGE),
    ((InputFormatError, OSError), EXIT_PARSE),
    (NumericError, EXIT_NUMERIC),
    (SmjpError, EXIT_DOMAIN),
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        ws = Workspace(args.command, args.out, cfg)
        ws.finish(args.func(args, cfg, ws))
        return 0
    except (SmjpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
