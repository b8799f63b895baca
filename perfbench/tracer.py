"""Spans and exact counts recorded around calls into smjp, from outside it.

Each hook replaces a function in the module namespace its caller resolves
it from. ``smjp.cli`` and ``smjp.analysis`` bind their collaborators with
``from ... import``, so ``smjp.cli.fit_best`` and ``smjp.switching.fit_best``
are two bindings of one function and each gets its own hook. No file of
the package changes.

Hooks count work whenever a tracer window is open. Span timestamps are
taken only in windows opened with ``timing``; spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter

FLOAT_BYTES = 8


def _grid_counts(tracer: "Tracer", args, result) -> None:
    points = len(result)
    tracer.counts["ctmc.grid_points"] += points
    tracer.counts["ctmc.virtual_points"] += points - result.n_events
    # A grid is filtered once by the layer that asked for it.
    consumer = tracer.current()
    if consumer in ("switching.held_out_loglik", "analysis.event_state_posterior"):
        tracer.counts[consumer + ".grid_steps"] += points


def _estep_counts(tracer: "Tracer", args, result) -> None:
    model, grids = args[0], args[1]
    passes = len(result[2])
    n = model.n_states
    tracer.counts["switching.inner_passes"] += passes
    tracer.counts["switching.estep.grid_steps"] += passes * sum(len(g) for g in grids)
    # Computed, not measured: e, alpha, beta, gamma (T x N), the scalings
    # c (T) and the transition posteriors xi ((T - 1) x N x N) per pass.
    per_pass = sum(4 * len(g) * n + len(g) + max(len(g) - 1, 0) * n * n for g in grids)
    tracer.counts["switching.estep.bytes_computed"] += FLOAT_BYTES * passes * per_pass


def _fit_counts(tracer: "Tracer", args, result) -> None:
    tracer.counts["switching.outer_iterations"] += result.iterations


def _sweep_counts(tracer: "Tracer", args, result) -> None:
    tracer.counts["foraging.value_iteration.sweeps"] += result.sweeps


# (module, attribute, layer name, counter). An attribute "Class.method"
# hooks the method on the class.
HOOKS = (
    ("smjp.cli", "main", "cli.main", None),
    ("smjp.cli", "parse_event_file", "events.parse_event_file", None),
    ("smjp.cli", "fit_best", "switching.fit_best", None),
    ("smjp.cli", "select_num_states", "switching.select_num_states", None),
    ("smjp.cli", "save_model", "switching.save_model", None),
    ("smjp.cli", "Workspace.finish", "cli.manifest", None),
    ("smjp.switching", "fit_best", "switching.fit_best", None),
    ("smjp.switching", "fit", "switching.fit", _fit_counts),
    ("smjp.switching", "build_time_grid", "ctmc.build_time_grid", _grid_counts),
    ("smjp.switching", "inner_em", "switching.estep", _estep_counts),
    ("smjp.switching", "m_step", "switching.m_step", None),
    ("smjp.switching", "rebuild_model", "switching.rebuild_model", None),
    ("smjp.switching", "held_out_loglik", "switching.held_out_loglik", None),
    ("smjp.analysis", "build_time_grid", "ctmc.build_time_grid", _grid_counts),
    ("smjp.analysis", "forward_backward", "switching.forward_backward", None),
    ("smjp.analysis", "event_state_posterior", "analysis.event_state_posterior", None),
    ("smjp.analysis", "state_correspondence", "analysis.state_correspondence", None),
    ("smjp.analysis", "select_cocluster_sizes", "analysis.select_cocluster_sizes", None),
    ("smjp.analysis", "cocluster", "analysis.cocluster", None),
    ("smjp.foraging", "build_belief_mdp", "foraging.build_belief_mdp", None),
    ("smjp.foraging", "value_iteration", "foraging.value_iteration", _sweep_counts),
    ("smjp.foraging", "simulate_agent", "foraging.simulate_agent", None),
    ("smjp.foraging", "generate_toy", "foraging.generate_toy", None),
    ("smjp.events", "write_event_file", "events.write_event_file", None),
)


class Tracer:
    """Records, per window, call counts and (when timing) a span tree.

    A window is one set-up or one repetition of a workload's body; its
    root span carries the window id that every span inside it shares.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._timing = False
        self._stack: list[tuple[str, int]] = []
        self._active = False
        self._run_id = ""
        self._originals: list[tuple[object, str, object]] = []

    # -- hooks ------------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, counter in HOOKS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._originals.append((owner, leaf, original))
            setattr(owner, leaf, self._hook(original, name, counter))

    def uninstall(self) -> None:
        while self._originals:
            owner, leaf, original = self._originals.pop()
            setattr(owner, leaf, original)

    def _hook(self, fn, name, counter):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            self.counts[name + ".calls"] += 1
            if counter is not None:
                counter(self, args, result)
            return result

        return hooked

    # -- spans ------------------------------------------------------------

    def current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _open(self, name: str) -> None:
        index = -1
        if self._timing:
            parent = self._stack[-1][1] if self._stack else -1
            index = len(self.spans)
            self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                               "parent": parent, "run_id": self._run_id})
        self._stack.append((name, index))

    def _close(self) -> None:
        _, index = self._stack.pop()
        if index >= 0:
            self.spans[index]["end"] = time.perf_counter()

    @contextlib.contextmanager
    def window(self, root: str, run_id: str, timing: bool):
        """Open a window: counts restart, and a root span encloses it."""
        self.counts = Counter()
        self._timing, self._run_id, self._active = timing, run_id, True
        self._open(root)
        try:
            yield self.counts
        finally:
            self._close()
            self._active = self._timing = False

    def self_times(self, run_id: str) -> dict[str, float]:
        """Seconds per layer in one window: each span's duration minus the
        durations of its direct children, summed by layer name. The values
        add up to the root span's duration."""
        out: Counter = Counter()
        spans = self.spans
        for span in spans:
            if span["run_id"] != run_id:
                continue
            duration = span["end"] - span["start"]
            out[span["name"]] += duration
            if span["parent"] >= 0:
                out[spans[span["parent"]]["name"]] -= duration
        return dict(out)

    def root_duration(self, run_id: str) -> float:
        root = next(s for s in self.spans if s["run_id"] == run_id and s["parent"] < 0)
        return root["end"] - root["start"]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
