"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as
``setup_s``), runs its body through ``op`` so every top-level call into
smjp is timed as a stage and counted, and checks its last repetition's
outputs against an acceptance-suite rule. Calls go through module
attributes (``switching.fit_best``, not a name bound at import) so the
tracer's hooks see them.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from smjp import analysis, cli, events, foraging, switching
from smjp.switching import FitConfig


def _toy_model(model_seed: int):
    """The ROADMAP toy's generating model, plus the chains and emission
    that make ToyConfig draw fresh sequences from it."""
    base = foraging.generate_toy(foraging.ToyConfig(), seed=model_seed)
    return base.model, tuple(base.model.chain_stack), base.model.emission


def _fit_config(spec: dict) -> FitConfig:
    return FitConfig(**{k: v for k, v in spec.items() if k not in ("n_states", "range")})


class ToyCli:
    """``smjp fit`` then ``smjp select-states`` on a 5000-event toy file."""

    def __init__(self, spec: dict, seed: int, workdir: Path):
        self.spec, self.seed = spec, seed
        self.events_path = workdir / "events.csv"
        self.fit_dir = workdir / "fit"
        self.select_dir = workdir / "select"

    def setup(self) -> None:
        toy = self.spec["toy"]
        self.true_model, chains, emission = _toy_model(toy["model_seed"])
        cfg = foraging.ToyConfig(expected_length=toy["expected_length"], chains=chains, emission=emission)
        self.sequence = foraging.generate_toy(cfg, np.random.default_rng(self.seed)).sequence
        events.write_event_file(self.sequence, str(self.events_path))
        holdout_fraction = _fit_config(self.spec["fit"]).holdout_fraction
        self.n_holdout = len(events.split_chronological(self.sequence, holdout_fraction)[1])

    @staticmethod
    def _flags(spec: dict) -> list[str]:
        flags = []
        for key, value in spec.items():
            flags += ["--" + key.replace("_", "-"), str(value)]
        return flags

    def _selection_complete(self) -> bool:
        rows = (self.select_dir / "state_selection.csv").read_text().splitlines()[3:]
        return all(np.isfinite(float(r.split(",")[1])) for r in rows)

    def body(self, op) -> dict:
        common = ["--events", str(self.events_path)]
        fit_args = ["fit", "--out", str(self.fit_dir), *common, *self._flags(self.spec["fit"])]
        op("fit_s", cli.main, fit_args, ok=lambda rc: rc == 0)
        select_args = ["select-states", "--out", str(self.select_dir), *common, *self._flags(self.spec["select"])]
        op("select_s", cli.main, select_args, ok=lambda rc: rc == 0 and self._selection_complete())
        report = (self.fit_dir / "fit_report.txt").read_text()
        heldout = float(next(l for l in report.splitlines() if l.startswith("heldout_loglik:")).split(":")[1])
        manifests = [(d / "manifest.txt").read_text() for d in (self.fit_dir, self.select_dir)]
        return {"heldout_ll": heldout, "nll_per_event": -heldout / self.n_holdout, "fingerprint": manifests}

    def check(self, out: dict) -> list[tuple[str, bool, str]]:
        cfg = _fit_config(self.spec["fit"])
        _, holdout = events.split_chronological(self.sequence, cfg.holdout_fraction)
        true_ll = switching.held_out_loglik(self.true_model, [holdout], cfg)
        floor = true_ll - self.spec["check"]["max_shortfall"] * abs(true_ll)
        ok = out["heldout_ll"] >= floor
        return [("fit within 2% of the generating model", ok, f"fitted {out['heldout_ll']:.1f} vs true {true_ll:.1f}")]

    def stage_metrics(self, stages: dict, counts: dict) -> dict:
        em_time = stages["fit_s"] + stages["select_s"]
        return {
            "fit_s": (stages["fit_s"], "s"),
            "select_s": (stages["select_s"], "s"),
            "em_steps_per_s": (counts["switching.estep.grid_steps"] / em_time, "1/s"),
        }


class ForagePipeline:
    """fit_best on the simulated optimal agent, then the analysis chain."""

    def __init__(self, spec: dict, seed: int, workdir: Path):
        self.spec, self.seed = spec, seed

    def setup(self) -> None:
        world = self.spec["world"]
        mdp = foraging.build_belief_mdp(foraging.WorldConfig(), world["m_bins"], world["diffusion_eps"])
        vi = foraging.value_iteration(mdp, tol=world["vi_tol"])
        mdp = replace(mdp, values=vi.values, policy=vi.policy)
        self.sequence, trace = foraging.simulate_agent(mdp, world["horizon"], self.seed)
        self.agent_posterior = trace.one_hot()
        holdout_fraction = _fit_config(self.spec["fit"]).holdout_fraction
        self.n_holdout = len(events.split_chronological(self.sequence, holdout_fraction)[1])

    def body(self, op) -> dict:
        fit_spec = self.spec["fit"]
        cfg = _fit_config(fit_spec)
        report = op("fit_s", switching.fit_best, [self.sequence], fit_spec["n_states"], cfg)
        gamma = op("analysis_s", analysis.event_state_posterior, report.final_model, self.sequence, cfg)
        corr = op("analysis_s", analysis.state_correspondence, gamma, self.agent_posterior)
        sizes = self.spec["cocluster_sizes"]
        chosen = op(
            "analysis_s", analysis.select_cocluster_sizes, corr.joint,
            range(sizes["rows"][0], sizes["rows"][1] + 1), range(sizes["cols"][0], sizes["cols"][1] + 1),
            sizes["seed"], sizes["restarts"],
        ).chosen
        cc_spec = self.spec["cocluster"]
        cc = op("analysis_s", analysis.cocluster, corr.joint, cc_spec["k_rows"], cc_spec["k_cols"],
                seed=cc_spec["seed"], restarts=cc_spec["restarts"])
        return {
            "heldout_ll": report.heldout_ll,
            "nll_per_event": -report.heldout_ll / self.n_holdout,
            "joint": corr.joint,
            "cocluster": cc,
            "fingerprint": [report.heldout_ll, list(chosen), cc.mutual_information_loss],
        }

    def check(self, out: dict) -> list[tuple[str, bool, str]]:
        # Acceptance criterion 07: the largest lift of P(agent cluster |
        # model cluster) over the agent-cluster baseline.
        joint, cc = out["joint"], out["cocluster"]
        clustered = np.zeros((cc.n_row_clusters, cc.n_col_clusters))
        for i in range(joint.shape[0]):
            np.add.at(clustered[cc.row_assignment[i]], cc.col_assignment, joint[i])
        row_mass = clustered.sum(axis=1, keepdims=True)
        conditional = clustered / np.where(row_mass > 0, row_mass, 1.0)
        baseline = clustered.sum(axis=0)
        lift = float(np.max(conditional / np.where(baseline > 0, baseline, np.inf)))
        ok = lift >= self.spec["check"]["min_lift"]
        return [("co-cluster lift at least 3", ok, f"lift {lift:.2f}")]

    def stage_metrics(self, stages: dict, counts: dict) -> dict:
        return {
            "fit_s": (stages["fit_s"], "s"),
            "analysis_s": (stages["analysis_s"], "s"),
            "em_steps_per_s": (counts["switching.estep.grid_steps"] / stages["fit_s"], "1/s"),
        }


class ScoreMany:
    """held_out_loglik of the generating model over 40 mixed-length toys."""

    def __init__(self, spec: dict, seed: int, workdir: Path):
        self.spec, self.seed = spec, seed
        self.config = FitConfig(**spec["score"])

    def setup(self) -> None:
        spec = self.spec
        self.model, chains, emission = _toy_model(spec["toy"]["model_seed"])
        rng = np.random.default_rng(self.seed)
        n = spec["sequences"]
        # One log-uniform draw per stratum keeps the total length steady
        # across seeds while every length stays log-uniform.
        u = (np.arange(n) + rng.random(n)) / n
        lo, hi = np.log(spec["min_length"]), np.log(spec["max_length"])
        lengths = np.rint(np.exp(lo + u * (hi - lo))).astype(int)
        rng.shuffle(lengths)
        self.sequences = [
            foraging.generate_toy(
                foraging.ToyConfig(expected_length=int(length), chains=chains, emission=emission), rng
            ).sequence
            for length in lengths
        ]
        self.n_events = sum(len(s) for s in self.sequences)

    def body(self, op) -> dict:
        score = op("score_s", switching.held_out_loglik, self.model, self.sequences, self.config)
        return {"score": score, "nll_per_event": -score / self.n_events, "fingerprint": [score]}

    def check(self, out: dict) -> list[tuple[str, bool, str]]:
        score = out["score"]
        twice = switching.held_out_loglik(self.model, self.sequences + self.sequences, self.config)
        tol = self.spec["check"]["additivity_rel_tol"] * abs(score)
        return [
            ("score is finite", bool(np.isfinite(score)), f"score {score:.6f}"),
            ("set listed twice scores twice", abs(twice - 2 * score) <= tol, f"difference {twice - 2 * score:.3g}"),
        ]

    def stage_metrics(self, stages: dict, counts: dict) -> dict:
        scored = self.n_events * self.config.eval_grids
        return {
            "score_s": (stages["score_s"], "s"),
            "score_events_per_s": (scored / stages["score_s"], "1/s"),
        }


WORKLOADS = {"toy-cli": ToyCli, "forage-pipeline": ForagePipeline, "score-many": ScoreMany}
