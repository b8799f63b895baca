import contextlib
import hashlib
import inspect
import io
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smjp import analysis, cli, switching
from smjp.analysis import cocluster, extract_subgraphs, select_cocluster_sizes
from smjp.cli import EXIT_DOMAIN, EXIT_PARSE, EXIT_USAGE, main
from smjp.core import SmjpError, derive_rng
from smjp.events import parse_event_file
from smjp.foraging import ToyConfig, WorldConfig, solve_belief_mdp
from smjp.switching import FitConfig


def run(args):
    return main([str(a) for a in args])


def digest_dir(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def toy_args(out, seed=7, length=250):
    return ["simulate-toy", "--seed", seed, "--out", out, "--toy-length", length]


class TestDeterminism:
    def test_simulate_toy_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(toy_args(a)) == 0
        assert run(toy_args(b)) == 0
        assert digest_dir(a) == digest_dir(b)

    def test_different_seed_different_data(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(toy_args(a, seed=1)) == 0
        assert run(toy_args(b, seed=2)) == 0
        assert digest_dir(a)["events.csv"] != digest_dir(b)["events.csv"]

    def test_fit_byte_identical(self, tmp_path):
        data = tmp_path / "data"
        run(toy_args(data))
        fit_flags = ["--events", data / "events.csv", "--n-states", 3, "--seed", 5,
                     "--restarts", 1, "--inner-iterations", 3, "--outer-cap", 3, "--eval-grids", 2]
        a, b = tmp_path / "fa", tmp_path / "fb"
        assert run(["fit", "--out", a] + fit_flags) == 0
        assert run(["fit", "--out", b] + fit_flags) == 0
        assert digest_dir(a) == digest_dir(b)


class TestFitEvaluateChain:
    def test_evaluate_reproduces_report_heldout(self, tmp_path):
        data = tmp_path / "data"
        run(toy_args(data, seed=3, length=300))
        fit_out = tmp_path / "fit"
        assert run([
            "fit", "--out", fit_out, "--events", data / "events.csv",
            "--n-states", 3, "--seed", 11, "--restarts", 1,
            "--inner-iterations", 3, "--outer-cap", 3, "--eval-grids", 2,
        ]) == 0
        report = (fit_out / "fit_report.txt").read_text().splitlines()
        heldout = next(l.split(":", 1)[1].strip() for l in report if l.startswith("heldout_loglik:"))
        ev_out = tmp_path / "eval"
        assert run([
            "evaluate", "--out", ev_out, "--model", fit_out / "model.smjp",
            "--events", data / "events.csv", "--seed", 11, "--use-holdout",
        ]) == 0
        evaluation = (ev_out / "evaluation.txt").read_text().splitlines()
        got = next(l.split(":", 1)[1].strip() for l in evaluation if l.startswith("loglik:"))
        assert got == heldout

    def test_model_metadata_records_heldout(self, tmp_path):
        data = tmp_path / "data"
        run(toy_args(data, seed=3, length=200))
        fit_out = tmp_path / "fit"
        run([
            "fit", "--out", fit_out, "--events", data / "events.csv",
            "--n-states", 2, "--seed", 1, "--restarts", 1,
            "--inner-iterations", 2, "--outer-cap", 2, "--eval-grids", 2,
        ])
        text = (fit_out / "model.smjp").read_text()
        assert text.startswith("smjp-model v1\n")
        assert "meta heldout_loglik:" in text


class TestZeroPassesWithoutHoldout:
    """Zero EM passes and no held-out part: every start is scored by its
    exact training log-likelihood, and the command exits 0."""

    @pytest.mark.parametrize("zero", [["--inner-iterations", 0], ["--outer-cap", 0],
                                      ["--inner-iterations", 0, "--outer-cap", 0]])
    def test_fit_with_two_restarts_keeps_the_best_start(self, tmp_path, capsys, zero):
        data = tmp_path / "data"
        run(toy_args(data, seed=3, length=200))
        out = tmp_path / "fit"
        rc = run(["fit", "--out", out, "--events", data / "events.csv", "--n-states", 3, "--seed", 4,
                  "--holdout-fraction", 0, "--restarts", 2] + zero)
        assert rc == 0 and capsys.readouterr().err == ""
        seq = parse_event_file(data / "events.csv")
        cfg = FitConfig(seed=4, holdout_fraction=0.0, restarts=2)
        starts = [switching.init_random_model(3, seq.observation_alphabet, seq.action_alphabet, cfg, (3, 3, r),
                                              seq.event_rate) for r in range(2)]
        scores = [switching.held_out_loglik(start, [seq]) for start in starts]
        assert scores[0] != scores[1]
        best = starts[int(np.argmax(scores))]
        saved, _ = switching.load_model(out / "model.smjp")
        assert all(np.array_equal(a, b) for a, b in zip(saved.chain_stack, best.chain_stack))

    def test_select_states_scores_every_count(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(toy_args(data, seed=3, length=200))
        out = tmp_path / "sel"
        rc = run(["select-states", "--out", out, "--events", data / "events.csv", "--range", "2:3", "--seed", 4,
                  "--inner-iterations", 0, "--holdout-fraction", 0])
        assert rc == 0 and capsys.readouterr().err == ""
        rows = (out / "state_selection.csv").read_text().splitlines()[3:]
        assert [r.split(",")[0] for r in rows] == ["2", "3"]
        assert all(np.isfinite(float(r.split(",")[1])) for r in rows)


class TestSelectStates:
    def test_range_row_count(self, tmp_path):
        data = tmp_path / "data"
        run(toy_args(data, seed=5, length=200))
        out = tmp_path / "sel"
        assert run([
            "select-states", "--out", out, "--events", data / "events.csv",
            "--range", "2:4", "--seed", 2, "--restarts", 1,
            "--inner-iterations", 2, "--outer-cap", 2, "--eval-grids", 2,
        ]) == 0
        lines = (out / "state_selection.csv").read_text().splitlines()
        rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("n_states")]
        assert len(rows) == 3
        assert any(l.startswith("# chosen:") for l in lines)


class TestManifest:
    def test_every_output_listed_with_matching_digest(self, tmp_path):
        out = tmp_path / "toy"
        run(toy_args(out))
        manifest = (out / "manifest.txt").read_text().splitlines()
        listed = {}
        for line in manifest:
            line = line.strip()
            if line.startswith("events.") or line.startswith("states.") or line.startswith("true_model."):
                name, digest = line.split(" sha256=")
                listed[name] = digest
        actual = digest_dir(out)
        for name, digest in listed.items():
            assert actual[name] == digest
        for name in actual:
            if name != "manifest.txt":
                assert name in listed

    def test_manifest_records_config_and_command(self, tmp_path):
        out = tmp_path / "toy"
        run(toy_args(out, seed=42))
        text = (out / "manifest.txt").read_text()
        assert text.startswith("smjp-manifest v1\ncommand: simulate-toy\n")
        assert "seed = 42" in text


class TestPipelineCommands:
    def test_foraging_correspond_cocluster_operators_intervals(self, tmp_path):
        sim = tmp_path / "sim"
        assert run([
            "simulate-foraging", "--out", sim, "--seed", 3,
            "--horizon", 1500, "--m-bins", 5,
        ]) == 0
        assert (sim / "truth_z.csv").exists() and (sim / "policy.csv").exists()

        fit_out = tmp_path / "fit"
        assert run([
            "fit", "--out", fit_out, "--events", sim / "events.csv",
            "--n-states", 3, "--seed", 4, "--restarts", 1,
            "--inner-iterations", 3, "--outer-cap", 2, "--eval-grids", 2,
        ]) == 0

        corr_out = tmp_path / "corr"
        assert run([
            "correspond", "--out", corr_out, "--model", fit_out / "model.smjp",
            "--events", sim / "events.csv", "--truth", sim / "truth_z.csv",
            "--seed", 4,
        ]) == 0
        joint_file = corr_out / "correspondence.csv"
        assert joint_file.exists()

        co_out = tmp_path / "co"
        assert run([
            "cocluster", "--out", co_out, "--joint", joint_file,
            "--rows", "2", "--cols", "2:3", "--seed", 5, "--cocluster-restarts", 6,
        ]) == 0
        text = (co_out / "cocluster.txt").read_text()
        assert "row_assignment:" in text and "loss:" in text
        assert (co_out / "loss_surface.csv").exists()

        op_out = tmp_path / "ops"
        assert run(["operators", "--out", op_out, "--model", fit_out / "model.smjp", "--seed", 0]) == 0
        assert "operator" in (op_out / "operators.txt").read_text()

        iv_out = tmp_path / "iv"
        assert run([
            "intervals", "--out", iv_out, "--events", sim / "events.csv",
            "--action", "press-1", "--seed", 0,
        ]) == 0
        assert "ks_pvalue:" in (iv_out / "intervals.txt").read_text()

    def test_quantize_command(self, tmp_path):
        rng = derive_rng(0)
        pts = np.vstack([
            rng.normal((0, 0), 0.2, size=(30, 2)),
            rng.normal((5, 5), 0.2, size=(30, 2)),
        ])
        pfile = tmp_path / "points.csv"
        pfile.write_text("x,y\n" + "\n".join(f"{float(x)!r},{float(y)!r}" for x, y in pts) + "\n")
        out = tmp_path / "q"
        assert run(["quantize", "--out", out, "--points", pfile, "--k-locations", 2, "--seed", 1]) == 0
        labels = (out / "labels.csv").read_text().splitlines()
        assert len([l for l in labels if l and not l.startswith("#") and not l.startswith("index")]) == 60


class TestErrorExitCodes:
    def test_missing_events_file(self, tmp_path):
        rc = run(["fit", "--out", tmp_path / "x", "--events", tmp_path / "nope.csv", "--seed", 0])
        assert rc == EXIT_PARSE

    def test_malformed_events_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not an events file\n")
        rc = run(["fit", "--out", tmp_path / "x", "--events", bad, "--seed", 0])
        assert rc == EXIT_PARSE

    def test_quantize_k_too_large(self, tmp_path):
        pfile = tmp_path / "p.csv"
        pfile.write_text("0.0,0.0\n0.0,0.0\n")
        rc = run(["quantize", "--out", tmp_path / "q", "--points", pfile, "--k-locations", 5, "--seed", 0])
        assert rc == EXIT_DOMAIN

    def test_zero_eval_grids(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(toy_args(data, length=120))
        capsys.readouterr()
        rc = run(["fit", "--out", tmp_path / "x", "--events", data / "events.csv", "--seed", 0,
                  "--n-states", 2, "--restarts", 1, "--eval-grids", 0])
        assert rc == EXIT_DOMAIN
        assert capsys.readouterr().err.splitlines() == ["error: eval_grids must be at least 1, got 0"]

    def test_zero_restarts(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(toy_args(data, length=120))
        capsys.readouterr()
        rc = run(["fit", "--out", tmp_path / "x", "--events", data / "events.csv", "--seed", 0,
                  "--n-states", 2, "--restarts", 0])
        assert rc == EXIT_DOMAIN
        assert capsys.readouterr().err.splitlines() == ["error: restarts must be at least 1, got 0"]

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_real_knob = 3\n")
        rc = run(["simulate-toy", "--out", tmp_path / "x", "--seed", 0, "--config", cfg])
        assert rc == EXIT_USAGE

    def test_config_file_overridden_by_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("toy_length = 100\nseed = 9\n")
        out = tmp_path / "toy"
        assert run(["simulate-toy", "--out", out, "--config", cfg, "--toy-length", 150]) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "toy_length = 150" in manifest
        assert "seed = 9" in manifest

    def test_select_states_zero_restarts(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(toy_args(data, length=150))
        capsys.readouterr()
        rc = run(["select-states", "--out", tmp_path / "x", "--events", data / "events.csv", "--seed", 0,
                  "--range", "2:3", "--restarts", 0])
        assert rc == EXIT_DOMAIN
        assert capsys.readouterr().err.splitlines() == ["error: restarts must be at least 1, got 0"]

    def test_zero_eval_grids_without_holdout(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(toy_args(data, length=120))
        capsys.readouterr()
        rc = run(["fit", "--out", tmp_path / "x", "--events", data / "events.csv", "--seed", 0,
                  "--n-states", 2, "--restarts", 1, "--eval-grids", 0, "--holdout-fraction", 0])
        assert rc == EXIT_DOMAIN
        assert capsys.readouterr().err.splitlines() == ["error: eval_grids must be at least 1, got 0"]

    def test_zero_states(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(toy_args(data, length=120))
        capsys.readouterr()
        rc = run(["fit", "--out", tmp_path / "x", "--events", data / "events.csv", "--seed", 0,
                  "--n-states", 0, "--restarts", 1])
        assert rc == EXIT_DOMAIN
        assert capsys.readouterr().err.splitlines() == ["error: n_states must be at least 1, got 0"]

    def test_select_states_zero_states(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(toy_args(data, length=120))
        capsys.readouterr()
        out = tmp_path / "x"
        rc = run(["select-states", "--out", out, "--events", data / "events.csv", "--seed", 0,
                  "--range", "0:2", "--restarts", 1])
        assert rc == EXIT_DOMAIN
        assert capsys.readouterr().err.splitlines() == ["error: n_states must be at least 1, got 0"]
        assert not out.exists()

    def test_failed_command_leaves_no_out_dir(self, tmp_path):
        data = tmp_path / "data"
        run(toy_args(data, length=120))
        out = tmp_path / "X"
        rc = run(["fit", "--out", out, "--events", data / "events.csv", "--seed", 0,
                  "--n-states", 2, "--restarts", 0])
        assert rc == EXIT_DOMAIN
        assert not out.exists()

    @pytest.mark.parametrize("row", ["0.1 zz", "0.1 0.2 0.3"])
    def test_malformed_joint_row(self, tmp_path, capsys, row):
        joint = tmp_path / "joint.csv"
        joint.write_text(f"# smjp-matrix v1\n# name: joint\n# rows: a b\n# cols: x y\n0.1 0.2\n{row}\n")
        rc = run(["cocluster", "--out", tmp_path / "co", "--joint", joint, "--rows", 2, "--cols", 2, "--seed", 0])
        assert rc == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{joint}:6:" in err[0]

    def test_malformed_truth_row(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(toy_args(data, length=120))
        truth = tmp_path / "truth.csv"
        truth.write_text("# smjp-agent-truth v1\n# n_z: 2\ntime,z,location,rewarded,belief_bin\n0.1,zz,0,0,0\n")
        capsys.readouterr()
        rc = run(["correspond", "--out", tmp_path / "c", "--model", data / "true_model.smjp",
                  "--events", data / "events.csv", "--truth", truth, "--seed", 0])
        assert rc == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{truth}:4:" in err[0]

    def test_out_naming_a_file_rejected_before_work(self, tmp_path, capsys, monkeypatch):
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        monkeypatch.setattr(cli, "generate_toy", lambda *a: pytest.fail("command ran before --out was checked"))
        rc = run(toy_args(afile))
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"error: --out {afile}: exists and is not a directory"]
        assert afile.read_text() == "keep\n"

    @pytest.mark.parametrize("flag", ["--events", "--config"])
    def test_directory_as_input_file(self, tmp_path, capsys, flag):
        data = tmp_path / "data"
        run(toy_args(data, length=120))
        capsys.readouterr()
        adir = tmp_path / "adir"
        adir.mkdir()
        inputs = {"--events": data / "events.csv", flag: adir}
        rc = run(["fit", "--out", tmp_path / "x", "--seed", 0, "--n-states", 2, "--restarts", 1]
                 + [a for pair in inputs.items() for a in pair])
        assert rc == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "Is a directory" in err[0] and str(adir) in err[0]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("body, message", [
        ("x,y\n0.0,0.0\n0.1,zz\n", "{path}:3: bad point line '0.1,zz'"),
        ("# no points\nx,y\n", "{path}: no points found"),
    ])
    def test_malformed_points(self, tmp_path, capsys, body, message):
        pfile = tmp_path / "p.csv"
        pfile.write_text(body)
        rc = run(["quantize", "--out", tmp_path / "q", "--points", pfile, "--k-locations", 1, "--seed", 0])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err.splitlines() == ["error: " + message.format(path=pfile)]

    @pytest.mark.parametrize("rows, cols, message", [
        ("1:1000000000", "2:10", "--rows: cluster counts 1:1000000000 out of range for shape (2, 2)"),
        ("0:2", "2", "--rows: cluster counts 0:2 out of range for shape (2, 2)"),
        ("2", "2:1000000000", "--cols: cluster counts 2:1000000000 out of range for shape (2, 2)"),
    ])
    def test_size_range_past_the_joint_refused_before_any_pair(self, tmp_path, capsys, monkeypatch, rows, cols,
                                                               message):
        monkeypatch.setattr(cli, "select_cocluster_sizes", lambda *a: pytest.fail("built the size pairs"))
        joint = tmp_path / "joint.csv"
        joint.write_text("# smjp-matrix v1\n# name: joint\n# rows: a b\n# cols: x y\n0.5 0.0\n0.0 0.5\n")
        out = tmp_path / "co"
        rc = run(["cocluster", "--out", out, "--joint", joint, "--rows", rows, "--cols", cols, "--seed", 0])
        assert rc == EXIT_DOMAIN
        assert capsys.readouterr().err.splitlines() == ["error: " + message]
        assert not out.exists()

    def test_header_only_joint(self, tmp_path, capsys):
        joint = tmp_path / "joint.csv"
        joint.write_text("# smjp-matrix v1\n# name: joint\n# rows: a b\n# cols: x y\n")
        rc = run(["cocluster", "--out", tmp_path / "co", "--joint", joint, "--rows", 2, "--cols", 2, "--seed", 0])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err.splitlines() == [f"error: {joint}: no matrix rows"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("cols", ["2", "1:2"])
    def test_joint_not_finite_and_non_negative(self, tmp_path, capsys, cell, cols):
        joint = tmp_path / "joint.csv"
        joint.write_text(f"# smjp-matrix v1\n# name: joint\n# rows: a b\n# cols: x y\n0.5 {cell}\n0.0 0.5\n")
        out = tmp_path / "co"
        rc = run(["cocluster", "--out", out, "--joint", joint, "--rows", 2, "--cols", cols, "--seed", 0])
        assert rc == EXIT_DOMAIN
        assert capsys.readouterr().err.splitlines() == ["error: joint must be a finite non-negative matrix"]
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["select-states", "--events", "{events}", "--range", "2:x"], "--range: bad range '2:x'"),
        (["cocluster", "--joint", "{joint}", "--rows", "x", "--cols", "2"], "--rows: bad range 'x'"),
        (["simulate-toy", "--config", "{config}"], "bad int 'x' for config key seed"),
    ])
    def test_bad_number_in_usage_input(self, tmp_path, capsys, args, message):
        data = tmp_path / "data"
        run(toy_args(data, length=120))
        joint = tmp_path / "joint.csv"
        joint.write_text("# smjp-matrix v1\n# name: joint\n# rows: a b\n# cols: x y\n0.5 0.0\n0.0 0.5\n")
        config = tmp_path / "run.cfg"
        config.write_text("seed = x\n")
        capsys.readouterr()
        paths = {"events": data / "events.csv", "joint": joint, "config": config}
        rc = run([a.format(**paths) for a in args] + ["--out", tmp_path / "x"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == ["error: " + message]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, flag, code", [
        (["simulate-toy"], "--config", EXIT_USAGE),
        (["cocluster", "--rows", "2", "--cols", "2"], "--joint", EXIT_PARSE),
        (["quantize"], "--points", EXIT_PARSE),
        (["operators"], "--model", EXIT_PARSE),
    ])
    def test_undecodable_bytes(self, tmp_path, capsys, command, flag, code):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe 1 2\n")
        rc = run(command + [flag, bad, "--out", tmp_path / "x", "--seed", 0])
        assert rc == code
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("flag, body, message", [
        ("--joint", "# not a matrix\n0.5 0.5\n", "{path}: not a labeled-matrix file"),
        ("--truth", "time,z\n0.1,0\n", "{path}: not an agent-truth file"),
        ("--truth", "# smjp-agent-truth v1\ntime,z\n0.1,0\n", "{path}: missing n_z header"),
    ])
    def test_wrong_header(self, tmp_path, capsys, flag, body, message):
        data = tmp_path / "data"
        run(toy_args(data, length=120))
        bad = tmp_path / "bad.csv"
        bad.write_text(body)
        capsys.readouterr()
        if flag == "--joint":
            args = ["cocluster", "--rows", 2, "--cols", 2, "--joint", bad]
        else:
            args = ["correspond", "--model", data / "true_model.smjp", "--events", data / "events.csv", "--truth", bad]
        rc = run(args + ["--out", tmp_path / "x", "--seed", 0])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err.splitlines() == ["error: " + message.format(path=bad)]

    @pytest.mark.parametrize("command", [["fit", "--n-states", "2"], ["select-states", "--range", "2:3"]])
    @pytest.mark.parametrize("n_events", [0, 1])
    def test_too_few_training_events(self, tmp_path, capsys, command, n_events):
        data = tmp_path / "data"
        run(toy_args(data, length=120))
        text = (data / "events.csv").read_text()
        lines = text.splitlines(keepends=True)
        columns = lines.index("time,observation,action\n")
        short = tmp_path / "short.csv"
        short.write_text("".join(lines[:columns + 1 + n_events]))
        capsys.readouterr()
        rc = run(command + ["--events", short, "--out", tmp_path / "x", "--seed", 0, "--restarts", 1])
        assert rc == EXIT_DOMAIN
        assert capsys.readouterr().err.splitlines() == [
            f"error: sequence 'toy' has {n_events} training events, need at least 2"]

    def test_out_under_a_file_rejected_before_work(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        run(toy_args(data, length=120))
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        capsys.readouterr()
        monkeypatch.setattr(cli, "fit_best", lambda *a: pytest.fail("command ran before --out was checked"))
        rc = run(["fit", "--events", data / "events.csv", "--out", afile / "sub", "--seed", 0])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out {afile / 'sub'}: {afile} exists and is not a directory"]
        assert afile.read_text() == "keep\n"

    @pytest.mark.parametrize("flag, edit, message", [
        pytest.param("--model", lambda text: "x", "{path}:1: expected 'smjp-model v1' on the first line",
                     id="model-one-byte"),
        pytest.param("--model", lambda text: "".join(text.splitlines(keepends=True)[:7]),
                     "{path}:8: file ended early, expected a row of 5 numbers", id="model-cut-after-7-lines"),
        pytest.param("--events", lambda text: text.replace(",o0,", ",o9,").replace(",o1,", ",o9,"),
                     "{path}:6: observation 'o9' not declared", id="events-undeclared-symbol"),
        pytest.param("--truth", lambda text: text.replace("0.1,0,", "0.1,2,"),
                     "{path}:4: agent state 2 outside 0..1", id="truth-state-out-of-range"),
    ])
    def test_parse_errors_name_file_and_line(self, tmp_path, capsys, flag, edit, message):
        data = tmp_path / "data"
        run(toy_args(data, length=120))
        inputs = {"--model": data / "true_model.smjp", "--events": data / "events.csv", "--truth": tmp_path / "t.csv"}
        times = [line.split(",")[0] for line in (data / "events.csv").read_text().splitlines()[5:]]
        inputs["--truth"].write_text("# smjp-agent-truth v1\n# n_z: 2\ntime,z,location,rewarded,belief_bin\n"
                                     + "".join(f"{t},0,0,0,0\n" for t in ["0.1"] + times[1:]))
        bad = tmp_path / "bad"
        bad.write_text(edit(inputs[flag].read_text()))
        inputs[flag] = bad
        capsys.readouterr()
        rc = run(["correspond", "--out", tmp_path / "x", "--seed", 0] + [a for pair in inputs.items() for a in pair])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err.splitlines() == ["error: " + message.format(path=bad)]

    @pytest.mark.parametrize("line, edit, message", [
        pytest.param(6, lambda row: ["0.5"] + row[1:], "generator a0: positive diagonal entry",
                     id="positive-diagonal"),
        pytest.param(12, lambda row: [row[0], "-0.25"] + row[2:], "generator a1: negative off-diagonal rate -0.25",
                     id="negative-rate"),
        pytest.param(6, lambda row: [row[0], repr(float(row[1]) + 1.5)] + row[2:],
                     "generator a0: row sums deviate from zero by 1.5", id="row-sum"),
        pytest.param(18, lambda row: ["0.5", "0.75"], "emission: emission rows must be stochastic",
                     id="emission-row"),
        pytest.param(18, lambda row: ["nan", "nan"], "emission: emission rows must be stochastic",
                     id="emission-nan"),
    ])
    def test_model_invariant_names_file_and_block(self, tmp_path, capsys, line, edit, message):
        data = tmp_path / "data"
        run(toy_args(data, length=120))
        lines = (data / "true_model.smjp").read_text().splitlines()
        lines[line] = " ".join(edit(lines[line].split()))  # the block's first row
        bad = tmp_path / "bad.smjp"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = run(["operators", "--out", tmp_path / "x", "--model", bad])
        assert rc == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}:{line}: {message}")
        assert "np.float64" not in err[0]

    def test_infinite_omega_names_the_model_file(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(toy_args(data, length=120))
        text = (data / "true_model.smjp").read_text()
        bad = tmp_path / "inf.smjp"
        bad.write_text("\n".join("omega: inf" if l.startswith("omega:") else l for l in text.splitlines()) + "\n")
        capsys.readouterr()
        rc = run(["evaluate", "--out", tmp_path / "x", "--model", bad, "--events", data / "events.csv"])
        assert rc == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad}: omega must be finite, got inf"]
        assert "np.float64(" not in err[0]

    @pytest.mark.parametrize("command, floor_by", [(["fit", "--n-states", 2], "flag"),
                                                   (["select-states", "--range", "2:3"], "config")])
    def test_symbol_only_in_heldout_tail(self, tmp_path, capsys, command, floor_by):
        # A 100-event toy whose last 5 events carry o2, which no training
        # event carries.
        data = tmp_path / "data"
        run(toy_args(data, length=100))
        lines = (data / "events.csv").read_text().replace("# observations: o0 o1\n", "# observations: o0 o1 o2\n")
        lines = lines.splitlines()
        for i in range(len(lines) - 5, len(lines)):
            t, _, a = lines[i].split(",")
            lines[i] = f"{t},o2,{a}"
        events = tmp_path / "heldout_symbol.csv"
        events.write_text("\n".join(lines) + "\n")
        flags = ["--events", events, "--seed", 0, "--restarts", 1, "--inner-iterations", 3, "--outer-cap", 3,
                 "--eval-grids", 2]
        capsys.readouterr()
        assert run(command + flags + ["--out", tmp_path / "x"]) == EXIT_DOMAIN
        assert capsys.readouterr().err.splitlines() == [
            "error: observation 'o2' occurs only in the held-out part of sequence 'toy', so it has zero "
            "probability; set emission_floor above 0 (--emission-floor or --config) to fit it"]
        assert not (tmp_path / "x").exists()
        floor = tmp_path / "floor.cfg"
        floor.write_text("emission_floor = 0.01\n")
        floor_args = ["--emission-floor", 0.01] if floor_by == "flag" else ["--config", floor]
        assert run(command + flags + floor_args + ["--out", tmp_path / "y"]) == 0

    @pytest.mark.parametrize("command, flag, value, message", [
        ("simulate-foraging", "--travel-time", "nan", "travel_time must be finite, got nan"),
        ("simulate-foraging", "--box-mean-1", "nan", "box_means must be finite, got (nan, 30.0)"),
        ("simulate-foraging", "--box-mean-2", "inf", "box_means must be finite, got (10.0, inf)"),
        ("simulate-foraging", "--reward-value", "nan", "reward_value must be finite, got nan"),
        ("simulate-foraging", "--press-cost", "nan", "press_cost must be finite, got nan"),
        ("simulate-foraging", "--switch-cost", "inf", "switch_cost must be finite, got inf"),
        ("simulate-foraging", "--decision-tick", "inf", "decision_tick must be finite, got inf"),
        ("simulate-foraging", "--horizon", "nan", "horizon must be finite and positive, got nan"),
        ("simulate-foraging", "--horizon", "inf", "horizon must be finite and positive, got inf"),
        ("simulate-toy", "--toy-event-rate", "nan", "event_rate must be finite, got nan"),
        ("simulate-toy", "--toy-concentration", "inf", "concentration must be finite, got inf"),
    ])
    def test_non_finite_setting(self, tmp_path, capsys, monkeypatch, command, flag, value, message):
        for name in ("solve_belief_mdp", "generate_toy"):
            monkeypatch.setattr(cli, name, lambda *a: pytest.fail("planned or drew before checking settings"))
        rc = run([command, "--out", tmp_path / "x", flag, value, "--seed", 0])
        assert rc == EXIT_DOMAIN
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "x").exists()

    def test_m_bins_above_the_bound(self, tmp_path, capsys):
        # 3000 bins would need a 589 TiB kernel; the planner refuses it first.
        rc = run(["simulate-foraging", "--out", tmp_path / "x", "--m-bins", 3000, "--horizon", 10, "--seed", 0])
        assert rc == EXIT_DOMAIN
        assert capsys.readouterr().err.splitlines() == [
            "error: m_bins must be at most 45, got 3000 (the kernel takes 128 m^4 bytes)"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["evaluate", "correspond"])
    @pytest.mark.parametrize("relabel", [
        lambda text: text.replace("# observations: o0 o1\n", "# observations: o1 o0\n"),
        lambda text: text.replace("o0", "x").replace("o1", "y"),
    ], ids=["swapped", "renamed"])
    def test_event_alphabet_differs_from_model(self, tmp_path, capsys, monkeypatch, command, relabel):
        data = tmp_path / "data"
        run(toy_args(data, length=120))
        text = relabel((data / "events.csv").read_text())
        events = tmp_path / "relabeled.csv"
        events.write_text(text)
        times = [line.split(",")[0] for line in text.splitlines()[5:]]
        truth = tmp_path / "truth.csv"
        truth.write_text("# smjp-agent-truth v1\n# n_z: 1\ntime,z,location,rewarded,belief_bin\n"
                         + "".join(f"{t},0,0,0,0\n" for t in times))
        for module in (analysis, switching):
            monkeypatch.setattr(module, "build_time_grid", lambda *a: pytest.fail("built a grid"))
        args = [command, "--out", tmp_path / "x", "--model", data / "true_model.smjp", "--events", events, "--seed", 0]
        capsys.readouterr()
        rc = run(args + (["--truth", truth] if command == "correspond" else []))
        assert rc == EXIT_DOMAIN
        assert capsys.readouterr().err.splitlines() == [
            "error: sequence 'toy' observation alphabet differs from the model's"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["evaluate", "correspond"])
    def test_header_only_event_file(self, tmp_path, capsys, command):
        data = tmp_path / "data"
        run(toy_args(data, length=40))
        lines = (data / "events.csv").read_text().splitlines()
        events = tmp_path / "empty.csv"
        events.write_text("\n".join(lines[: lines.index("time,observation,action") + 1]) + "\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("# smjp-agent-truth v1\n# n_z: 1\ntime,z,location,rewarded,belief_bin\n")
        args = [command, "--out", tmp_path / "x", "--model", data / "true_model.smjp", "--events", events]
        capsys.readouterr()
        rc = run(args + (["--truth", truth] if command == "correspond" else []))
        assert rc == EXIT_DOMAIN
        assert capsys.readouterr().err.splitlines() == ["error: sequence 'toy' has no events"]
        assert not (tmp_path / "x").exists()

    def test_points_with_a_different_coordinate_count(self, tmp_path, capsys):
        pfile = tmp_path / "p.csv"
        pfile.write_text("x,y\n0.0,0.0\n0,1,0.2\n")
        rc = run(["quantize", "--out", tmp_path / "q", "--points", pfile, "--k-locations", 1, "--seed", 0])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().err.splitlines() == [f"error: {pfile}:3: expected 2 columns, got 3"]


def _defaults(fn) -> dict:
    return {k: p.default for k, p in inspect.signature(fn).parameters.items() if p.default is not p.empty}


class TestDefaults:
    def test_run_config_restates_library_defaults(self):
        cfg = cli.RunConfig()
        assert cfg.fit_config() == FitConfig()
        assert cfg.world_config() == WorldConfig()
        assert cfg.toy_config() == ToyConfig()
        mdp = _defaults(solve_belief_mdp)
        assert (cfg.m_bins, cfg.diffusion_eps) == (mdp["m_bins"], mdp["diffusion_eps"])
        sub = _defaults(extract_subgraphs)
        assert (cfg.operator_threshold, cfg.persistence_frac) == (sub["threshold"], sub["persistence_frac"])
        assert cfg.cocluster_restarts == _defaults(cocluster)["restarts"] == _defaults(select_cocluster_sizes)["restarts"]


# The invalid values among nan, inf, -1 and 0 of every FitConfig field that
# has one (integer fields take integers; per_action_emission has none).
INVALID_FIT_VALUES = [
    ("seed", -1), ("inner_iterations", -1), ("outer_cap", -1),
    *[(name, v) for name in ("eval_grids", "restarts") for v in (-1, 0)],
    *[(name, v) for name in ("tol", "plateau_eps", "emission_floor", "holdout_fraction")
      for v in (float("nan"), float("inf"), -1.0)],
]


class TestFitConfigRanges:
    def test_every_field_with_an_invalid_value_is_listed(self):
        listed = {name for name, _ in INVALID_FIT_VALUES} | {"per_action_emission"}
        assert listed == {f.name for f in fields(FitConfig)}

    @pytest.mark.parametrize("config", [FitConfig, cli.RunConfig])
    @pytest.mark.parametrize("name, value", INVALID_FIT_VALUES)
    def test_invalid_value_names_the_field(self, config, name, value):
        with pytest.raises(SmjpError, match=f"^{name} must be "):
            config(**{name: value})

    @pytest.mark.parametrize("key", ["omega_factor", "omega_prior_scale", "inner_tol", "grids_per_iteration"])
    def test_removed_omega_key_is_unknown(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 1\n{key} = 2.0\n")
        rc = run(["simulate-toy", "--out", tmp_path / "x", "--config", cfg])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"error: {cfg}:2: unknown config key {key!r}"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, flag", [("fit", "--grids-per-iteration"), ("evaluate", "--eval-grids"),
                                               ("correspond", "--eval-grids")])
    def test_removed_flag_is_a_usage_error(self, tmp_path, capsys, command, flag):
        inputs = {"fit": ["events"], "evaluate": ["model", "events"], "correspond": ["model", "events", "truth"]}
        args = [command, "--out", tmp_path / "x", flag, 2]
        for name in inputs[command]:
            args += [f"--{name}", tmp_path / f"{name}.txt"]
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


# Every RunConfig field under the commands that read it. Each run takes its
# settings from one --config file: the knob under test, plus the lines of
# SMALL that keep the run short (a line for the knob itself is replaced).
SMALL = {
    "simulate-toy": {"toy_length": 300},
    "simulate-foraging": {"horizon": 200, "m_bins": 4},
    "fit": {"n_states": 2, "restarts": 1, "outer_cap": 2, "inner_iterations": 2, "eval_grids": 1},
    "select-states": {"restarts": 1, "outer_cap": 2, "inner_iterations": 2, "eval_grids": 1},
}
SWEPT = {
    "simulate-toy": ["seed", "toy_states", "toy_observations", "toy_actions", "toy_length", "toy_event_rate",
                     "toy_concentration"],
    "simulate-foraging": ["box_mean_1", "box_mean_2", "press_cost", "switch_cost", "reward_value",
                          "travel_time", "decision_tick", "discount", "m_bins", "diffusion_eps", "horizon"],
    "fit": ["seed", "n_states", "inner_iterations", "outer_cap", "tol", "eval_grids", "restarts",
            "holdout_fraction", "emission_floor", "per_action_emission"],
    "select-states": ["plateau_eps"],
    "evaluate": ["eval_grids", "holdout_fraction"],
    "correspond": ["eval_grids"],
    "cocluster": ["cocluster_restarts"],
    "operators": ["operator_threshold", "persistence_frac"],
    "intervals": ["bin_width"],
    "quantize": ["k_locations"],
}
# Keys that fit once read: a config file that still sets one exits 2
# naming the key, whatever its value.
REMOVED_FIT_KEYS = ["inner_tol", "grids_per_iteration"]
SWEEP = [(command, name, value)
         for command, names in [*SWEPT.items(), ("fit", REMOVED_FIT_KEYS)] for name in names
         for value in ("nan", "inf", "-1", "0")]
# The fields for which 0 is a valid value; no field takes nan, inf or -1.
ZERO_OK = {"seed", "inner_iterations", "outer_cap", "tol", "holdout_fraction", "plateau_eps",
           "emission_floor", "per_action_emission", "press_cost", "switch_cost", "diffusion_eps",
           "operator_threshold", "persistence_frac", "bin_width"}

# The ToyConfig or WorldConfig field, or belief-planner setting, that each
# toy and world key sets; a range error names it (a parse error names the
# key) and the value.
MODEL_FIELD = {
    "toy_states": "n_states", "toy_observations": "n_observations", "toy_actions": "n_actions",
    "toy_length": "expected_length", "toy_event_rate": "event_rate", "toy_concentration": "concentration",
    "box_mean_1": "box_means", "box_mean_2": "box_means",
    **{name: name for name in ("press_cost", "switch_cost", "reward_value", "travel_time", "decision_tick",
                               "discount", "m_bins", "diffusion_eps")},
}


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """A 300-event toy and a 200-s forager (4 belief bins), with a model
    fitted to the forager, its correspondence joint and a points file."""
    base = tmp_path_factory.mktemp("sweep")
    toy, sim, fitted, corr = (base / name for name in ("toy", "sim", "fit", "corr"))
    assert run(toy_args(toy, length=300)) == 0
    assert run(["simulate-foraging", "--seed", 3, "--out", sim, "--horizon", 200, "--m-bins", 4]) == 0
    assert run(["fit", "--seed", 4, "--out", fitted, "--events", sim / "events.csv", "--n-states", 3,
                "--restarts", 1, "--outer-cap", 2, "--inner-iterations", 2, "--eval-grids", 1]) == 0
    assert run(["correspond", "--seed", 4, "--out", corr, "--model", fitted / "model.smjp",
                "--events", sim / "events.csv", "--truth", sim / "truth_z.csv"]) == 0
    points = base / "points.csv"
    points.write_text("x,y\n" + "".join(f"{i % 5}.0,{i % 3}.5\n" for i in range(30)))
    return {
        "simulate-toy": [],
        "simulate-foraging": [],
        "fit": ["--events", toy / "events.csv"],
        "select-states": ["--events", toy / "events.csv", "--range", "2:3"],
        "evaluate": ["--model", toy / "true_model.smjp", "--events", toy / "events.csv", "--use-holdout"],
        "correspond": ["--model", fitted / "model.smjp", "--events", sim / "events.csv",
                       "--truth", sim / "truth_z.csv"],
        "cocluster": ["--joint", corr / "correspondence.csv", "--rows", "2", "--cols", "2:3"],
        "operators": ["--model", fitted / "model.smjp"],
        "intervals": ["--events", sim / "events.csv"],
        "quantize": ["--points", points],
    }


class TestConfigSweep:
    def test_sweep_covers_every_field(self):
        assert {name for names in SWEPT.values() for name in names} == {f.name for f in fields(cli.RunConfig)}

    @pytest.mark.parametrize("command, name, value", SWEEP)
    def test_setting_ends_in_a_documented_exit(self, tmp_path, capsys, sweep_inputs, command, name, value):
        settings = {**SMALL.get(command, {}), name: value}
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{key} = {v}\n" for key, v in settings.items()))
        out = tmp_path / "out"
        capsys.readouterr()
        rc = run([command, "--out", out, "--config", config] + sweep_inputs[command])
        assert rc in (0, EXIT_USAGE, EXIT_PARSE, EXIT_DOMAIN, cli.EXIT_NUMERIC)
        assert (rc == 0) == (value == "0" and name in ZERO_OK)
        if rc:
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            if name in REMOVED_FIT_KEYS:
                assert err[0].endswith(f"unknown config key {name!r}")
            if name in MODEL_FIELD:
                assert MODEL_FIELD[name] in err[0] or name in err[0]
                assert value in err[0]
            assert not out.exists()
        else:
            assert (out / "manifest.txt").exists()


def fuzz_run(args, out: Path) -> tuple[int, str]:
    """(exit code, stdout) of one fuzzed command run with warnings as
    errors. The code must be 0 or a documented failure, and a failure must
    print one ``error:`` line and leave no ``out``."""
    stdout, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        rc = run([*args, "--out", out])
    assert rc in (0, EXIT_USAGE, EXIT_PARSE, EXIT_DOMAIN, cli.EXIT_NUMERIC)
    if rc:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()
    return rc, stdout.getvalue()


def mutated_joint_text(draw) -> str:
    """A valid 4x6 labeled matrix with some cells set to nan, inf, -1 or 0,
    some rows dropped or widened, and some header lines cut."""
    cells = np.array(draw(st.lists(st.sampled_from(["0.05", "0.0", "0.125", "0.3"]), min_size=24, max_size=24)))
    cells = cells.reshape(4, 6)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 5))
        cells[i, j] = draw(st.sampled_from(["nan", "inf", "-inf", "-1", "0"]))
    rows = [" ".join(r) for r in cells]
    for _ in range(draw(st.integers(0, 2))):
        del rows[draw(st.integers(0, len(rows) - 1))]
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] += " 0.1"
    header = ["# smjp-matrix v1", "# name: joint", "# rows: a b c d", "# cols: u v w x y z"]
    cut = draw(st.sets(st.integers(0, len(header) - 1), max_size=2))
    return "\n".join([line for n, line in enumerate(header) if n not in cut] + rows) + "\n"


class TestCoclusterFuzz:
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(st.data())
    def test_mutated_joint_ends_in_a_documented_exit(self, data):
        text = mutated_joint_text(data.draw)
        rows = data.draw(st.sampled_from(["1", "2", "1:3"]))
        cols = data.draw(st.sampled_from(["1", "3", "2:4"]))
        with tempfile.TemporaryDirectory() as tmp:
            joint, out = Path(tmp) / "joint.csv", Path(tmp) / "out"
            joint.write_text(text)
            rc, _ = fuzz_run(["cocluster", "--joint", joint, "--rows", rows, "--cols", cols,
                              "--seed", 0, "--cocluster-restarts", 2], out)
            if rc == 0:
                cells = [float(v) for line in text.splitlines() if not line.startswith("#") for v in line.split()]
                assert np.isfinite(cells).all() and min(cells) >= 0
                report = (out / "cocluster.txt").read_text()
                assert np.isfinite(float(report.split("loss: ")[1].split()[0]))


@pytest.fixture(scope="module")
def evaluate_inputs(tmp_path_factory):
    """A saved toy model and the 12 event rows and header of its data."""
    toy = tmp_path_factory.mktemp("evaluate") / "toy"
    assert run(toy_args(toy, seed=5, length=40)) == 0
    lines = (toy / "events.csv").read_text().splitlines()
    return toy / "true_model.smjp", lines[:5], lines[5:17]


CELL_VALUES = (
    ("nan", "inf", "-1", "0", "1e300", "1e6", "5e-324", "x", ""),
    ("o0", "o1", "o2", ""),
    ("a0", "a1", "a9", ""),
)
# The same for the forager's symbols.
FORAGER_CELL_VALUES = (CELL_VALUES[0], ("box-1", "reward", "o0", ""), ("stay", "move", "a9", ""))
# True one time in four, for the mutations that end every run they touch.
RARELY = st.integers(0, 3).map(lambda v: v == 3)


def mutated_event_text(draw, header, rows, cells=CELL_VALUES) -> str:
    """An event file with some cells replaced, the times after one
    row pushed far out, rows dropped, swapped or widened, and header lines
    cut or given other alphabets."""
    rows = [row.split(",") for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 2))
        rows[i][j] = draw(st.sampled_from(cells[j]))
    # Intervals of about 2e3, 2e6 and 2e8 expected virtual points: the
    # event-level series halves the first two and refuses the last.
    shift = draw(st.sampled_from([0.0, 1e3, 1e6, 1e8]))
    for row in rows[draw(st.integers(1, len(rows) - 1)):]:
        with contextlib.suppress(ValueError):
            row[0] = repr(float(row[0]) + shift)
    if draw(RARELY):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows[i], rows[j] = rows[j], rows[i]
    rows = [",".join(row) for row in rows[draw(st.integers(0, len(rows))):]]
    if rows and draw(RARELY):
        rows[-1] += ",a0"
    header = list(header)
    if draw(RARELY):
        header[2] = draw(st.sampled_from(["# observations: o1 o0", "# observations: o0 o1 o2"]))
    cut = draw(st.sets(st.integers(0, len(header) - 1), max_size=2)) if draw(RARELY) else ()
    return "\n".join([line for n, line in enumerate(header) if n not in cut] + rows) + "\n"


class TestEvaluateFuzz:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.data())
    def test_mutated_events_end_in_a_documented_exit(self, evaluate_inputs, data):
        model, header, rows = evaluate_inputs
        text = mutated_event_text(data.draw, header, rows)
        flags = ["--use-holdout"] if data.draw(st.booleans()) else []
        with tempfile.TemporaryDirectory() as tmp:
            events, out = Path(tmp) / "events.csv", Path(tmp) / "out"
            events.write_text(text)
            rc, stdout = fuzz_run(["evaluate", "--model", model, "--events", events, "--seed", 0, *flags], out)
            if rc == 0:
                (score,) = stdout.split()
                assert np.isfinite(float(score))
                evaluation = (out / "evaluation.txt").read_text().splitlines()
                assert evaluation[0] == "smjp-evaluation v1" and evaluation[2:] == [f"loglik: {score}"]

    def test_score_reads_no_grid_knob(self, tmp_path, evaluate_inputs, capsys):
        model, header, rows = evaluate_inputs
        events = tmp_path / "events.csv"
        events.write_text("\n".join(header + rows) + "\n")
        texts = set()
        for grids in (1, 4):
            out, config = tmp_path / f"out{grids}", tmp_path / f"grids{grids}.cfg"
            config.write_text(f"eval_grids = {grids}\n")
            assert run(["evaluate", "--out", out, "--model", model, "--events", events, "--config", config]) == 0
            texts.add((out / "evaluation.txt").read_text())
        assert texts == {f"smjp-evaluation v1\nevents: 12\nloglik: {capsys.readouterr().out.split()[0]}\n"}


class TestFitFuzz:
    """``fit`` and ``select-states`` on mutated toy events, rows duplicated
    into tied times among them, and on stray flag values."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.data())
    def test_mutated_events_and_flags_end_in_a_documented_exit(self, evaluate_inputs, data):
        _, header, rows = evaluate_inputs
        rows = list(rows)
        if data.draw(RARELY):
            i = data.draw(st.integers(0, len(rows) - 1))
            rows.insert(i, rows[i])
        text = mutated_event_text(data.draw, header, rows)

        def value(good, bad):
            return data.draw(st.sampled_from(bad if data.draw(RARELY) else good))

        command = data.draw(st.sampled_from(["fit", "select-states"]))
        flags = ["--seed", 0, "--restarts", 1, "--outer-cap", 1, "--inner-iterations", 1,
                 "--holdout-fraction", value(["0", "0.2", "0.5"], ["0.95", "1", "-0.1", "nan"])]
        if command == "fit":
            flags += ["--n-states", value([1, 2, 3], [0]),
                      "--emission-floor", value(["0", "0.01", "1"], ["-1", "nan", "inf"])]
        else:
            flags += ["--range", value(["1:3", "2", "2:3"], ["0:2", "3:1", "x", "1:"])]
        with tempfile.TemporaryDirectory() as tmp:
            events, out = Path(tmp) / "events.csv", Path(tmp) / "out"
            events.write_text(text)
            rc, _ = fuzz_run([command, "--events", events, *flags], out)
            if rc == 0 and command == "fit":
                switching.load_model(out / "model.smjp")
                report = (out / "fit_report.txt").read_text()
                assert report.startswith("smjp-fit-report v1\n") and "iterations: 1\n" in report
            elif rc == 0:
                lines = (out / "state_selection.csv").read_text().splitlines()
                assert int(lines[1].split(": ")[1]) in [int(line.split(",")[0]) for line in lines[3:]]


@pytest.fixture(scope="module")
def correspond_inputs(sweep_inputs):
    """The sweep's fitted forager model, the header and first 12 rows of
    its event file, and the header of its truth file."""
    model, events, truth = sweep_inputs["correspond"][1::2]
    lines = events.read_text().splitlines()
    cut = lines.index("time,observation,action") + 1
    truth_lines = truth.read_text().splitlines()
    return model, lines[:cut], lines[cut : cut + 12], truth_lines[: truth_lines.index("time,z,location,rewarded,belief_bin") + 1]


def mutated_truth_text(draw, header, event_text) -> str:
    """Agent truth at the times of an event file's rows, with a row dropped
    or shifted, a state put outside 0..n_z-1, or the n_z header removed."""
    n_z = int(next(line for line in header if line.startswith("# n_z:")).split(":")[1])
    times = [line.split(",")[0] for line in event_text.splitlines() if line and not line.startswith(("#", "time,"))]
    rows = [[t, str(z), "0", "0", "0"] for t, z in zip(times, draw(st.lists(
        st.integers(0, n_z - 1), min_size=len(times), max_size=len(times))))]
    if rows and draw(RARELY):
        del rows[draw(st.integers(0, len(rows) - 1))]
    if rows and draw(RARELY):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        with contextlib.suppress(ValueError):
            row[0] = repr(float(row[0]) + 0.25)
    if rows and draw(RARELY):
        rows[draw(st.integers(0, len(rows) - 1))][1] = str(draw(st.sampled_from([-1, n_z])))
    if draw(RARELY):
        header = [line for line in header if not line.startswith("# n_z:")]
    return "\n".join(header + [",".join(row) for row in rows]) + "\n"


class TestCorrespondFuzz:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.data())
    def test_mutated_events_and_truth_end_in_a_documented_exit(self, correspond_inputs, data):
        model, header, rows, truth_header = correspond_inputs
        text = mutated_event_text(data.draw, header, rows, FORAGER_CELL_VALUES)
        truth_text = mutated_truth_text(data.draw, truth_header, text)
        with tempfile.TemporaryDirectory() as tmp:
            events, truth, out = Path(tmp) / "events.csv", Path(tmp) / "truth.csv", Path(tmp) / "out"
            events.write_text(text)
            truth.write_text(truth_text)
            rc, _ = fuzz_run(["correspond", "--model", model, "--events", events, "--truth", truth,
                              "--seed", 0], out)
            if rc == 0:
                joint = (out / "correspondence.csv").read_text().splitlines()
                cells = [float(v) for line in joint if not line.startswith("#") for v in line.split()]
                assert np.isfinite(cells).all() and min(cells) >= 0
                assert sum(cells) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def intervals_inputs(sweep_inputs):
    """The header and first 60 rows of the sweep's forager event file."""
    lines = sweep_inputs["intervals"][1].read_text().splitlines()
    cut = lines.index("time,observation,action") + 1
    return lines[:cut], lines[cut : cut + 60]


class TestIntervalsBinBound:
    @pytest.mark.parametrize("gap, width, bins", [(1e300, "1", "1e+300"), (1e9, "1", "1e+09"),
                                                  (0.0, "1e-07", "5e+06")])
    def test_explicit_width_over_the_bin_bound_exits_4(self, tmp_path, capsys, intervals_inputs, gap, width, bins):
        # 16 event rows, the last pushed out by the gap.
        header, rows = intervals_inputs
        cells = [row.split(",") for row in rows[:16]]
        cells[-1][0] = repr(float(cells[-1][0]) + gap)
        events = tmp_path / "events.csv"
        events.write_text("\n".join(header + [",".join(c) for c in cells]) + "\n")
        capsys.readouterr()
        rc = run(["intervals", "--out", tmp_path / "refused", "--events", events, "--bin-width", width])
        assert rc == EXIT_DOMAIN
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: bin_width {float(width)!r} needs {bins} histogram bins, more than 1000000"]
        assert not (tmp_path / "refused").exists()
        # The default width, a quarter of the mean interval, is never refused.
        assert run(["intervals", "--out", tmp_path / "default", "--events", events]) == 0
        histogram = (tmp_path / "default" / "intervals.txt").read_text().split("histogram:\n")[1].splitlines()
        assert len(histogram) <= 4 * 15 + 1


class TestIntervalsFuzz:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.data())
    def test_mutated_events_end_in_a_documented_exit(self, intervals_inputs, data):
        header, rows = intervals_inputs
        text = mutated_event_text(data.draw, header, rows, FORAGER_CELL_VALUES)
        flags = []
        for flag, values in (("--observation", FORAGER_CELL_VALUES[1][:-1]), ("--action", FORAGER_CELL_VALUES[2][:-1]),
                             ("--bin-width", ["0", "nan", "inf", "-1", "0.5", "1e-7"])):
            if data.draw(RARELY):
                flags += [flag, data.draw(st.sampled_from(values))]
        with tempfile.TemporaryDirectory() as tmp:
            events, out = Path(tmp) / "events.csv", Path(tmp) / "out"
            events.write_text(text)
            rc, _ = fuzz_run(["intervals", "--events", events, "--seed", 0, *flags], out)
            if rc == 0:
                report = dict(line.split(": ", 1) for line in (out / "intervals.txt").read_text().splitlines()[1:9])
                assert int(report["n_intervals"]) >= 10
                assert all(np.isfinite(float(report[key])) for key in ("mean_interval", "exp_rate", "ks_pvalue"))


def mutated_points_text(draw) -> str:
    """A 12-point file on a 4x3 lattice with some cells replaced, rows
    dropped, repeated or widened, and the header cut."""
    rows = [[repr(float(i % 4)), repr(float(i % 3) + 0.5)] for i in range(12)]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 1))
        rows[i][j] = draw(st.sampled_from(CELL_VALUES[0]))
    rows = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        del rows[draw(st.integers(0, len(rows) - 1))]
    if rows and draw(RARELY):
        rows[draw(st.integers(0, len(rows) - 1))] += ",0.0"
    if draw(RARELY):
        rows = rows[:1] * len(rows)
    header = [] if draw(RARELY) else ["x,y"]
    return "\n".join(header + rows) + "\n"


class TestQuantizeFuzz:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.data())
    def test_mutated_points_end_in_a_documented_exit(self, data):
        text = mutated_points_text(data.draw)
        k = data.draw(st.sampled_from(["1", "3", "12", "0"]))
        with tempfile.TemporaryDirectory() as tmp:
            points, out = Path(tmp) / "points.csv", Path(tmp) / "out"
            points.write_text(text)
            rc, _ = fuzz_run(["quantize", "--points", points, "--k-locations", k, "--seed", 0], out)
            if rc == 0:
                labels = (out / "labels.csv").read_text().splitlines()[2:]
                assert len(labels) == len([line for line in text.splitlines() if line and line != "x,y"])
                inertia = (out / "centroids.csv").read_text().splitlines()[1]
                assert np.isfinite(float(inertia.split(": ")[1]))


def _is_number_row(line: str) -> bool:
    try:
        return bool([float(x) for x in line.split()])
    except ValueError:
        return False


def mutated_model_text(draw, lines) -> str:
    """A saved model with some matrix cells replaced, one generator block
    scaled, omega or the action alphabet replaced, and lines dropped."""
    lines = list(lines)
    rows = [i for i, line in enumerate(lines) if _is_number_row(line)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.sampled_from(rows))
        cells = lines[i].split()
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CELL_VALUES[0]))
        lines[i] = " ".join(cells)
    if draw(RARELY):
        # Scaling a whole generator keeps its rows summing to zero.
        starts = [i for i, line in enumerate(lines) if line.startswith("generator ")]
        start, factor = draw(st.sampled_from(starts)), draw(st.sampled_from([0.0, 1e-300, 1e6, 1e300]))
        end = next(i for i in range(start + 1, len(lines) + 1) if i == len(lines) or not _is_number_row(lines[i]))
        for i in range(start + 1, end):
            lines[i] = " ".join(repr(float(x) * factor) for x in lines[i].split())
    if draw(RARELY):
        lines[lines.index(next(line for line in lines if line.startswith("omega:")))] = (
            "omega: " + draw(st.sampled_from(CELL_VALUES[0])))
    if draw(RARELY):
        lines[2] = draw(st.sampled_from(["actions: stay press-1 press-2", "actions: a b c d e", "actions:"]))
    for _ in range(draw(st.integers(0, 2)) if draw(RARELY) else 0):
        del lines[draw(st.integers(0, len(lines) - 1))]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def operators_inputs(sweep_inputs):
    """The lines of the sweep's fitted forager model (3 states, 4 actions)."""
    return sweep_inputs["operators"][1].read_text().splitlines()


class TestOperatorsFuzz:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.data())
    def test_mutated_model_ends_in_a_documented_exit(self, operators_inputs, data):
        text = mutated_model_text(data.draw, operators_inputs)
        flags = []
        for flag, values in (("--operator-threshold", ["0", "0.05", "0.5", "0.99", "1", "-0.1", "nan", "inf"]),
                             ("--persistence-frac", ["0", "0.7", "1", "1.5", "-0.1", "nan", "inf"])):
            if data.draw(st.booleans()):
                flags += [flag, data.draw(st.sampled_from(values))]
        with tempfile.TemporaryDirectory() as tmp:
            model, out = Path(tmp) / "model.smjp", Path(tmp) / "out"
            model.write_text(text)
            rc, _ = fuzz_run(["operators", "--model", model, "--seed", 0, *flags], out)
            if rc == 0:
                report = (out / "operators.txt").read_text().splitlines()
                matrices = [[float(x) for x in line.split()] for line in report if _is_number_row(line)]
                assert matrices and np.isfinite(matrices).all() and min(map(min, matrices)) >= 0
                assert np.allclose([sum(row) for row in matrices], 1.0)
                assert all(np.isfinite(float(line.split(": ")[1])) for line in report
                           if line.startswith("modularity: "))
