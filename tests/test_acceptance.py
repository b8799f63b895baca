"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with ``pytest -s`` to see them).
Tolerances are pinned here and nowhere else."""

import hashlib
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sp_stats

from helpers import (
    default_omega,
    enumerate_paths,
    gillespie_sample,
    grid_forward_backward,
    matrix_exponential,
    random_grid,
    random_model,
    random_sequence,
    scaled_xi,
)
from test_analysis import block_joint, brute_force_loss, planted_operator
from test_core import random_generator

from smjp.analysis import (
    cocluster,
    event_state_posterior,
    extract_subgraphs,
    interval_stats,
    state_correspondence,
)
from smjp.cli import main as cli_main
from smjp.core import derive_rng, validate_generator
from smjp.ctmc import build_time_grid, uniformize
from smjp.events import split_chronological
from smjp.foraging import (
    ToyConfig,
    WorldConfig,
    build_belief_mdp,
    generate_toy,
    simulate_agent,
    value_iteration,
)
from smjp.switching import (
    FitConfig,
    fit_best,
    held_out_loglik,
    inner_em,
    select_num_states,
    update_generator,
)


def report(num: int, name: str, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: PASS ({detail})")


def test_criterion_01_likelihood_oracle():
    rng = derive_rng(1001)
    start = time.time()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        o = int(rng.integers(1, 4))
        t = int(rng.integers(1, 7))
        model = random_model(rng, n, k, o)
        grid = random_grid(rng, t, k, o)
        res = grid_forward_backward(model, grid)
        ll_o, gamma_o, xi_o = enumerate_paths(model, grid)
        worst = max(worst, abs(res.log_likelihood - ll_o), np.abs(res.gamma - gamma_o).max())
        if t > 1:
            worst = max(worst, np.abs(scaled_xi(model, grid) - xi_o).max())
        assert worst < 1e-9
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(1, "likelihood oracle", f"200 models, worst error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_uniformization_identity():
    rng = derive_rng(1002)
    start = time.time()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        gen = random_generator(rng, n)
        omega = default_omega(gen)
        b = uniformize(gen, omega).probs
        for scale in (0.1, 1.0, 10.0):
            t = scale / gen.max_exit_rate
            mu = omega * t
            nmax = int(sp_stats.poisson.ppf(1 - 1e-12, mu)) + 1
            w = sp_stats.poisson.pmf(np.arange(nmax + 1), mu)
            acc = np.zeros((n, n))
            power = np.eye(n)
            for j in range(nmax + 1):
                acc += w[j] * power
                power = power @ b
            err = np.abs(acc - matrix_exponential(gen, t).probs).max()
            worst = max(worst, err)
            assert err < 1e-6
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(2, "uniformization identity", f"50 generators x 3 horizons, worst error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_gillespie_holding_times():
    start = time.time()
    gen = validate_generator(
        [[-1.2, 0.8, 0.4], [0.5, -1.5, 1.0], [0.9, 0.6, -1.5]]
    )
    traj = gillespie_sample(gen, 0, 90_000.0, seed=1003)
    holds = traj.holding_times()
    states = traj.states[:-1]
    pvals = []
    for s in range(3):
        hs = holds[states == s]
        assert hs.size >= 10_000
        hs = hs[:10_000]
        ks = sp_stats.kstest(hs, "expon", args=(0.0, 1.0 / gen.exit_rates[s]))
        pvals.append(ks.pvalue)
        assert ks.pvalue > 0.01
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(3, "holding-time law", f"KS p-values {['%.3f' % p for p in pvals]}, {elapsed:.1f}s")


def test_criterion_04_em_monotonicity():
    rng = derive_rng(1004)
    cfg = FitConfig(inner_iterations=6)
    worst_drop = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 3))
        o = int(rng.integers(2, 4))
        model = random_model(rng, n, k, o)
        # 75 events a unit mean gap apart at omega = 1: about 150 points.
        grids = [build_time_grid(random_sequence(rng, model, 75), 1.0, rng)]
        _, _, trace, _ = inner_em(model, grids, cfg)
        drop = -min(np.diff(np.asarray(trace)).min(), 0.0)
        worst_drop = max(worst_drop, drop)
        assert drop <= 1e-9
    report(4, "EM monotonicity", f"20 fixed-grid instances, worst decrease {worst_drop:.2e}")


def test_criterion_05_generator_update_round_trip():
    rng = derive_rng(1005)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 6))
        gen = random_generator(rng, n)
        omega = default_omega(gen)
        back = update_generator(uniformize(gen, omega), omega)
        worst = max(worst, np.abs(back.rates - gen.rates).max())
        assert worst < 1e-12
        off = back.rates[~np.eye(n, dtype=bool)]
        assert off.min() >= 0.0
        assert np.abs(back.rates.sum(axis=1)).max() < 1e-12
    # Structural zeros survive the round trip exactly.
    for _ in range(10):
        n = 4
        gen = random_generator(rng, n)
        rates = gen.rates.copy()
        mask = np.zeros((n, n), dtype=bool)
        mask[0, 2] = mask[3, 1] = True
        rates[mask] = 0.0
        rates[np.diag_indices(n)] = 0.0
        rates[np.diag_indices(n)] = -rates.sum(axis=1)
        gen = validate_generator(rates)
        omega = default_omega(gen)
        back = update_generator(uniformize(gen, omega), omega, structural_mask=mask)
        assert np.all(back.rates[mask] == 0.0)
        assert np.abs(back.rates - gen.rates).max() < 1e-12
    report(5, "generator update round trip", f"worst recovery error {worst:.2e}")


def test_criterion_06_toy_recovery_and_state_count():
    start = time.time()
    toy = generate_toy(ToyConfig(expected_length=5000), seed=101)
    cfg_fit = FitConfig(seed=17, inner_iterations=6, outer_cap=12, restarts=2, eval_grids=3)
    rep = fit_best([toy.sequence], 5, cfg_fit)
    _, holdout = split_chronological(toy.sequence, cfg_fit.holdout_fraction)
    true_ll = held_out_loglik(toy.model, [holdout], cfg_fit)
    # One-sided: the fit must score no worse than 2% below the generating
    # model. (It may score above it: the generating law takes one chain
    # step per event, outside the model family. Both scores are exact
    # event-level likelihoods, so the Jensen gap that a grid-averaged score
    # once added, about 10 nats here, no longer enters.)
    assert rep.heldout_ll >= true_ll - 0.02 * abs(true_ll)

    cfg_sel = FitConfig(seed=23, inner_iterations=5, outer_cap=8, restarts=2, eval_grids=2)
    selection = select_num_states([toy.sequence], range(2, 8), cfg_sel)
    assert selection.chosen_n <= 6
    elapsed = time.time() - start
    assert elapsed < 600.0
    report(
        6,
        "toy recovery",
        f"fitted {rep.heldout_ll:.1f} vs true {true_ll:.1f}, chosen N={selection.chosen_n}, {elapsed:.0f}s",
    )


def test_criterion_07_optimal_agent_pipeline():
    start = time.time()
    mdp = build_belief_mdp(WorldConfig(), 10, 0.05)
    vi = value_iteration(mdp, tol=1e-8)
    assert vi.residuals[-1] < 1e-8
    mdp = replace(mdp, values=vi.values, policy=vi.policy)
    seq, trace = simulate_agent(mdp, 6000.0, seed=42)

    press = interval_stats(seq, action="press-1")
    assert press.n_intervals >= 500
    assert press.ks_pvalue < 0.01

    cfg = FitConfig(seed=31, inner_iterations=5, outer_cap=8, restarts=2, eval_grids=2)
    rep = fit_best([seq], 6, cfg)
    gamma = event_state_posterior(rep.final_model, seq, cfg)
    corr = state_correspondence(gamma, trace.one_hot())
    cc = cocluster(corr.joint, 3, 4, seed=7, restarts=10)
    clustered = np.zeros((3, 4))
    for i in range(corr.joint.shape[0]):
        np.add.at(clustered[cc.row_assignment[i]], cc.col_assignment, corr.joint[i])
    row_mass = clustered.sum(axis=1, keepdims=True)
    conditional = clustered / np.where(row_mass > 0, row_mass, 1.0)
    baseline = clustered.sum(axis=0)
    ratio = float(np.max(conditional / np.where(baseline > 0, baseline, np.inf)))
    assert ratio >= 3.0
    elapsed = time.time() - start
    assert elapsed < 1200.0
    report(
        7,
        "optimal-agent pipeline",
        f"VI residual {vi.residuals[-1]:.1e}, KS p {press.ks_pvalue:.1e}, "
        f"co-cluster lift {ratio:.1f}x, {elapsed:.0f}s",
    )


def test_criterion_08_coclustering_exactness():
    # Every 2-block diagonal joint on 4 and 5 states must be recovered
    # with (numerically) zero information loss.
    for total in (4, 5):
        for first in range(1, total):
            sizes = (first, total - first)
            joint = block_joint(sizes, sizes)
            result = cocluster(joint, 2, 2, seed=1008)
            assert result.mutual_information_loss < 1e-10
            rows = result.row_assignment
            assert len(set(rows[: first].tolist())) == 1
            assert len(set(rows[first:].tolist())) == 1
            assert rows[0] != rows[-1]
    rng = derive_rng(1008)
    worst_gap = 0.0
    for _ in range(10):
        joint = rng.dirichlet(np.ones(16)).reshape(4, 4)
        result = cocluster(joint, 2, 2, seed=77, restarts=24)
        best = brute_force_loss(joint, 2, 2)
        worst_gap = max(worst_gap, abs(result.mutual_information_loss - best))
        assert result.mutual_information_loss <= best + 1e-10
    report(8, "co-clustering exactness", f"all block splits + 10 random joints, worst gap {worst_gap:.2e}")


def test_criterion_09_modularity_subgraphs():
    rng = derive_rng(1009)
    hits = 0
    for _ in range(100):
        w = planted_operator(rng)
        result = extract_subgraphs(w, threshold=0.05)
        labels = result.partition
        ok = (
            len(result.communities) == 2
            and len(set(labels[:5].tolist())) == 1
            and len(set(labels[5:].tolist())) == 1
        )
        hits += ok
    assert hits >= 95
    report(9, "modularity subgraphs", f"{hits}/100 planted partitions recovered")


def test_criterion_10_determinism_and_round_trip(tmp_path):
    def digests(path: Path) -> dict[str, str]:
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())
        }

    toy_flags = ["--seed", "5", "--toy-length", "300"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["simulate-toy", "--out", str(a)] + toy_flags) == 0
    assert cli_main(["simulate-toy", "--out", str(b)] + toy_flags) == 0
    assert digests(a) == digests(b)

    fit_flags = [
        "--events", str(a / "events.csv"), "--n-states", "3", "--seed", "9",
        "--restarts", "1", "--inner-iterations", "3", "--outer-cap", "3",
        "--eval-grids", "2",
    ]
    fa, fb = tmp_path / "fa", tmp_path / "fb"
    assert cli_main(["fit", "--out", str(fa)] + fit_flags) == 0
    assert cli_main(["fit", "--out", str(fb)] + fit_flags) == 0
    assert digests(fa) == digests(fb)

    report_lines = (fa / "fit_report.txt").read_text().splitlines()
    heldout = next(l.split(":", 1)[1].strip() for l in report_lines if l.startswith("heldout_loglik:"))
    ea, eb = tmp_path / "ea", tmp_path / "eb"
    eval_flags = [
        "--model", str(fa / "model.smjp"), "--events", str(a / "events.csv"),
        "--seed", "9", "--use-holdout",
    ]
    assert cli_main(["evaluate", "--out", str(ea)] + eval_flags) == 0
    assert cli_main(["evaluate", "--out", str(eb)] + eval_flags) == 0
    assert digests(ea) == digests(eb)
    got = next(
        l.split(":", 1)[1].strip()
        for l in (ea / "evaluation.txt").read_text().splitlines()
        if l.startswith("loglik:")
    )
    assert got == heldout  # fit -> save -> load -> evaluate, zero drift

    # Remaining commands, each run twice on small inputs.
    for name, args in {
        "simulate-foraging": ["simulate-foraging", "--seed", "3", "--horizon", "600", "--m-bins", "4"],
        "select-states": ["select-states", "--events", str(a / "events.csv"), "--range", "2:3",
                          "--seed", "2", "--restarts", "1", "--inner-iterations", "2",
                          "--outer-cap", "2", "--eval-grids", "2"],
        "operators": ["operators", "--model", str(a / "true_model.smjp"), "--seed", "0"],
        "intervals": ["intervals", "--events", str(a / "events.csv"), "--action", "a1", "--seed", "0"],
    }.items():
        d1, d2 = tmp_path / (name + "-1"), tmp_path / (name + "-2")
        assert cli_main(args + ["--out", str(d1)]) == 0
        assert cli_main(args + ["--out", str(d2)]) == 0
        assert digests(d1) == digests(d2), name

    # correspond needs a model fit on the same events as the truth file.
    sim = tmp_path / "simulate-foraging-1"
    fitf = tmp_path / "fit-foraging"
    assert cli_main([
        "fit", "--out", str(fitf), "--events", str(sim / "events.csv"), "--n-states", "3",
        "--seed", "2", "--restarts", "1", "--inner-iterations", "2", "--outer-cap", "2",
        "--eval-grids", "2",
    ]) == 0
    for name, args in {
        "correspond": ["correspond", "--model", str(fitf / "model.smjp"),
                       "--events", str(sim / "events.csv"), "--truth", str(sim / "truth_z.csv"),
                       "--seed", "1"],
    }.items():
        d1, d2 = tmp_path / (name + "-1"), tmp_path / (name + "-2")
        assert cli_main(args + ["--out", str(d1)]) == 0
        assert cli_main(args + ["--out", str(d2)]) == 0
        assert digests(d1) == digests(d2), name
    cc_args = ["cocluster", "--joint", str(tmp_path / "correspond-1" / "correspondence.csv"),
               "--rows", "2", "--cols", "2", "--seed", "5", "--cocluster-restarts", "4"]
    d1, d2 = tmp_path / "cc-1", tmp_path / "cc-2"
    assert cli_main(cc_args + ["--out", str(d1)]) == 0
    assert cli_main(cc_args + ["--out", str(d2)]) == 0
    assert digests(d1) == digests(d2)

    pts = tmp_path / "points.csv"
    pts.write_text("x,y\n" + "\n".join(f"{i * 0.25!r},{(i % 3) * 1.5!r}" for i in range(30)) + "\n")
    q_args = ["quantize", "--points", str(pts), "--k-locations", "3", "--seed", "4"]
    d1, d2 = tmp_path / "q-1", tmp_path / "q-2"
    assert cli_main(q_args + ["--out", str(d1)]) == 0
    assert cli_main(q_args + ["--out", str(d2)]) == 0
    assert digests(d1) == digests(d2)

    report(10, "determinism & round trip", f"all 10 commands byte-stable; heldout reproduced exactly: {got}")
