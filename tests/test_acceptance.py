"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Statistical criteria use fixed seeds, so outcomes are reproducible; runtime
budgets are asserted against wall-clock time.
"""

import time

import numpy as np
import pytest

from densigraph import (ModelParams, binomial_mixture_shat,
                        coalescence_probability, estimate_all,
                        exact_stationary, forward_map_values, invert_triple,
                        limit_inversion, limits, perfect_sample,
                        sample_environment, simulate,
                        transition_probabilities, zero_state)
from densigraph.experiment import parse_config_text, rows_to_csv, run_experiment
from densigraph.forward import default_burnin
from densigraph.model import Trajectory
from densigraph.rng import Stream, derive_key

from _reference import (COALESCENCE_Z, binomial_sigma,
                        block_variance_reference, coalescence_probability_mc,
                        column_indices, empirical_distribution,
                        inverse_reference, mean_reference, sample_admissible,
                        spatial_variance_reference, temporal_variance_reference,
                        tv_distance)


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num:2d} [{status}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# The shared N=3 instance for criteria 3 and 4.
N3_PARAMS = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=2 / 3, n=3)
N3_ENV_SEED = 7

# The shared reduced-scale batch for criteria 6 and 11.
BATCH_CONFIG = """
n = 100
t_grid = 250,500,1000,2000
n_simu = 50
delta = 1
sampler = forward
limits = false
seed = 2026
"""


@pytest.fixture(scope="module")
def n3_instance():
    return sample_environment(N3_PARAMS, N3_ENV_SEED), N3_PARAMS


@pytest.fixture(scope="module")
def batch_run():
    config = parse_config_text(BATCH_CONFIG)
    start = time.perf_counter()
    rows = run_experiment(config)
    elapsed = time.perf_counter() - start
    return config, rows, rows_to_csv(rows), elapsed


def test_criterion_1_inversion_round_trip():
    start = time.perf_counter()
    worst = 0.0
    for r_plus in (0.5, 0.6, 0.75):
        stream = Stream(derive_key(101, "round-trip", int(r_plus * 100)))
        for _ in range(1000):
            (mu, lam, p), (m, v, w) = sample_admissible(stream, r_plus)
            res = invert_triple(m, v, w, r_plus)
            worst = max(worst, abs(res.mu - mu), abs(res.lam - lam),
                        abs(res.p - p))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    report(1, "inversion round trip", ok,
           f"sup error {worst:.2e} over 3x1000 triples in {elapsed:.2f}s")


def test_criterion_2_two_branch_membership():
    start = time.perf_counter()
    worst = 0.0
    for r_plus in (0.3, 0.4):
        stream = Stream(derive_key(102, "membership", int(r_plus * 100)))
        for _ in range(1000):
            (mu, lam, p), (m, v, w) = sample_admissible(stream, r_plus)
            # The "minus" root is invert_triple's, the "plus" root the reference's.
            res = invert_triple(m, v, w, r_plus)
            candidates = ((res.mu, res.lam, res.p),
                          inverse_reference(m, v, w, r_plus, 1))
            best = min(max(abs(c[0] - mu), abs(c[1] - lam), abs(c[2] - p))
                       for c in candidates)
            worst = max(worst, best)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    report(2, "two-branch membership", ok,
           f"worst min-branch error {worst:.2e} over 2x1000 triples in {elapsed:.2f}s")


def test_criterion_3_perfect_sampler_exactness(n3_instance):
    env, params = n3_instance
    start = time.perf_counter()
    exact = exact_stationary(env, params)
    m = 200_000
    idx = np.empty(m, dtype=np.int64)
    for k in range(m):
        idx[k] = column_indices(perfect_sample(env, params, 1, seed=k).x)[0]
    tv = tv_distance(empirical_distribution(idx, 3), exact)
    elapsed = time.perf_counter() - start
    ok = tv < 0.01 and elapsed < 30.0
    report(3, "perfect-sampler exactness", ok,
           f"TV {tv:.4f} over {m} single-column samples in {elapsed:.1f}s")


def test_criterion_4_markov_kernel_fidelity(n3_instance):
    env, params = n3_instance
    start = time.perf_counter()
    traj = simulate(env, params, zero_state(3), 100_000,
                    burnin=default_burnin(params.lam), seed=405)
    states = column_indices(traj.x[:, :-1])
    following = traj.x[:, 1:]
    worst_z = 0.0
    pairs = 0
    for s in range(8):
        mask = states == s
        visits = int(mask.sum())
        if visits < 500:
            continue
        x_prev = np.array([(s >> i) & 1 for i in range(3)])
        target = transition_probabilities(env, params, x_prev)
        freqs = following[:, mask].mean(axis=1)
        for i in range(3):
            z_score = abs(freqs[i] - target[i]) / binomial_sigma(target[i], visits)
            worst_z = max(worst_z, z_score)
            pairs += 1
    elapsed = time.perf_counter() - start
    ok = pairs >= 12 and worst_z <= 3.0 and elapsed < 10.0
    report(4, "Markov-kernel fidelity", ok,
           f"worst z-score {worst_z:.2f} over {pairs} (state, site) pairs "
           f"in {elapsed:.1f}s")


def test_criterion_5_coalescence_bound():
    params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=10)
    start = time.perf_counter()
    details = []
    ok = True
    trials = 100_000
    for lag in (0, 1, 2, 4):
        est, se = coalescence_probability_mc(
            params, (0, 0), (1, -lag), trials=trials, seed=505 + lag)
        bound = 0.5 ** max(lag, 1) / ((1 - 0.25) * 10)
        exact = coalescence_probability(params, (0, 0), (1, -lag))
        sd = (exact * (1 - exact) / trials) ** 0.5
        ok = (ok and est <= bound + 3 * se and exact <= bound
              and abs(est - exact) <= COALESCENCE_Z * sd)
        details.append(f"lag {lag}: {est:.4f} ~ {exact:.4f} <= {bound:.4f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(5, "coalescence bound", ok, "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_6_estimator_consistency(batch_run):
    config, rows, _, elapsed = batch_run
    truth = config.params_for(None)
    m_true, _, _ = forward_map_values(truth.mu, truth.lam, truth.p, truth.r_plus)
    med = {}
    for t_len in config.t_grid:
        sel = [r for r in rows if r.t == t_len]
        med[t_len] = {
            "m": float(np.median([abs(r.est.m_hat - m_true) for r in sel])),
            "p": float(np.median([abs(r.inv.p - truth.p) for r in sel])),
        }
    m_curve = [med[t]["m"] for t in config.t_grid]
    inversions = sum(1 for a, b in zip(m_curve, m_curve[1:]) if b > a)
    ok = (med[2000]["m"] < 0.01 and med[2000]["p"] < 0.25
          and med[2000]["p"] < med[250]["p"] and inversions <= 1
          and elapsed < 300.0)
    report(6, "estimator consistency", ok,
           f"median |m_hat-m|(T=2000) = {med[2000]['m']:.4f}, "
           f"median |p_hat-p|: {med[250]['p']:.3f} (T=250) -> "
           f"{med[2000]['p']:.3f} (T=2000), m-curve inversions {inversions}, "
           f"batch in {elapsed:.1f}s")


def test_criterion_7_limit_estimator_accuracy():
    params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=500)
    start = time.perf_counter()
    errs = []
    for s in range(50):
        env = sample_environment(params, seed=700 + s)
        errs.append(abs(limit_inversion(limits(env, params), params.r_plus).p
                        - params.p))
    median = float(np.median(errs))
    elapsed = time.perf_counter() - start
    ok = median < 0.05 and elapsed < 120.0
    report(7, "limit-estimator accuracy", ok,
           f"median |p_inf_hat - p| = {median:.4f} over 50 environments "
           f"in {elapsed:.1f}s")


def test_criterion_8_quenched_limit_rate():
    start = time.perf_counter()
    m_true, _, _ = forward_map_values(0.25, 0.5, 0.5, 0.5)
    medians = []
    for n in (100, 200, 400):
        params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=n)
        errs = [abs(limits(sample_environment(params, seed=800 + s),
                           params).m_inf - m_true)
                for s in range(30)]
        medians.append(float(np.median(errs)))
    ratios = [medians[k + 1] / medians[k] for k in range(2)]
    elapsed = time.perf_counter() - start
    ok = all(0.3 <= r <= 0.8 for r in ratios) and elapsed < 120.0
    report(8, "quenched-limit rate", ok,
           f"median errors {[f'{m:.5f}' for m in medians]}, "
           f"ratios {[f'{r:.3f}' for r in ratios]} in {elapsed:.1f}s")


def test_criterion_9_estimator_formula_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        t_len = int(rng.integers(8, 51))
        traj = Trajectory((rng.random((n, t_len)) < rng.uniform(0.1, 0.9))
                          .astype(np.uint8))
        delta = int(rng.integers(1, t_len // 4 + 1))
        est = estimate_all(traj, delta)
        worst = max(
            worst,
            abs(est.m_hat - mean_reference(traj.x)),
            abs(est.v_hat - spatial_variance_reference(traj.x)),
            abs(est.w_delta - block_variance_reference(traj.x, delta)),
            abs(est.w_2delta - block_variance_reference(traj.x, 2 * delta)),
            abs(est.w_hat - temporal_variance_reference(traj.x, delta)),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report(9, "estimator formula exactness", ok,
           f"worst deviation {worst:.2e} over 100 trajectories in {elapsed:.2f}s")


def test_criterion_10_binomial_mixture_unbiasedness():
    start = time.perf_counter()
    n, t_len, p, kap = 50, 100, 0.5, 0.2
    replicas = 100_000
    rng = np.random.default_rng(1010)
    theta = rng.binomial(n, p, size=(replicas, n))
    b = rng.binomial(t_len, 0.5 + (kap / p) * theta / n)
    shat = np.array([binomial_mixture_shat(b[r], t_len, kap)
                     for r in range(replicas)])
    sigma = shat.std(ddof=1) / replicas**0.5
    deviation = abs(shat.mean() - 1 / p)
    elapsed = time.perf_counter() - start
    ok = deviation <= 3 * sigma and elapsed < 60.0
    report(10, "binomial-mixture unbiasedness", ok,
           f"mean {shat.mean():.4f} vs 2, |dev| = {deviation:.4f} <= 3σ = "
           f"{3 * sigma:.4f}, in {elapsed:.1f}s")


def test_criterion_11_batch_determinism(batch_run):
    config, _, csv_first, _ = batch_run
    csv_second = rows_to_csv(run_experiment(config))
    ok = csv_first == csv_second
    report(11, "batch determinism", ok,
           f"re-run CSV byte-identical: {ok} ({len(csv_first)} bytes)")
