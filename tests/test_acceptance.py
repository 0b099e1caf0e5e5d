"""Contract-level acceptance checks.

Each test prints one pass/fail line for its criterion; run with ``-v -s`` to
see them all.  Three checks are known to fail and are kept as stated rather
than loosened (see README): the two closed-form toy escape bounds are
first-order estimates that the exact dynamics undershoot by a few iterations,
and the growth recurrence approaches its limit at rate O(1/K), which puts the
1e-6 tolerance out of reach at K = 10^4.
"""

import math
import os
import time

import numpy as np
import pytest

from saddlescape import (
    AttouchSchedule,
    ConstantSchedule,
    EqualStart,
    NesterovSchedule,
    PerturbedStart,
    apply_iteration_map,
    block_eigenvalues,
    divergence_table,
    escape_time,
    invert_iteration_map,
    iterate,
    product_reconstruction,
    random_problem,
    rate_limit,
    rate_sequence,
    rng_from,
    run_accelerated,
    run_gradient_descent,
    run_heavy_ball,
    toy_problem,
    verify_tk_properties,
)


def check(criterion: str, condition: bool, detail: str = "") -> None:
    status = "PASS" if condition else "FAIL"
    print(f"[{criterion}] {status} {detail}".rstrip())
    assert condition, f"{criterion} failed {detail}".rstrip()


def test_criterion_1_gradient_descent_closed_form():
    started = time.monotonic()
    worst = 0.0
    for seed in range(50):
        prob = random_problem(20, 3, 0.1, seed=seed)
        x0 = rng_from(seed, 9).standard_normal(20)
        alpha = 0.9 / prob.lipschitz
        trace = run_gradient_descent(prob, alpha, x0, 100)
        ks = np.arange(101)[:, None]
        expected = (1.0 - alpha * prob.eigenvalues) ** ks * x0
        worst = max(worst, float(np.max(np.abs(trace.points - expected) / np.abs(expected))))
    elapsed = time.monotonic() - started
    check(
        "criterion 1: closed-form descent equivalence",
        worst <= 1e-12 and elapsed < 1.0,
        f"(worst rel err {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_2_product_formula_equivalence():
    worst = 0.0
    schedules = [NesterovSchedule(), AttouchSchedule(2.0), ConstantSchedule(0.5, 0.5)]
    for schedule in schedules:
        for lam in (-1e-3, -1e-2, -0.1):
            for alpha in (0.1, 0.99):
                prob_ev = np.array([1.0, lam])
                from saddlescape import QuadraticProblem

                prob = QuadraticProblem(prob_ev)
                x0 = np.array([0.7, 0.2])
                trace = run_accelerated(prob, alpha, schedule, x0, EqualStart(), 200)
                seq = rate_sequence(lam, alpha, schedule, 200)
                for k in range(201):
                    expected = product_reconstruction(x0[1], seq, k)
                    worst = max(worst, abs(trace.points[k, 1] - expected) / abs(expected))
    check(
        "criterion 2: product-formula equivalence",
        worst <= 1e-10,
        f"(worst rel err {worst:.2e})",
    )


def test_criterion_3_spectral_trichotomy():
    rng = rng_from(2024)
    identity_worst = 0.0
    ok = True
    for trial in range(1000):
        lambda1 = rng.uniform(0.1, 2.0)
        alpha = rng.uniform(0.05, 0.95) * 4.0 / lambda1
        lower = max(alpha * lambda1 / 2.0 - 1.0, 0.0)
        beta = lower + (1.0 - lower) * rng.uniform(0.05, 0.95)
        kind = trial % 3
        lam = (
            rng.uniform(1e-6, lambda1)
            if kind == 0
            else (0.0 if kind == 1 else -rng.uniform(1e-6, 2.0))
        )
        pair = block_eigenvalues(lam, alpha, beta)
        identity_worst = max(
            identity_worst,
            abs(pair.mu_hi + pair.mu_lo - (1.0 + beta - alpha * lam)),
            abs(pair.mu_hi * pair.mu_lo - beta),
        )
        if lam > 0:
            ok = ok and abs(pair.mu_hi) < 1.0 and abs(pair.mu_lo) < 1.0
        elif lam == 0:
            ok = ok and abs(pair.mu_hi - 1.0) <= 1e-12 and abs(pair.mu_lo - beta) <= 1e-12
        else:
            ok = ok and pair.is_real and pair.mu_hi.real > 1.0 and 0.0 < pair.mu_lo.real < 1.0
    check(
        "criterion 3: spectral trichotomy and root identities",
        ok and identity_worst <= 1e-12,
        f"(worst identity residual {identity_worst:.2e})",
    )


def test_criterion_4a_descent_escape_within_bound():
    eps, delta, alpha = 0.01, 0.02, 1.0
    prob = toy_problem(delta)
    trace = run_gradient_descent(prob, alpha, np.array([1.0, eps]), 400)
    escaped = escape_time(trace, prob.negative_projector(), 1.0)
    bound = math.ceil(abs(math.log(eps)) / (delta * alpha))
    check(
        "criterion 4a: descent escape within closed-form bound",
        escaped is not None and escaped <= bound,
        f"(escape {escaped}, bound {bound})",
    )


def test_criterion_4b_heavy_ball_escape_within_bound():
    eps, delta = 0.01, 0.02
    prob = toy_problem(delta)
    trace = run_heavy_ball(prob, 3.0, 1.0 - 3.0 * delta, np.array([1.0, eps]), EqualStart(), 100)
    escaped = escape_time(trace, prob.negative_projector(), 1.0)
    bound = math.ceil(math.log(2.0 / eps) / math.sqrt(3.0 * delta) - 1.0)
    check(
        "criterion 4b: heavy-ball escape within closed-form bound",
        escaped is not None and escaped <= bound,
        f"(escape {escaped}, bound {bound})",
    )


def test_criterion_4c_heavy_ball_growth_lower_bound():
    started = time.monotonic()
    eps, delta = 0.01, 0.02
    prob = toy_problem(delta)
    trace = run_heavy_ball(prob, 3.0, 1.0 - 3.0 * delta, np.array([1.0, eps]), EqualStart(), 100)
    escaped = escape_time(trace, prob.negative_projector(), 1.0)
    s = math.sqrt(3.0 * delta)
    ks = np.arange(escaped + 1)
    lower = 0.5 * eps * (1.0 + s) ** (ks + 1)
    holds = bool(np.all(trace.points[: escaped + 1, 1] >= lower * (1.0 - 1e-12)))
    elapsed = time.monotonic() - started
    check(
        "criterion 4c: growth lower bound up to escape",
        holds and elapsed < 1.0,
        f"(checked {escaped + 1} steps, {elapsed:.2f}s)",
    )


def test_criterion_5a_rate_sequence_reaches_limit():
    worst = 0.0
    for a in (1e-4, 1e-2, 1.0):
        for schedule in (NesterovSchedule(), AttouchSchedule(2.0)):
            seq = rate_sequence(-a, 1.0, schedule, 10**4)
            limit = rate_limit(-a, 1.0, 1.0, 1.0)
            worst = max(worst, abs(seq.final - limit.value))
    check(
        "criterion 5a: rate sequence within 1e-6 of limit at K=10^4",
        worst <= 1e-6,
        f"(worst gap {worst:.2e})",
    )


def test_criterion_5b_rate_limit_special_cases():
    worst = 0.0
    for a in (1e-4, 1e-2, 1.0):
        accelerated = rate_limit(-a, 1.0, 1.0, 1.0).value
        worst = max(worst, abs(accelerated - (a + math.sqrt(a) * math.sqrt(1.0 + a))))
        heavy = rate_limit(-a, 1.0, 1.0 - a, 0.0).value
        worst = max(worst, abs(heavy - math.sqrt(a)))
        descent = rate_limit(-a, 1.0, 0.0, 0.0).value
        worst = max(worst, abs(descent - a))
    check(
        "criterion 5b: rate limit closed forms",
        worst <= 1e-12,
        f"(worst residual {worst:.2e})",
    )


def test_criterion_6_divergence_table_intervals():
    started = time.monotonic()
    result = divergence_table(ns=[100], deltas=[1e-2, 1e-3], trials=100, seed=0)
    elapsed = time.monotonic() - started
    sd2 = result.row(100, 1e-2, "steepest_descent").avg_iters
    ag2 = result.row(100, 1e-2, "accelerated_gradient").avg_iters
    sd3 = result.row(100, 1e-3, "steepest_descent").avg_iters
    ag3 = result.row(100, 1e-3, "accelerated_gradient").avg_iters
    per_trial = all(rec.accelerated_gradient < rec.steepest_descent for rec in result.trials)
    predictor_below = all(
        result.row(100, d, "rate_predictor").avg_iters
        <= result.row(100, d, "accelerated_gradient").avg_iters
        for d in (1e-2, 1e-3)
    )
    conditions = [
        300.0 <= sd2 <= 460.0,
        55.0 <= ag2 <= 90.0,
        2700.0 <= sd3 <= 5000.0,
        190.0 <= ag3 <= 310.0,
        per_trial,
        predictor_below,
        7.0 <= sd3 / sd2 <= 13.0,
        2.5 <= ag3 / ag2 <= 5.0,
        elapsed < 300.0,
    ]
    check(
        "criterion 6: divergence table at desk scale",
        all(conditions),
        f"(SD {sd2:.0f}/{sd3:.0f}, AG {ag2:.0f}/{ag3:.0f}, "
        f"ratios {sd3 / sd2:.1f}/{ag3 / ag2:.1f}, {elapsed:.1f}s)",
    )


@pytest.mark.skipif(
    not os.environ.get("SADDLESCAPE_FULL_TABLE"),
    reason="optional n=1000 cells; set SADDLESCAPE_FULL_TABLE=1 to run",
)
def test_criterion_6_optional_large_dimension_cells():
    result = divergence_table(ns=[1000], deltas=[1e-2, 1e-3], trials=100, seed=0)
    sd2 = result.row(1000, 1e-2, "steepest_descent").avg_iters
    ag2 = result.row(1000, 1e-2, "accelerated_gradient").avg_iters
    sd3 = result.row(1000, 1e-3, "steepest_descent").avg_iters
    ag3 = result.row(1000, 1e-3, "accelerated_gradient").avg_iters
    conditions = [
        582.0 * 0.7 <= sd2 <= 582.0 * 1.3,
        99.0 * 0.7 <= ag2 <= 99.0 * 1.3,
        5775.0 * 0.7 <= sd3 <= 5775.0 * 1.3,
        332.0 * 0.7 <= ag3 <= 332.0 * 1.3,
    ]
    check(
        "criterion 6 (optional): n=1000 cells",
        all(conditions),
        f"(SD {sd2:.0f}/{sd3:.0f}, AG {ag2:.0f}/{ag3:.0f})",
    )


def test_criterion_7_t_sequence_suite():
    report = verify_tk_properties(10**5)
    conditions = [
        report.identity_max_err <= 1e-9,
        report.bound_ok,
        report.ratio_monotone,
        report.ratio_gap <= 1e-12,
        report.final_ratio > 0.9999,
    ]
    check(
        "criterion 7: t-sequence identities and bounds at K=10^5",
        all(conditions),
        f"(identity {report.identity_max_err:.2e}, final ratio {report.final_ratio:.6f})",
    )


def test_criterion_8_saddle_avoidance_monte_carlo():
    prob = toy_problem(0.02)
    alpha, beta = 0.75, 0.985
    starts, predecessors = [], []
    for trial in range(1000):
        rng = rng_from(123, trial)
        g = rng.standard_normal(2)
        x0 = g / np.linalg.norm(g)
        starts.append(x0)
        predecessors.append(PerturbedStart(1e-6, seed=trial).resolve(x0))
    # One batch of 1000 heavy-ball runs; row i is run_heavy_ball from starts[i]
    # with the PerturbedStart(1e-6, seed=i) predecessor.
    runs = iterate(
        prob.eigenvalues, alpha, ConstantSchedule(beta, 0.0),
        np.array(starts), np.array(predecessors), 10**4,
    )
    converged = int(np.count_nonzero(~runs.diverged & (np.linalg.norm(runs.final, axis=1) <= 1e-8)))
    axis = run_heavy_ball(prob, alpha, beta, np.array([0.7, 0.0]), EqualStart(), 10**4)
    axis_converged = np.linalg.norm(axis.final) <= 1e-8 and np.all(axis.points[:, 1] == 0.0)
    check(
        "criterion 8: saddle avoidance Monte Carlo",
        converged == 0 and axis_converged,
        f"(0 of 1000 perturbed runs converged; axis start norm {np.linalg.norm(axis.final):.1e})",
    )


def test_criterion_9_pair_map_roundtrip_and_fixed_point():
    prob = random_problem(8, 2, 0.1, seed=99).rotated(basis_seed=17)
    alpha, beta = 0.5, 0.8
    rng = rng_from(99, 1)
    worst = 0.0
    for _ in range(100):
        z1 = rng.standard_normal(8)
        z2 = rng.standard_normal(8)
        y1, y2 = apply_iteration_map(prob, alpha, beta, z1, z2)
        w1, w2 = invert_iteration_map(prob, alpha, beta, y1, y2)
        scale = max(np.linalg.norm(z1), np.linalg.norm(z2))
        worst = max(worst, np.linalg.norm(w1 - z1) / scale, np.linalg.norm(w2 - z2) / scale)
    f1, f2 = apply_iteration_map(prob, alpha, beta, np.zeros(8), np.zeros(8))
    fixed = np.array_equal(f1, np.zeros(8)) and np.array_equal(f2, np.zeros(8))
    check(
        "criterion 9: pair-map roundtrip and exact fixed point",
        worst <= 1e-10 and fixed,
        f"(worst roundtrip rel err {worst:.2e})",
    )
