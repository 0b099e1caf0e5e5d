import numpy as np
import pytest

from saddlescape import (
    ConstantSchedule,
    EqualStart,
    NesterovSchedule,
    PerturbedStart,
    QuadraticProblem,
    escape_time,
    random_problem,
    rng_from,
    run_accelerated,
    run_gradient_descent,
    run_heavy_ball,
    toy_problem,
)
from saddlescape.schedules import params_array


def scalar_recurrence(lam, alpha, betas, gammas, x0, steps):
    """Independent per-coordinate form of the framework's update."""
    xs = [x0]
    prev, cur = x0, x0
    for k in range(1, steps + 1):
        nxt = ((1 + betas[k]) - (1 + gammas[k]) * alpha * lam) * cur - (
            betas[k] - gammas[k] * alpha * lam
        ) * prev
        xs.append(nxt)
        prev, cur = cur, nxt
    return np.array(xs)


class TestGradientDescent:
    def test_toy_second_coordinate_growth(self):
        eps = 0.01
        trace = run_gradient_descent(toy_problem(0.02), 0.75, np.array([1.0, eps]), 50)
        ks = np.arange(51)
        expected = (1.0 + 0.02 * 0.75) ** ks * eps
        assert np.max(np.abs(trace.coordinate(1) - expected) / expected) < 1e-13

    def test_critical_point_is_fixed(self):
        prob = random_problem(4, 1, 0.1, seed=6).rotated(basis_seed=2)
        trace = run_gradient_descent(prob, 0.1, np.zeros(4), 10)
        assert np.array_equal(trace.points, np.zeros((11, 4)))

    def test_matches_closed_form_on_diagonal(self):
        # alpha = 0.9/L keeps every factor 1 - alpha*lambda away from zero, so
        # no coordinate is annihilated to machine-epsilon residue
        for seed in range(10):
            prob = random_problem(20, 3, 0.1, seed=seed)
            x0 = rng_from(seed, 9).standard_normal(20)
            alpha = 0.9 / prob.lipschitz
            trace = run_gradient_descent(prob, alpha, x0, 100)
            ks = np.arange(101)[:, None]
            expected = (1.0 - alpha * prob.eigenvalues) ** ks * x0
            assert np.max(np.abs(trace.points - expected) / np.abs(expected)) <= 1e-12

    def test_divergence_flag_and_truncation(self):
        prob = QuadraticProblem(np.array([1.0]))
        trace = run_gradient_descent(prob, 4.0, np.array([1.0]), 10**4)
        assert trace.diverged
        assert trace.steps < 10**4
        assert np.abs(trace.final).max() > 1e100

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            run_gradient_descent(toy_problem(0.1), 0.0, np.zeros(2), 5)


class TestReductions:
    def test_constant_zero_equals_gradient_descent(self):
        prob = random_problem(6, 1, 0.1, seed=2)
        x0 = rng_from(2, 1).standard_normal(6)
        gd = run_gradient_descent(prob, 0.5, x0, 40)
        accel = run_accelerated(prob, 0.5, ConstantSchedule(0.0, 0.0), x0, EqualStart(), 40)
        assert np.array_equal(gd.points, accel.points)

    def test_constant_beta_equals_heavy_ball(self):
        prob = random_problem(6, 1, 0.1, seed=4)
        x0 = rng_from(4, 1).standard_normal(6)
        hb = run_heavy_ball(prob, 0.5, 0.8, x0, EqualStart(), 40)
        accel = run_accelerated(prob, 0.5, ConstantSchedule(0.8, 0.0), x0, EqualStart(), 40)
        assert np.array_equal(hb.points, accel.points)

    def test_beta_zero_heavy_ball_is_gradient_descent(self):
        prob = toy_problem(0.3)
        x0 = np.array([0.5, 0.2])
        hb = run_heavy_ball(prob, 0.4, 0.0, x0, EqualStart(), 30)
        gd = run_gradient_descent(prob, 0.4, x0, 30)
        assert np.array_equal(hb.points, gd.points)

    def test_constant_pair_matches_recurrence(self):
        prob = QuadraticProblem(np.array([0.5, -0.05]))
        x0 = np.array([1.0, 0.3])
        betas, gammas = params_array(ConstantSchedule(0.6, 0.6), 80)
        trace = run_accelerated(prob, 0.9, ConstantSchedule(0.6, 0.6), x0, EqualStart(), 80)
        for i, lam in enumerate(prob.eigenvalues):
            expected = scalar_recurrence(lam, 0.9, betas, gammas, x0[i], 80)
            scale = np.maximum(np.abs(expected), 1e-300)
            assert np.max(np.abs(trace.coordinate(i) - expected) / scale) < 1e-12


class TestAccelerated:
    def test_nesterov_matches_independent_recurrence(self):
        prob = QuadraticProblem(np.array([1.0, -0.01]))
        x0 = np.array([0.7, 0.2])
        steps = 200
        trace = run_accelerated(prob, 0.99, NesterovSchedule(), x0, EqualStart(), steps)
        betas, gammas = params_array(NesterovSchedule(), steps)
        for i, lam in enumerate(prob.eigenvalues):
            expected = scalar_recurrence(lam, 0.99, betas, gammas, x0[i], steps)
            scale = np.maximum(np.abs(expected), 1e-300)
            assert np.max(np.abs(trace.coordinate(i) - expected) / scale) <= 1e-10

    def test_diagonal_decoupling(self):
        prob = QuadraticProblem(np.array([0.8, 0.1, -0.2]))
        x0 = np.array([0.4, -1.2, 0.05])
        full = run_accelerated(prob, 0.5, NesterovSchedule(), x0, EqualStart(), 50)
        for i, lam in enumerate(prob.eigenvalues):
            single = run_accelerated(
                QuadraticProblem(np.array([lam])), 0.5, NesterovSchedule(),
                np.array([x0[i]]), EqualStart(), 50,
            )
            assert np.array_equal(full.coordinate(i), single.coordinate(0))


class TestHeavyBall:
    def test_critical_pair_is_fixed(self):
        prob = random_problem(5, 1, 0.2, seed=8)
        trace = run_heavy_ball(prob, 0.3, 0.9, np.zeros(5), EqualStart(), 25)
        assert np.array_equal(trace.points, np.zeros((26, 5)))

    def test_toy_overshoot_then_divergence(self):
        trace = run_heavy_ball(
            toy_problem(0.02), 0.75, 0.985, np.array([0.25, 0.01]), EqualStart(), 2500
        )
        assert trace.coordinate(0).min() < 0.0  # momentum carries x1 past the axis
        assert np.abs(trace.coordinate(1)).max() > 1.0

    def test_axis_start_stays_on_stable_subspace(self):
        trace = run_heavy_ball(
            toy_problem(0.02), 0.75, 0.985, np.array([0.7, 0.0]), EqualStart(), 10**4
        )
        assert np.all(trace.coordinate(1) == 0.0)
        assert np.linalg.norm(trace.final) <= 1e-8

    def test_off_axis_start_diverges(self):
        trace = run_heavy_ball(
            toy_problem(0.02), 0.75, 0.985, np.array([0.7, 1e-9]), EqualStart(), 10**4
        )
        assert trace.diverged

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            run_heavy_ball(toy_problem(0.1), 0.5, 1.0, np.zeros(2), EqualStart(), 5)

    def test_perturbed_start_is_seeded(self):
        policy = PerturbedStart(1e-6, seed=5)
        x0 = np.array([1.0, 2.0])
        assert np.array_equal(policy.resolve(x0), policy.resolve(x0))
        assert not np.array_equal(policy.resolve(x0), x0)
        with pytest.raises(ValueError):
            PerturbedStart(0.0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_perturbation_must_be_finite(self, epsilon):
        # NaN used to pass the positivity check and fail later in the kernel
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            PerturbedStart(epsilon)


class TestEscapeTime:
    def test_gd_toy_escape_count(self):
        # exact count from the closed form (1 + delta*alpha)^k * eps >= 1
        eps, delta, alpha = 0.01, 0.02, 1.0
        k = 0
        value = eps
        while value < 1.0:
            value *= 1.0 + delta * alpha
            k += 1
        assert k == 233
        prob = toy_problem(delta)
        trace = run_gradient_descent(prob, alpha, np.array([1.0, eps]), 300)
        assert escape_time(trace, prob.negative_projector(), 1.0) == 233

    def test_heavy_ball_toy_escape_count(self):
        # exact count from x2^k = eps*((1+s)^(k+1) + (1-s)^(k+1))/2, s = sqrt(3*delta)
        eps, delta = 0.01, 0.02
        s = np.sqrt(3 * delta)
        k = 0
        while 0.5 * eps * ((1 + s) ** (k + 1) + (1 - s) ** (k + 1)) < 1.0:
            k += 1
        assert k == 24
        prob = toy_problem(delta)
        trace = run_heavy_ball(prob, 3.0, 1.0 - 3 * delta, np.array([1.0, eps]), EqualStart(), 100)
        assert escape_time(trace, prob.negative_projector(), 1.0) == 24

    def test_converging_run_never_escapes(self):
        prob = QuadraticProblem(np.array([1.0, 0.5, 0.25]))
        trace = run_gradient_descent(prob, 1.0, np.array([0.3, 0.3, 0.3]), 200)
        assert escape_time(trace, np.eye(3), 1.0) is None

    def test_threshold_domain(self):
        prob = toy_problem(0.1)
        trace = run_gradient_descent(prob, 0.5, np.zeros(2), 5)
        with pytest.raises(ValueError):
            escape_time(trace, prob.negative_projector(), 0.0)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        # NaN used to pass the positivity check and report no escape
        prob = toy_problem(0.1)
        trace = run_gradient_descent(prob, 0.5, np.array([1.0, 0.1]), 5)
        with pytest.raises(ValueError, match="finite"):
            escape_time(trace, prob.negative_projector(), threshold)

    def test_accepts_vector_projector(self):
        prob = toy_problem(0.02)
        trace = run_gradient_descent(prob, 1.0, np.array([1.0, 0.01]), 300)
        assert escape_time(trace, np.array([0.0, 1.0]), 1.0) == 233


class TestSaddleAvoidance:
    def test_random_starts_never_converge_to_saddle(self):
        prob = random_problem(6, 2, 0.1, seed=17)
        alpha = 1.0 / prob.lipschitz
        beta = 1.0 - alpha * abs(prob.eigenvalues[-1])
        converged = 0
        for trial in range(50):
            rng = rng_from(900, trial)
            g = rng.standard_normal(6)
            x0 = g / np.linalg.norm(g)
            trace = run_heavy_ball(prob, alpha, beta, x0, PerturbedStart(1e-6, trial), 10**4)
            if not trace.diverged and np.linalg.norm(trace.final) <= 1e-8:
                converged += 1
        assert converged == 0

