import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlescape import (
    ConstantSchedule,
    EqualStart,
    NesterovSchedule,
    PerturbedStart,
    QuadraticProblem,
    escape_time,
    param_conditions,
    random_orthogonal,
    random_problem,
    rng_from,
    run_accelerated,
    run_gradient_descent,
    run_heavy_ball,
    toy_problem,
)


def scalar_recurrence(lam, alpha, schedule, x0, steps):
    """Independent per-coordinate form of the framework's update."""
    xs = [x0]
    prev, cur = x0, x0
    for betas, gammas in schedule.windows(steps, 64):
        for beta, gamma in zip(betas, gammas):
            nxt = ((1 + beta) - (1 + gamma) * alpha * lam) * cur - (beta - gamma * alpha * lam) * prev
            xs.append(nxt)
            prev, cur = cur, nxt
    return np.array(xs)


class TestGradientDescent:
    def test_toy_second_coordinate_growth(self):
        eps = 0.01
        trace = run_gradient_descent(toy_problem(0.02), 0.75, np.array([1.0, eps]), 50)
        ks = np.arange(51)
        expected = (1.0 + 0.02 * 0.75) ** ks * eps
        assert np.max(np.abs(trace.points[:, 1] - expected) / expected) < 1e-13

    def test_critical_point_is_fixed(self):
        prob = random_problem(4, 1, 0.1, seed=6).rotated(seed=2)
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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(2, 16).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
        st.floats(1e-3, 0.5),
        st.integers(0, 2**16),
        st.floats(0.01, 0.9),
        st.booleans(),
        st.integers(0, 150),
    )
    def test_is_its_closed_form_on_random_problems(self, shape, delta, seed, step, rotate, iterations):
        # Criterion 1 over random parameters: with alpha <= 0.9/L every factor
        # 1 - alpha*lambda lies in [0.1, 1.9], so no coordinate is annihilated
        n, p = shape
        prob = random_problem(n, p, delta, seed=seed)
        x0 = rng_from(seed, 9).standard_normal(n)
        alpha = step / prob.lipschitz
        factors = (1.0 - alpha * prob.eigenvalues) ** np.arange(iterations + 1)[:, None]
        if not rotate:
            trace = run_gradient_descent(prob, alpha, x0, iterations)
            assert np.max(np.abs(trace.points - factors * x0) / np.abs(factors * x0)) <= 1e-12
            return
        prob = prob.rotated(seed=seed)
        basis = prob.basis
        trace = run_gradient_descent(prob, alpha, x0, iterations)
        # in the eigenbasis each coordinate is its own closed form; the error
        # scale of the mapped-back point is |coordinates| @ |basis|^T
        coords = factors * (x0 @ basis)
        scale = np.abs(coords) @ np.abs(basis).T
        assert np.max(np.abs(trace.points - coords @ basis.T) / scale) <= 1e-12

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
        trace = run_accelerated(prob, 0.9, ConstantSchedule(0.6, 0.6), x0, EqualStart(), 80)
        for i, lam in enumerate(prob.eigenvalues):
            expected = scalar_recurrence(lam, 0.9, ConstantSchedule(0.6, 0.6), x0[i], 80)
            scale = np.maximum(np.abs(expected), 1e-300)
            assert np.max(np.abs(trace.points[:, i] - expected) / scale) < 1e-12


class TestAccelerated:
    def test_nesterov_matches_independent_recurrence(self):
        prob = QuadraticProblem(np.array([1.0, -0.01]))
        x0 = np.array([0.7, 0.2])
        steps = 200
        trace = run_accelerated(prob, 0.99, NesterovSchedule(), x0, EqualStart(), steps)
        for i, lam in enumerate(prob.eigenvalues):
            expected = scalar_recurrence(lam, 0.99, NesterovSchedule(), x0[i], steps)
            scale = np.maximum(np.abs(expected), 1e-300)
            assert np.max(np.abs(trace.points[:, i] - expected) / scale) <= 1e-10

    def test_diagonal_decoupling(self):
        prob = QuadraticProblem(np.array([0.8, 0.1, -0.2]))
        x0 = np.array([0.4, -1.2, 0.05])
        full = run_accelerated(prob, 0.5, NesterovSchedule(), x0, EqualStart(), 50)
        for i, lam in enumerate(prob.eigenvalues):
            single = run_accelerated(
                QuadraticProblem(np.array([lam])), 0.5, NesterovSchedule(),
                np.array([x0[i]]), EqualStart(), 50,
            )
            assert np.array_equal(full.points[:, i], single.points[:, 0])

    @pytest.mark.parametrize("x0", [np.zeros(2), np.zeros(4), np.zeros((1, 3))])
    def test_start_of_wrong_dimension_rejected(self, x0):
        prob = QuadraticProblem(np.array([0.8, 0.1, -0.2]))
        with pytest.raises(ValueError, match=r"^starting point must have dimension 3$"):
            run_accelerated(prob, 0.5, NesterovSchedule(), x0, EqualStart(), 5)


class TestHeavyBall:
    def test_critical_pair_is_fixed(self):
        prob = random_problem(5, 1, 0.2, seed=8)
        trace = run_heavy_ball(prob, 0.3, 0.9, np.zeros(5), EqualStart(), 25)
        assert np.array_equal(trace.points, np.zeros((26, 5)))

    def test_toy_overshoot_then_divergence(self):
        trace = run_heavy_ball(
            toy_problem(0.02), 0.75, 0.985, np.array([0.25, 0.01]), EqualStart(), 2500
        )
        assert trace.points[:, 0].min() < 0.0  # momentum carries x1 past the axis
        assert np.abs(trace.points[:, 1]).max() > 1.0

    def test_axis_start_stays_on_stable_subspace(self):
        trace = run_heavy_ball(
            toy_problem(0.02), 0.75, 0.985, np.array([0.7, 0.0]), EqualStart(), 10**4
        )
        assert np.all(trace.points[:, 1] == 0.0)
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

    def test_a_coordinate_overflowed_outside_the_subspace_is_not_read(self):
        # step 1 takes x1 to -inf, where the run stops, and x2 to 0.5: the whole row times the projector is 0 * inf = NaN
        prob = toy_problem(0.5)
        trace = run_gradient_descent(prob, 1e300, np.array([1e10, 1e-300]), 5)
        assert trace.diverged and np.isinf(trace.final[0])
        assert escape_time(trace, prob.negative_projector(), 0.1) == 1


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


@st.composite
def saddles(draw):
    """Eigenvalues with a positive part in ``[0.1, 1] * lambda1`` and a negative part in ``[-0.5, -0.05] * lambda1``,
    heavy-ball parameters that pass :func:`param_conditions` with a margin, and a seed."""
    n = draw(st.integers(3, 8))
    p = draw(st.integers(1, n - 2))
    lambda1 = draw(st.floats(0.5, 2.0))
    positive = [draw(st.floats(0.1, 1.0)) for _ in range(n - p - 1)]
    negative = [draw(st.floats(-0.5, -0.05)) for _ in range(p)]
    eigenvalues = lambda1 * np.sort(np.array([1.0, *positive, *negative]))[::-1]
    step = draw(st.floats(0.2, 3.0))  # alpha * lambda1, below 4
    lower = max(step / 2.0 - 1.0, 0.0)
    beta = lower + (1.0 - lower) * draw(st.floats(0.1, 0.9))
    return eigenvalues, step / lambda1, beta, draw(st.integers(0, 2**16))


def block_rotated_saddle(eigenvalues, seed):
    """A problem whose basis rotates the positive and the negative eigenvectors among themselves, and a start in the
    positive span: its negative-space component is exactly zero, and so is every iterate's from an equal start."""
    n, mask = eigenvalues.size, eigenvalues < 0
    basis = np.zeros((n, n))
    basis[np.ix_(~mask, ~mask)] = random_orthogonal((~mask).sum(), seed)
    basis[np.ix_(mask, mask)] = random_orthogonal(mask.sum(), seed + 1)
    x0 = basis[:, ~mask] @ rng_from(seed, 3).uniform(-0.5, 0.5, size=(~mask).sum())
    return QuadraticProblem(eigenvalues, basis=basis), x0


class TestSaddleAvoidanceProperty:
    """The stable-manifold result for heavy ball: only starts on the saddle's stable manifold converge to it."""

    ITERATIONS = 3000

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(saddles())
    def test_perturbed_starts_leave_the_unit_ball(self, saddle):
        # With alpha*|lambda| >= 0.01 the unstable root is at least 1.01, so a
        # negative-space component of 1e-3 passes 1 within about 700 steps.
        eigenvalues, alpha, beta, seed = saddle
        param_conditions(alpha, beta, eigenvalues[0])  # raises ConditionError unless the conditions hold
        prob = QuadraticProblem(eigenvalues).rotated(seed)
        mask = eigenvalues < 0
        rng = rng_from(seed, 3)
        on_manifold = prob.basis[:, ~mask] @ rng.uniform(-0.5, 0.5, size=(~mask).sum())
        direction = prob.basis[:, mask] @ rng.standard_normal(mask.sum())
        x0 = on_manifold + 1e-3 * direction / np.linalg.norm(direction)
        trace = run_heavy_ball(prob, alpha, beta, x0, EqualStart(), self.ITERATIONS)
        k = escape_time(trace, prob.negative_projector(), 1.0)
        assert k is not None and k > 0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(saddles())
    def test_starts_without_a_negative_component_converge(self, saddle):
        # No iterate gets a negative-space component: the measure-zero exception.
        eigenvalues, alpha, beta, seed = saddle
        mask = eigenvalues < 0
        prob, x0 = block_rotated_saddle(eigenvalues, seed)
        trace = run_heavy_ball(prob, alpha, beta, x0, EqualStart(), self.ITERATIONS)
        assert not trace.diverged and not trace.points[:, mask].any()
        assert escape_time(trace, prob.negative_projector(), 1e-300) is None
        assert np.abs(trace.final).max() <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(saddles())
    def test_a_perturbed_predecessor_escapes_from_a_start_without_a_negative_component(self, saddle):
        # The analogue of perturbed gradient descent (Jin et al., arXiv 1703.00887): the start lies on the stable
        # manifold, and only its momentum predecessor, perturbed by 1e-6, has a negative-space component.
        eigenvalues, alpha, beta, seed = saddle
        mask = eigenvalues < 0
        prob, x0 = block_rotated_saddle(eigenvalues, seed)
        policy = PerturbedStart(1e-6, seed)
        assert not (x0 @ prob.basis)[mask].any() and (policy.resolve(x0) @ prob.basis)[mask].any()
        trace = run_heavy_ball(prob, alpha, beta, x0, policy, 5000)
        k = escape_time(trace, prob.negative_projector(), 1.0)
        assert k is not None and k > 0
