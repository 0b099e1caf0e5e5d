import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlescape import (
    QuadraticProblem,
    random_orthogonal,
    random_problem,
    rng_from,
    sample_unit_ball,
    toy_problem,
)


class TestToyProblem:
    def test_spectrum_and_lipschitz(self):
        prob = toy_problem(0.02)
        assert prob.n == 2
        assert np.array_equal(prob.eigenvalues, [1.0, -0.02])
        assert prob.basis is None
        assert prob.lipschitz == 1.0

    def test_gradient_at_critical_point(self):
        prob = toy_problem(0.5)
        assert np.array_equal(prob.gradient(np.zeros(2)), np.zeros(2))

    def test_gradient_componentwise(self):
        prob = toy_problem(0.02)
        g = prob.gradient(np.array([0.25, 0.01]))
        assert np.allclose(g, [0.25, -0.0002], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_delta_domain(self, delta):
        with pytest.raises(ValueError):
            toy_problem(delta)


class TestQuadraticProblem:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_eigenvalues_rejected(self, bad):
        # [1, nan, -1] used to pass the sorting check, with lipschitz 1.0
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            QuadraticProblem(np.array([1.0, bad, -1.0]))


class TestRandomProblem:
    def test_seeded_determinism(self):
        a = random_problem(100, 5, 1e-2, seed=7)
        b = random_problem(100, 5, 1e-2, seed=7)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_negative_band(self):
        prob = random_problem(100, 5, 1e-2, seed=7)
        neg = prob.eigenvalues[prob.eigenvalues < 0]
        assert neg.size == 5
        assert np.all(neg >= -0.02) and np.all(neg <= -0.01)

    def test_sorted_nonincreasing(self):
        ev = random_problem(10, 1, 0.1, seed=1).eigenvalues
        assert np.array_equal(ev, np.sort(ev)[::-1])

    @pytest.mark.parametrize("n,p", [(5, 5), (5, 6), (3, 0)])
    def test_p_domain(self, n, p):
        with pytest.raises(ValueError):
            random_problem(n, p, 0.1, seed=0)

    # a subnormal delta, and one whose 2*delta overflows (numpy's uniform draw raised OverflowError)
    @pytest.mark.parametrize("delta", [0.0, -0.1, float("nan"), float("inf"), 1e-310, 1e308])
    def test_delta_domain(self, delta):
        with pytest.raises(ValueError, match="delta"):
            random_problem(10, 2, delta, seed=0)

    def test_counts_and_lipschitz(self):
        for seed in range(20):
            prob = random_problem(30, 4, 5e-2, seed=seed)
            ev = prob.eigenvalues
            assert np.count_nonzero(ev < 0) == 4
            assert prob.lipschitz == max(ev[0], -ev[-1])

    @pytest.mark.parametrize("delta", [1e-3, 1e-2, 0.3, 7.0])
    def test_single_negative_eigenvalue_is_exactly_minus_delta(self, delta):
        for seed in range(5):
            ev = random_problem(20, 1, delta, seed=seed).eigenvalues
            assert ev[-1] == -delta
            assert np.count_nonzero(ev < 0) == 1

    def test_single_negative_eigenvalue_draws_nothing(self):
        # with p = 1 the stream holds only the n - 1 nonnegative draws
        rng = rng_from(4)
        random_problem(20, 1, 1e-2, rng)
        expected = rng_from(4)
        expected.uniform(0.0, 1.0, size=19)
        assert rng.random() == expected.random()


class TestGradient:
    def test_zero_point(self):
        prob = random_problem(12, 2, 0.1, seed=3)
        assert np.array_equal(prob.gradient(np.zeros(12)), np.zeros(12))

    def test_diagonal_componentwise(self):
        prob = QuadraticProblem(np.array([1.0, -0.02]))
        eps = 1e-3
        assert np.allclose(prob.gradient(np.array([1.0, eps])), [1.0, -0.02 * eps], rtol=1e-15)

    def test_dimension_mismatch(self):
        prob = toy_problem(0.1)
        with pytest.raises(ValueError):
            prob.gradient(np.zeros(3))

    def test_matches_finite_differences(self):
        # central differences are exact for quadratics up to rounding
        step = 1e-5
        checked = 0
        for seed in range(50):
            rng = rng_from(1000 + seed)
            n = int(rng.integers(2, 9))
            prob = random_problem(n, 1, 0.1, seed=seed)
            if seed % 2:
                prob = prob.rotated(seed=seed)
            for _ in range(2):
                x = rng.standard_normal(n)
                g = prob.gradient(x)
                fd = np.empty(n)
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = step
                    fd[i] = (prob.value(x + e) - prob.value(x - e)) / (2 * step)
                assert np.linalg.norm(fd - g) <= 1e-6 * max(np.linalg.norm(g), 1e-12)
                checked += 1
        assert checked == 100

    def test_batched_evaluation(self):
        prob = random_problem(6, 2, 0.1, seed=9).rotated(seed=4)
        xs = rng_from(5).standard_normal((7, 6))
        values, grads = prob.value(xs), prob.gradient(xs)
        for i in range(7):
            assert values[i] == pytest.approx(prob.value(xs[i]), rel=1e-14)
            assert np.allclose(grads[i], prob.gradient(xs[i]), rtol=1e-14)


class TestRotation:
    def test_basis_is_orthogonal(self):
        q = random_orthogonal(15, seed=2)
        assert np.abs(q.T @ q - np.eye(15)).max() < 1e-12

    def test_non_orthogonal_basis_rejected(self):
        with pytest.raises(ValueError):
            QuadraticProblem(np.array([1.0, -0.5]), basis=np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rotated_iterates_match_diagonal(self):
        from saddlescape import run_heavy_ball

        diag = random_problem(8, 2, 0.1, seed=11)
        rot = diag.rotated(seed=21)
        v = rot.basis
        z0 = rng_from(31).standard_normal(8)
        trace_diag = run_heavy_ball(diag, 0.5, 0.8, z0, iterations=60)
        trace_rot = run_heavy_ball(rot, 0.5, 0.8, v @ z0, iterations=60)
        expected = trace_diag.points @ v.T
        scale = np.abs(expected).max(axis=1, keepdims=True) + 1e-300
        assert np.max(np.abs(trace_rot.points - expected) / scale) < 1e-10


class TestSampling:
    def test_unit_ball_norms(self):
        rng = rng_from(77)
        norms = [np.linalg.norm(sample_unit_ball(5, rng)) for _ in range(200)]
        assert max(norms) <= 1.0
        assert min(norms) > 0.0

    def test_deterministic(self):
        a = sample_unit_ball(4, rng_from(3, 1))
        b = sample_unit_ball(4, rng_from(3, 1))
        assert np.array_equal(a, b)

