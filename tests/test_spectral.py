import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saddlescape import cli, spectral
from saddlescape import (
    ConditionError,
    QuadraticProblem,
    apply_iteration_map,
    block_eigenvalues,
    block_roots,
    classify_saddle_map,
    invert_iteration_map,
    param_conditions,
    polyak_params,
    random_problem,
    rate_limit,
    rng_from,
    toy_problem,
)


def companion_roots(lam, alpha, beta):
    """Eigenvalues of the 2x2 update block, via the dense eigensolver."""
    block = np.array([[1.0 + beta - alpha * lam, -beta], [1.0, 0.0]])
    return np.linalg.eigvals(block)


def draw_valid_params(rng):
    lambda1 = rng.uniform(0.1, 2.0)
    alpha = rng.uniform(0.05, 0.95) * 4.0 / lambda1
    lower = max(alpha * lambda1 / 2.0 - 1.0, 0.0)
    beta = lower + (1.0 - lower) * rng.uniform(0.05, 0.95)
    return lambda1, alpha, beta


class TestBlockEigenvalues:
    def test_zero_eigenvalue_gives_one_and_beta(self):
        pair = block_eigenvalues(0.0, 0.75, 0.985)
        assert pair.is_real
        assert abs(pair.mu_hi - 1.0) <= 1e-12
        assert abs(pair.mu_lo - 0.985) <= 1e-12

    def test_toy_negative_curvature_roots(self):
        delta = 0.02
        pair = block_eigenvalues(-delta, 3.0, 1.0 - 3.0 * delta)
        root = np.sqrt(3.0 * delta)
        assert pair.mu_hi.real == pytest.approx(1.0 + root, abs=1e-12)
        assert pair.mu_lo.real == pytest.approx(1.0 - root, abs=1e-12)
        assert pair.mu_hi.real == pytest.approx(1.2449489742783178, abs=1e-12)
        assert pair.mu_lo.real == pytest.approx(0.7550510257216822, abs=1e-12)

    def test_complex_pair_has_sqrt_beta_magnitude(self):
        pair = block_eigenvalues(1.0, 3.0, 0.985)
        assert not pair.is_real
        assert abs(pair.mu_hi) == pytest.approx(np.sqrt(0.985), rel=1e-12)
        assert abs(pair.mu_lo) == pytest.approx(np.sqrt(0.985), rel=1e-12)
        assert pair.mu_hi.imag >= 0.0

    def test_matches_dense_eigensolver(self):
        rng = rng_from(42)
        for _ in range(200):
            lambda1, alpha, beta = draw_valid_params(rng)
            lam = rng.uniform(-lambda1, lambda1)
            pair = block_eigenvalues(lam, alpha, beta)
            got = sorted([pair.mu_hi, pair.mu_lo], key=lambda z: (z.real, z.imag))
            want = sorted(companion_roots(lam, alpha, beta), key=lambda z: (z.real, z.imag))
            assert abs(got[0] - want[0]) <= 1e-10
            assert abs(got[1] - want[1]) <= 1e-10

    def test_root_identities(self):
        rng = rng_from(43)
        for _ in range(1000):
            lambda1, alpha, beta = draw_valid_params(rng)
            lam = rng.uniform(-lambda1, lambda1)
            pair = block_eigenvalues(lam, alpha, beta)
            assert abs(pair.mu_hi + pair.mu_lo - (1.0 + beta - alpha * lam)) <= 1e-12
            assert abs(pair.mu_hi * pair.mu_lo - beta) <= 1e-12

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            block_eigenvalues(0.5, -1.0, 0.5)
        with pytest.raises(ValueError):
            block_eigenvalues(0.5, 1.0, 1.0)

    @pytest.mark.parametrize(
        "lam, alpha, beta",
        [
            (float("nan"), 0.5, 0.5),
            (float("-inf"), 0.5, 0.5),
            (-0.01, float("nan"), 0.5),
            (-0.01, float("inf"), 0.5),
            (-0.01, 0.5, float("nan")),
            (-1e300, 1e10, 0.5),  # alpha*lambda overflows
        ],
    )
    def test_non_finite_input_rejected(self, lam, alpha, beta):
        with pytest.raises(ValueError):
            block_eigenvalues(lam, alpha, beta)

    # Magnitudes are drawn log-uniformly: alpha*|lambda| over 18 decades, |lambda| over 9.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(-12, 6), st.floats(-6, 3), st.floats(0.0, 1.0, exclude_max=True))
    def test_heavy_ball_rate_limit_is_the_unstable_root_less_one(self, log_a, log_lam, beta):
        # Heavy-ball limits (beta, 0) make the rate's fixed-point quadratic the
        # block's characteristic one shifted by mu = 1 + b.  The two functions
        # find that root by different formulas, so they may differ by rounding.
        lam = -(10.0**log_lam)
        alpha = 10.0**log_a / abs(lam)
        mu_hi = block_eigenvalues(lam, alpha, beta).mu_hi.real
        assert abs(rate_limit(lam, alpha, beta, 0.0) - (mu_hi - 1.0)) <= 4 * math.ulp(mu_hi)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(-6, 6), st.floats(-6, 3), st.sampled_from([-1.0, 1.0]), st.floats(0.0, 1.0, exclude_max=True))
    def test_vieta_relations(self, log_a, log_lam, sign, beta):
        # mu_hi + mu_lo = 1 + beta - alpha*lambda and mu_hi * mu_lo = beta, to
        # rounding at the scale of the roots (the product at their square).
        lam = sign * 10.0**log_lam
        alpha = 10.0**log_a / abs(lam)
        pair = block_eigenvalues(lam, alpha, beta)
        total = 1.0 + beta - alpha * lam
        scale = max(1.0, abs(pair.mu_hi), abs(total))
        assert abs(pair.mu_hi + pair.mu_lo - total) <= 4 * math.ulp(scale)
        assert abs(pair.mu_hi * pair.mu_lo - beta) <= 4 * math.ulp(scale**2)


def scalar_roots(lam, alpha, beta):
    """``(mu_hi, mu_lo)`` by the one-block scalar formula, the reference of the array roots."""
    lam, alpha, beta = float(lam), float(alpha), float(beta)
    s = 1.0 + beta - alpha * lam
    disc = (1.0 - beta) ** 2 + alpha * lam * (alpha * lam - 2.0 * (1.0 + beta))
    if disc >= 0.0:
        root = math.sqrt(disc)
        plus = 0.5 * (s + root)
        minus = 0.5 * (s - root)
        if abs(plus) >= abs(minus):
            return complex(plus), complex(minus)
        return complex(minus), complex(plus)
    imag = 0.5 * math.sqrt(-disc)
    return complex(0.5 * s, imag), complex(0.5 * s, -imag)


@st.composite
def mixed_blocks(draw):
    """``(lams, alpha, beta)`` with lambda = 0, complex pairs, near-zero discriminants and other values in one array."""
    alpha = 10.0 ** draw(st.floats(-3, 2))
    beta = draw(st.floats(0.0, 1.0, exclude_max=True))
    # the discriminant vanishes at alpha*lambda = (1 -+ sqrt(beta))^2 and is negative between them
    low, high = ((1.0 - sign * math.sqrt(beta)) ** 2 / alpha for sign in (1.0, -1.0))
    lam = st.one_of(
        st.just(0.0),
        st.floats(-1e3, 1e3),
        st.floats(low, high),
        st.tuples(st.sampled_from([low, high]), st.floats(-1e-9, 1e-9)).map(lambda t: t[0] * (1.0 + t[1])),
    )
    return draw(st.lists(lam, min_size=1, max_size=20)), alpha, beta


def bits(*values):
    return [float(value).hex() for value in values]


class TestBlockRoots:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mixed_blocks())
    @example(([0.0, 0.5, (1.0 - 0.9) ** 2 / 2.0, (1.0 + 0.9) ** 2 / 2.0, -0.3, -0.0], 2.0, 0.81))
    @example(([5.0], 1.0, 0.5))  # alpha*lambda past 2*(1 + beta): |mu_hi| = 3.35, unstable though lambda > 0
    @example(([0.5, 0.0], 1.0, 0.9999999999999999))
    def test_array_roots_equal_the_scalar_formula_bit_for_bit(self, params):
        lams, alpha, beta = params
        if 0.0 in lams and 1.0 + beta == 2.0:  # the largest beta below 1: both roots of lambda = 0 round to 1
            with pytest.raises(ValueError, match=r"rounds the zero-eigenvalue block's roots 1 and beta to one root$"):
                block_roots(lams, alpha, beta)
            return
        blocks = block_roots(lams, alpha, beta)
        assert blocks.dtype == spectral.BLOCK_DTYPE and blocks.shape == (len(lams),)
        for lam, (got_lam, hi, lo, label) in zip(lams, blocks.tolist()):
            want_hi, want_lo = scalar_roots(lam, alpha, beta)
            assert bits(got_lam, *hi, *lo) == bits(lam, want_hi.real, want_hi.imag, want_lo.real, want_lo.imag)
            assert label == ("unstable" if abs(want_hi) > 1.0 else ("unit" if abs(want_hi) == 1.0 else "stable"))
            pair = block_eigenvalues(lam, alpha, beta)
            assert bits(pair.mu_hi.real, pair.mu_hi.imag, pair.mu_lo.real, pair.mu_lo.imag) == bits(*hi, *lo)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.floats(-3, 3),
        st.lists(st.tuples(st.floats(-6, 6), st.sampled_from([-1.0, 1.0])), min_size=1, max_size=20),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_vieta_relations_of_the_array_roots(self, log_alpha, scales, beta):
        # test_vieta_relations on every row of one array: alpha*|lambda| spans 12 decades
        alpha = 10.0**log_alpha
        lams = [sign * 10.0**log_scale / alpha for log_scale, sign in scales]
        for lam, (_, hi, lo, _) in zip(lams, block_roots(lams, alpha, beta).tolist()):
            mu_hi, mu_lo = complex(*hi), complex(*lo)
            total = 1.0 + beta - alpha * lam
            scale = max(1.0, abs(mu_hi), abs(total))
            assert abs(mu_hi + mu_lo - total) <= 4 * math.ulp(scale)
            assert abs(mu_hi * mu_lo - beta) <= 4 * math.ulp(scale**2)

    @pytest.mark.parametrize(
        "lams, alpha, beta, message",
        [
            ([0.5, float("nan")], 0.5, 0.5, "lambda must be finite, got nan"),
            ([-1e300, 0.5], 1e10, 0.5, "alpha*lambda = -inf is too large for finite roots"),
            ([0.5, -1e300], 1e-10, 0.5, "alpha*lambda = -1e+290 is too large for finite roots"),
            ([0.5], 0.0, 0.5, "alpha must be positive and finite, got 0.0"),
            ([0.5], 0.5, 1.0, "beta must lie in [0, 1), got 1.0"),
        ],
    )
    def test_errors_name_the_first_bad_value(self, lams, alpha, beta, message):
        with pytest.raises(ValueError) as info:
            block_roots(lams, alpha, beta)
        assert str(info.value) == message

    def test_classification_and_its_json_stay_small(self):
        # One record per block, written from its columns: per-block objects took 4.94 MiB here.
        prob = random_problem(5000, 50, 0.01, 0)
        tracemalloc.start()
        try:
            payload = classify_saddle_map(prob, 1.0 / prob.lipschitz, 0.989).to_json_dict()
            for _ in cli._json_chunks(payload):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestParamConditions:
    def test_toy_parameters_pass(self):
        assert param_conditions(3.0, 0.985, 1.0) is None

    def test_alpha_too_large(self):
        # alpha = 5 also lifts the beta interval's lower end to 1.5: both failures are named, joined by "; "
        with pytest.raises(ConditionError) as info:
            param_conditions(5.0, 0.9, 1.0)
        assert str(info.value) == (
            "alpha must satisfy 0 < alpha < 4/lambda1 = 4; beta must lie in the open interval (1.5, 1)"
        )

    def test_beta_boundary_excluded(self):
        with pytest.raises(ConditionError, match=r"^beta must lie in the open interval \(0\.5, 1\)$"):
            param_conditions(3.0, 0.5, 1.0)

    def test_lambda1_domain(self):
        for lambda1 in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                param_conditions(1.0, 0.5, lambda1)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_fails_alone(self, alpha):
        with pytest.raises(ConditionError, match=r"^alpha must satisfy 0 < alpha < 4/lambda1 = 4$"):
            param_conditions(alpha, 0.5, 1.0)

    def test_nan_beta_fails(self):
        with pytest.raises(ConditionError, match=r"^beta must lie in the open interval \(0, 1\)$"):
            param_conditions(1.0, float("nan"), 1.0)


class TestClassification:
    def test_toy_dimensions(self):
        result = classify_saddle_map(toy_problem(0.02), 0.75, 0.985)
        assert result.stable_dim == 3
        assert result.unstable_dim == 1
        assert result.blocks["class"].tolist() == ["stable", "unstable"]

    def test_positive_spectrum_is_contracting(self):
        alpha, beta = polyak_params(0.25, 1.0)
        prob = QuadraticProblem(np.array([1.0, 0.5, 0.25]))
        result = classify_saddle_map(prob, alpha, beta)
        assert result.unstable_dim == 0
        for pair in result.pairs:
            assert abs(pair.mu_hi) < 1.0 and abs(pair.mu_lo) < 1.0

    def test_random_problem_counts_negative_blocks(self):
        prob = random_problem(100, 5, 1e-2, seed=7)
        result = classify_saddle_map(prob, 1.0 / prob.lipschitz, 0.989)
        # independent count: dense eigensolver on each block
        unstable = 0
        for lam in prob.eigenvalues:
            roots = companion_roots(lam, 1.0 / prob.lipschitz, 0.989)
            unstable += int(np.sum(np.abs(roots) > 1.0))
        assert unstable == 5
        assert result.unstable_dim == 5
        assert result.stable_dim == 195

    @pytest.mark.parametrize("eigenvalues", [[0.0, -0.5], [-0.1, -0.2]])
    def test_nonpositive_largest_eigenvalue_rejected(self, eigenvalues):
        with pytest.raises(ConditionError, match=r"^classification requires a positive largest eigenvalue$"):
            classify_saddle_map(QuadraticProblem(np.array(eigenvalues)), 0.5, 0.5)

    def test_zero_eigenvalue_block_is_unit(self):
        prob = QuadraticProblem(np.array([1.0, 0.0, -0.5]))
        result = classify_saddle_map(prob, 0.5, 0.9)
        assert result.blocks["class"].tolist() == ["stable", "unit", "unstable"]
        mags = sorted([abs(result.pairs[1].mu_hi), abs(result.pairs[1].mu_lo)])
        assert mags == pytest.approx([0.9, 1.0], abs=1e-12)

    def test_condition_violation_names_inequality(self):
        with pytest.raises(ConditionError, match="alpha"):
            classify_saddle_map(toy_problem(0.02), 5.0, 0.9)

    def test_trichotomy_over_random_draws(self):
        rng = rng_from(44)
        for trial in range(1000):
            lambda1, alpha, beta = draw_valid_params(rng)
            kind = trial % 3
            if kind == 0:
                lam = rng.uniform(1e-6, lambda1)
                pair = block_eigenvalues(lam, alpha, beta)
                assert abs(pair.mu_hi) < 1.0 and abs(pair.mu_lo) < 1.0
            elif kind == 1:
                pair = block_eigenvalues(0.0, alpha, beta)
                assert abs(pair.mu_hi - 1.0) <= 1e-12
                assert abs(pair.mu_lo - beta) <= 1e-12
            else:
                lam = -rng.uniform(1e-6, 2.0)
                pair = block_eigenvalues(lam, alpha, beta)
                assert pair.is_real
                assert pair.mu_hi.real > 1.0
                assert 0.0 < pair.mu_lo.real < 1.0

    def test_json_report_shape(self):
        data = json.loads("".join(cli._json_chunks(classify_saddle_map(toy_problem(0.1), 0.5, 0.9).to_json_dict())))
        assert data["stable_dim"] == 3 and data["unstable_dim"] == 1
        assert [b["class"] for b in data["blocks"]] == ["stable", "unstable"]
        assert set(data["blocks"][0]) == {"lambda", "mu_hi", "mu_lo", "class"}
        assert set(data["blocks"][0]["mu_hi"]) == {"re", "im"}


class TestIterationMap:
    def test_fixed_point_at_critical_pair(self):
        prob = toy_problem(0.02)
        z1, z2 = apply_iteration_map(prob, 0.75, 0.985, np.zeros(2), np.zeros(2))
        assert np.array_equal(z1, np.zeros(2)) and np.array_equal(z2, np.zeros(2))

    def test_beta_zero_reduces_to_descent_step(self):
        prob = toy_problem(0.1)
        x = np.array([0.3, -0.4])
        first, second = apply_iteration_map(prob, 0.5, 0.0, x, np.array([9.0, 9.0]))
        assert np.allclose(first, x - 0.5 * prob.gradient(x), rtol=1e-15)
        assert np.array_equal(second, x)

    def test_toy_single_application(self):
        delta, alpha, beta, eps = 0.02, 0.75, 0.985, 0.01
        prob = toy_problem(delta)
        z = np.array([1.0, eps])
        first, second = apply_iteration_map(prob, alpha, beta, z, z)
        assert first[0] == pytest.approx(1.0 - alpha, rel=1e-15)
        assert first[1] == pytest.approx((1.0 + delta * alpha) * eps, rel=1e-15)
        assert np.array_equal(second, z)

    def test_heavy_ball_step_equals_map_exactly(self):
        from saddlescape import EqualStart, run_heavy_ball

        prob = random_problem(7, 2, 0.1, seed=5)
        x0 = rng_from(5, 2).standard_normal(7)
        trace = run_heavy_ball(prob, 0.4, 0.7, x0, EqualStart(), 30)
        for k in range(1, 30):
            mapped, _ = apply_iteration_map(prob, 0.4, 0.7, trace.points[k], trace.points[k - 1])
            assert np.array_equal(mapped, trace.points[k + 1])

    def test_roundtrip_on_random_points(self):
        prob = random_problem(8, 2, 0.1, seed=6).rotated(seed=3)
        rng = rng_from(6, 5)
        for _ in range(100):
            z1 = rng.standard_normal(8)
            z2 = rng.standard_normal(8)
            y1, y2 = apply_iteration_map(prob, 0.5, 0.8, z1, z2)
            w1, w2 = invert_iteration_map(prob, 0.5, 0.8, y1, y2)
            assert np.linalg.norm(w1 - z1) <= 1e-10 * max(np.linalg.norm(z1), 1.0)
            assert np.linalg.norm(w2 - z2) <= 1e-10 * max(np.linalg.norm(z2), 1.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(2, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
        st.floats(1e-3, 0.3),
        st.integers(0, 2**16),
        st.floats(0.05, 3.95),
        st.floats(1e-3, 0.999),
    )
    def test_inverse_is_a_two_sided_inverse_on_rotated_problems(self, shape, delta, seed, step, beta):
        # Criterion 9: the explicit inverse undoes the map and the map undoes
        # it.  Dividing by beta scales the rounding error by 1/beta.
        n, p = shape
        prob = random_problem(n, p, delta, seed).rotated(seed=seed + 1)
        alpha = step / prob.lipschitz
        rng = rng_from(seed, 2)
        z1, z2 = rng.standard_normal(n), rng.standard_normal(n)
        tolerance = 1e-12 / beta * max(np.abs(z1).max(), np.abs(z2).max(), 1.0)
        maps = (apply_iteration_map, invert_iteration_map)
        for forward, backward in (maps, maps[::-1]):
            w1, w2 = backward(prob, alpha, beta, *forward(prob, alpha, beta, z1, z2))
            assert np.abs(w1 - z1).max() <= tolerance and np.abs(w2 - z2).max() <= tolerance

    def test_inverse_fixed_point_and_zero(self):
        prob = toy_problem(0.3)
        z1, z2 = invert_iteration_map(prob, 0.5, 0.8, np.zeros(2), np.zeros(2))
        assert np.array_equal(z1, np.zeros(2)) and np.array_equal(z2, np.zeros(2))

    def test_inverse_requires_positive_beta(self):
        prob = toy_problem(0.3)
        with pytest.raises(ValueError):
            invert_iteration_map(prob, 0.5, 0.0, np.zeros(2), np.zeros(2))

    def test_dimension_mismatch(self):
        prob = toy_problem(0.3)
        with pytest.raises(ValueError):
            apply_iteration_map(prob, 0.5, 0.8, np.zeros(3), np.zeros(2))


class TestUnstableEigenvectors:
    def apply_linear_map(self, prob, alpha, beta, w):
        n = prob.n
        first, second = apply_iteration_map(prob, alpha, beta, w[:n], w[n:])
        return np.concatenate([first, second])

    def test_residual_on_toy(self):
        delta, alpha, beta = 0.02, 0.75, 0.985
        prob = toy_problem(delta)
        (w,) = classify_saddle_map(prob, alpha, beta).unstable_eigenvectors
        pair = block_eigenvalues(-delta, alpha, beta)
        assert np.array_equal(w, [0.0, 1.0, 0.0, 1.0 / pair.mu_hi.real])
        image = self.apply_linear_map(prob, alpha, beta, w)
        assert np.linalg.norm(image - pair.mu_hi.real * w) <= 1e-10 * np.linalg.norm(w)

    def test_orthogonality_between_blocks(self):
        prob = QuadraticProblem(np.array([1.0, -0.3, -0.5]))
        result = classify_saddle_map(prob, 0.5, 0.9)
        vectors = result.unstable_eigenvectors
        assert vectors.shape == (2, 6)
        assert abs(vectors[0] @ vectors[1]) == 0.0

    def test_rotated_problem_residuals(self):
        prob = random_problem(10, 3, 0.1, seed=12).rotated(seed=9)
        alpha = 1.0 / prob.lipschitz
        beta = 0.9
        result = classify_saddle_map(prob, alpha, beta)
        for w, pair in zip(result.unstable_eigenvectors, result.pairs[-3:]):
            image = self.apply_linear_map(prob, alpha, beta, w)
            assert np.linalg.norm(image - pair.mu_hi.real * w) <= 1e-10 * np.linalg.norm(w)


    @pytest.mark.parametrize(
        "prob",
        [
            QuadraticProblem(np.array([1.0, 0.5, 0.0])),
            QuadraticProblem(np.array([1.0, 0.5, 0.0])).rotated(seed=5),
            random_problem(40, 6, 0.05, seed=4),
            random_problem(40, 6, 0.05, seed=4).rotated(seed=2),
        ],
        ids=["p0-diagonal", "p0-rotated", "diagonal", "rotated"],
    )
    def test_rows_equal_dense_identity_construction(self, prob, monkeypatch):
        alpha, beta = 1.0 / prob.lipschitz, 0.95
        calls = []
        monkeypatch.setattr(spectral, "block_roots", lambda *args: calls.append(args) or block_roots(*args))
        result = classify_saddle_map(prob, alpha, beta)
        vectors = result.unstable_eigenvectors
        # the rows are derived from the blocks: each block's roots are solved once, in one call over all of them
        assert len(calls) == 1 and np.array_equal(calls[0][0], prob.eigenvalues)
        negative = np.flatnonzero(prob.eigenvalues < 0)
        assert (result.unstable_dim, result.stable_dim) == (negative.size, 2 * prob.n - negative.size)
        expected = []
        for i in negative:  # (v, v / mu_hi), with v the eigenvector and mu_hi the block's own root
            v = np.eye(prob.n)[i] if prob.basis is None else prob.basis[:, i]
            mu_hi = block_roots([prob.eigenvalues[i]], alpha, beta)["mu_hi"]["re"][0]
            expected.append(np.concatenate([v, v / mu_hi]))
        assert np.array_equal(vectors, np.reshape(expected, (negative.size, 2 * prob.n)))
        for z, i in zip(vectors, negative):
            mu_hi = result.pairs[i].mu_hi.real
            image = self.apply_linear_map(prob, alpha, beta, z)
            assert np.allclose(image, mu_hi * z, rtol=0.0, atol=1e-12)

    def test_no_negative_eigenvalue_gives_no_rows(self):
        result = classify_saddle_map(QuadraticProblem(np.array([1.0, 0.5, 0.0])), 0.5, 0.9)
        assert result.unstable_eigenvectors.shape == (0, 6)

    def test_classification_memory_stays_small(self):
        prob = random_problem(5000, 50, 0.01, 0)
        tracemalloc.start()
        try:
            classify_saddle_map(prob, 1.0 / prob.lipschitz, 0.989)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestInvariantSubspaces:
    def test_powers_bounded_on_nonnegative_span_divergent_off_it(self):
        for seed in range(50):
            rng = rng_from(700, seed)
            prob = QuadraticProblem(np.array([1.0, 0.5, 0.0, -0.5]))
            alpha, beta = 1.0, 0.5
            stable_w = np.zeros(4)
            stable_w[:3] = rng.standard_normal(3)
            z = np.concatenate([stable_w, stable_w])
            start_norm = np.linalg.norm(z)
            for _ in range(300):
                z = np.concatenate(apply_iteration_map(prob, alpha, beta, z[:4], z[4:]))
            assert np.linalg.norm(z) <= 10.0 * max(start_norm, 1.0)

            mixed_w = stable_w.copy()
            mixed_w[3] = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
            z = np.concatenate([mixed_w, mixed_w])
            for _ in range(300):
                z = np.concatenate(apply_iteration_map(prob, alpha, beta, z[:4], z[4:]))
            assert np.linalg.norm(z) > 1e6
