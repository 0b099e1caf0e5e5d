import math

import numpy as np
import pytest

from saddlescape import (
    AttouchSchedule,
    ConstantSchedule,
    EqualStart,
    NesterovSchedule,
    QuadraticProblem,
    escape_bounds,
    predicted_escape_iters,
    product_reconstruction,
    random_problem,
    rate_limit,
    rate_sequence,
    rng_from,
    run_accelerated,
    sample_unit_ball,
)

SCHEDULES = [NesterovSchedule(), AttouchSchedule(2.0), ConstantSchedule(0.5, 0.5)]


class TestRateSequence:
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_first_value_is_step_curvature_product(self, schedule):
        seq = rate_sequence(-0.05, 0.8, schedule, 10)
        assert seq.values[0] == 0.0
        assert seq.values[1] == 0.8 * 0.05

    def test_zero_schedule_collapses_to_descent_rate(self):
        seq = rate_sequence(-0.1, 0.5, ConstantSchedule(0.0, 0.0), 50)
        assert np.all(seq.values[1:] == 0.5 * 0.1)

    def test_lambda_domain(self):
        with pytest.raises(ValueError):
            rate_sequence(0.1, 0.5, NesterovSchedule(), 10)
        with pytest.raises(ValueError):
            rate_sequence(-0.1, 0.5, NesterovSchedule(), 0)

    @pytest.mark.parametrize("schedule", [NesterovSchedule(), AttouchSchedule(2.0)])
    @pytest.mark.parametrize("a", [1e-4, 1e-2, 1.0])
    def test_monotone_and_floored_for_nondecreasing_schedules(self, schedule, a):
        seq = rate_sequence(-a, 1.0, schedule, 2000)
        assert np.all(np.diff(seq.values[1:]) >= 0.0)
        assert np.all(seq.values[1:] >= a)

    def test_converges_toward_limit_at_one_over_k(self):
        lim = rate_limit(-0.01, 1.0, 1.0, 1.0)
        gaps = {}
        for count in (10**3, 10**4, 10**5):
            seq = rate_sequence(-0.01, 1.0, NesterovSchedule(), count)
            gaps[count] = abs(seq.final - lim.value)
        # O(1/K) approach: each decade shrinks the gap ~10x
        assert gaps[10**4] < 2e-4
        assert 8.0 < gaps[10**3] / gaps[10**4] < 12.0
        assert 8.0 < gaps[10**4] / gaps[10**5] < 12.0

    def test_constant_schedule_reaches_its_own_limit(self):
        beta = 0.8
        seq = rate_sequence(-0.01, 1.0, ConstantSchedule(beta, beta), 10**4)
        lim = rate_limit(-0.01, 1.0, beta, beta)
        assert abs(seq.final - lim.value) <= 1e-12


class TestProductReconstruction:
    def test_step_zero_returns_start(self):
        seq = rate_sequence(-0.05, 0.5, NesterovSchedule(), 5)
        assert product_reconstruction(0.3, seq, 0) == 0.3

    def test_step_one_applies_descent_factor(self):
        seq = rate_sequence(-0.05, 0.5, NesterovSchedule(), 5)
        assert product_reconstruction(0.3, seq, 1) == pytest.approx(
            (1.0 + 0.5 * 0.05) * 0.3, rel=1e-15
        )

    def test_matches_simulated_coordinate(self):
        prob = QuadraticProblem(np.array([1.0, -0.01]))
        x0 = np.array([0.8, 0.25])
        steps = 200
        trace = run_accelerated(prob, 0.99, NesterovSchedule(), x0, EqualStart(), steps)
        seq = rate_sequence(-0.01, 0.99, NesterovSchedule(), steps)
        for k in range(steps + 1):
            expected = product_reconstruction(x0[1], seq, k)
            assert trace.points[k, 1] == pytest.approx(expected, rel=1e-10)

    def test_step_domain(self):
        seq = rate_sequence(-0.05, 0.5, NesterovSchedule(), 5)
        with pytest.raises(ValueError):
            product_reconstruction(1.0, seq, 6)


class TestRateLimit:
    def test_unit_limits_closed_form(self):
        lim = rate_limit(-0.01, 1.0, 1.0, 1.0)
        expected = 0.01 + math.sqrt(0.01) * math.sqrt(1.01)
        assert lim.value == pytest.approx(expected, abs=1e-12)
        assert lim.value == pytest.approx(0.1104987562112089, abs=1e-12)

    def test_heavy_ball_tuning_gives_sqrt_rate(self):
        for a in (1e-4, 1e-2, 0.5):
            lim = rate_limit(-a, 1.0, 1.0 - a, 0.0)
            assert lim.value == pytest.approx(math.sqrt(a), abs=1e-12)

    def test_zero_limits_recover_descent_rate(self):
        for a in (1e-4, 1e-2, 1.0):
            lim = rate_limit(-a, 1.0, 0.0, 0.0)
            assert lim.value == pytest.approx(a, abs=1e-12)

    def test_fixed_point_residual(self):
        rng = rng_from(55)
        for _ in range(200):
            a = 10.0 ** rng.uniform(-4, 0)
            beta = rng.uniform(0.0, 1.0)
            gamma = rng.uniform(0.0, 1.0)
            lim = rate_limit(-a, 1.0, beta, gamma)
            assert lim.fixed_point_residual() <= 1e-12

    def test_growth_factor_ordering(self):
        # accelerated >= heavy-ball >= plain descent, per iteration
        for a in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
            accelerated = rate_limit(-a, 1.0, 1.0, 1.0).value
            heavy = math.sqrt(a)
            assert accelerated >= heavy >= a

    def test_domains(self):
        with pytest.raises(ValueError):
            rate_limit(0.1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            rate_limit(-0.1, 1.0, 1.5, 0.0)


class TestEscapeBounds:
    def test_descent_bound(self):
        assert escape_bounds(0.02, 1.0, 0.01)["gd_bound"] == 231

    def test_heavy_ball_bound(self):
        assert escape_bounds(0.02, 1.0, 0.01)["hb_bound"] == 21

    def test_threshold_already_met(self):
        assert escape_bounds(0.02, 1.0, 1.0)["gd_bound"] == 0

    def test_domains(self):
        with pytest.raises(ValueError):
            escape_bounds(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            escape_bounds(0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            escape_bounds(0.5, 0.0, 0.5)


class TestPredictedEscape:
    def test_already_at_threshold(self):
        assert predicted_escape_iters(0.5, 1.0, 1.0) == 0

    def test_geometric_growth_count(self):
        assert predicted_escape_iters(0.110499, 0.1, 100.0) == 66

    def test_is_exact_first_crossing(self):
        rng = rng_from(56)
        for _ in range(200):
            bar_b = 10.0 ** rng.uniform(-3, 0)
            proj = 10.0 ** rng.uniform(-4, 0)
            threshold = 10.0 ** rng.uniform(0, 3)
            k = predicted_escape_iters(bar_b, proj, threshold)
            assert proj * (1.0 + bar_b) ** k >= threshold
            if k > 0:
                assert proj * (1.0 + bar_b) ** (k - 1) < threshold

    def test_scale_of_typical_table_predictions(self):
        # frozen regression scale: for n=100, delta=1e-2 the mean prediction
        # over unit-ball starts sits near 46 iterations
        values = []
        for trial in range(100):
            rng = rng_from(77, trial)
            prob = random_problem(100, 5, 1e-2, rng)
            x0 = sample_unit_ball(100, rng)
            mask = prob.eigenvalues < 0
            lim = rate_limit(float(prob.eigenvalues[-1]), 0.99 / prob.lipschitz, 1.0, 1.0)
            values.append(
                predicted_escape_iters(lim.value, float(np.linalg.norm(x0[mask])), 100.0)
            )
        mean = float(np.mean(values))
        assert 46.0 * 0.7 <= mean <= 46.0 * 1.3

    def test_growth_lost_to_rounding_returns_log1p_estimate(self):
        # 1 + 1e-17 == 1.0, so no floating-point power ever crosses
        assert predicted_escape_iters(1e-17, 0.5, 1.0) == math.ceil(math.log(2.0) / math.log1p(1e-17))

    def test_coarsely_rounded_growth_is_still_the_exact_first_crossing(self):
        # the log1p estimate is off by billions of steps here; the polish must not step one by one
        for bar_b in (1e-13, 1.5e-16, 3e-16, 1e-10):
            k = predicted_escape_iters(bar_b, 0.5, 1.0)
            assert 0.5 * (1.0 + bar_b) ** k >= 1.0 > 0.5 * (1.0 + bar_b) ** (k - 1)

    def test_domains(self):
        with pytest.raises(ValueError):
            predicted_escape_iters(0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            predicted_escape_iters(0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            predicted_escape_iters(0.1, 0.1, 0.0)
