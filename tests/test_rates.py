import math
import os
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saddlescape import (
    SCHEDULE_KINDS,
    AttouchSchedule,
    ConstantSchedule,
    EqualStart,
    NesterovSchedule,
    PolyakSchedule,
    QuadraticProblem,
    ScheduleError,
    ToySchedule,
    first_crossings,
    predicted_escape_iters,
    product_reconstruction,
    random_problem,
    rate_limit,
    rate_sequence,
    rng_from,
    row_norms,
    run_accelerated,
    sample_unit_ball,
)
from saddlescape.rates import _CHUNK, _CSV_CHUNK, MAX_STEPS, _spare_cpu

SCHEDULES = [NesterovSchedule(), AttouchSchedule(2.0), ConstantSchedule(0.5, 0.5)]
REJECTED_CURVATURES = [
    (float("nan"), 0.5),
    (-float("inf"), 0.5),
    (-0.1, float("nan")),
    (-0.1, float("inf")),
    (-1e200, 1e200),  # alpha*|lambda| overflows
    (-1e-300, 1e-300),  # alpha*|lambda| underflows to 0: an all-zero sequence and a zero limit
    (-1e-200, 3e-124),  # alpha*|lambda| = 3e-324 is subnormal, stored as 5e-324
]

all_schedules = st.one_of(
    st.builds(ConstantSchedule, st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.floats(0.01, 1.0).flatmap(lambda m: st.builds(PolyakSchedule, st.just(m), st.floats(m, 10.0))),
    st.just(NesterovSchedule()),
    st.builds(AttouchSchedule, st.floats(0.0, 5.0)),
    st.builds(ToySchedule, st.floats(0.01, 2.0), st.floats(0.0, 0.4), st.floats(0.0, 0.1)),
)


def scalar_rates(lam, alpha, schedule, count):
    """The growth recurrence, one numpy scalar at a time."""
    a = alpha * abs(lam)
    values = [0.0]
    b = 0.0
    for betas, gammas in schedule.windows(count, 1000):
        for beta, gamma in zip(betas, gammas):
            b = (beta + gamma * a) * (1.0 - 1.0 / (1.0 + b)) + a
            values.append(b)
    return np.array(values)


def bisected_crossings(growth, starts, threshold, cap):
    """Each row's first crossing by a plain bisection of ``(-1, min(cap, 2**63 - 2)]``, one row at a time, or -1."""
    result = []
    with np.errstate(over="ignore", invalid="ignore"):
        for g, s in zip(growth, starts):
            def reached(k):
                return row_norms(np.where(s == 0, 0.0, s * g**k)[None])[0] >= threshold

            lo, hi = -1, min(cap, 2**63 - 2)
            if not reached(hi):
                result.append(-1)
                continue
            while hi - lo > 1:
                mid = lo + (hi - lo) // 2
                lo, hi = (lo, mid) if reached(mid) else (mid, hi)
            result.append(hi)
    return result


def crosses(bar_b, projection, threshold, k):
    """``projection * (1 + bar_b)^k >= threshold`` in 60-digit decimal arithmetic, past the float range."""
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(projection) * Decimal(1.0 + bar_b) ** k >= Decimal(threshold)


def grown(start, factor, k):
    """``start * factor**k`` in Python floats, the power split in integer halves wherever it alone overflows."""
    if math.isinf(start):  # it stays inf: no need to split the rest of the power
        return start
    try:
        return start * factor**k
    except OverflowError:
        half = k // 2
        return grown(grown(start, factor, half), factor, k - half)


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

    def test_count_bound(self):
        with pytest.raises(ValueError, match=f"at most {MAX_STEPS}"):
            rate_sequence(-0.1, 0.5, NesterovSchedule(), MAX_STEPS + 1)
        # nothing runs until the sequence is read
        assert rate_sequence(-0.1, 0.5, NesterovSchedule(), MAX_STEPS).count == MAX_STEPS

    def test_final_values_and_rows_agree_past_a_window(self):
        seq = rate_sequence(-0.01, 0.99, NesterovSchedule(), _CHUNK + 3)
        final = seq.final
        assert final == seq.values[-1] and not seq.values.flags.writeable
        rows = "".join(seq.to_csv()).splitlines()
        assert rows[:2] == ["iter,b", "0,0"] and len(rows) == _CHUNK + 5
        assert rows[-1] == f"{_CHUNK + 3},{final:.12g}"

    def test_csv_chunks_hold_at_most_one_formatted_chunk_of_rows(self):
        # 5,000 rows lie in one 65,536-step window of the recurrence, and are still formatted 2,048 at a time
        chunks = list(rate_sequence(-0.01, 0.99, NesterovSchedule(), 5000).to_csv())
        assert max(chunk.count("\n") for chunk in chunks) <= _CSV_CHUNK
        assert sum(chunk.count("\n") for chunk in chunks) == 5002

    @pytest.mark.parametrize("lam, alpha", REJECTED_CURVATURES)
    def test_non_finite_curvature_rejected(self, lam, alpha):
        with pytest.raises(ValueError):
            rate_sequence(lam, alpha, NesterovSchedule(), 10)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.floats(-2.0, -1e-9),
        st.floats(1e-3, 2.0),
        all_schedules,
        st.one_of(st.integers(1, 300), st.integers(_CHUNK - 1, _CHUNK + 2)),
    )
    @example(-0.01, 0.99, NesterovSchedule(), _CHUNK + 1)
    def test_matches_scalar_reference_loop(self, lam, alpha, schedule, count):
        values = rate_sequence(lam, alpha, schedule, count).values
        assert np.array_equal(values, scalar_rates(lam, alpha, schedule, count))

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
            gaps[count] = abs(seq.final - lim)
        # O(1/K) approach: each decade shrinks the gap ~10x
        assert gaps[10**4] < 2e-4
        assert 8.0 < gaps[10**3] / gaps[10**4] < 12.0
        assert 8.0 < gaps[10**4] / gaps[10**5] < 12.0

    def test_constant_schedule_reaches_its_own_limit(self):
        beta = 0.8
        seq = rate_sequence(-0.01, 1.0, ConstantSchedule(beta, beta), 10**4)
        lim = rate_limit(-0.01, 1.0, beta, beta)
        assert abs(seq.final - lim) <= 1e-12


DEFINED_IN = os.getpid()


class DyingSchedule(ConstantSchedule, spec="dying:B"):
    """Constant momentum whose process exits in its second window, unless it is the process that defined it."""

    def _windows(self, count, size):
        windows = super()._windows(count, size)
        yield next(windows)
        if os.getpid() != DEFINED_IN:
            os._exit(3)
        yield from windows


del SCHEDULE_KINDS[DyingSchedule.kind]


def usable_cpus(monkeypatch, count):
    """Make the CPU probe see ``count`` CPUs; with one, any fork fails."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    if count == 1:

        def no_fork():
            raise AssertionError("forked with one CPU")

        monkeypatch.setattr(os, "fork", no_fork)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the forked producer needs os.fork")
class TestForkedWindows:
    """``to_csv`` reads its windows from a forked child where a second CPU is free, and inline otherwise."""

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.kind)
    def test_forked_windows_are_the_inline_windows(self, schedule, assert_no_child):
        seq = rate_sequence(-0.004, 0.99, schedule, 2 * _CHUNK + 5)
        forked = [(start, block.tolist()) for start, block in seq._forked_windows()]
        assert forked == [(start, block.tolist()) for start, block in seq._windows()]
        assert [len(block) for _, block in forked] == [_CHUNK, _CHUNK, 5]
        assert_no_child()

    def test_one_cpu_writes_the_same_bytes_inline(self, monkeypatch, assert_no_child):
        seq = rate_sequence(-0.004, 0.99, NesterovSchedule(), _CHUNK + 3)
        text = "".join(seq.to_csv())
        usable_cpus(monkeypatch, 1)
        assert not _spare_cpu()
        assert "".join(seq.to_csv()) == text
        assert_no_child()

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_late_schedule_error_has_the_inline_type_and_text(
        self, monkeypatch, late_failing_schedule, assert_no_child, cpus
    ):
        usable_cpus(monkeypatch, cpus)
        assert _spare_cpu() == (cpus > 1)
        seq = rate_sequence(-0.004, 0.99, late_failing_schedule(0.5), 2 * _CHUNK)
        rows = seq.to_csv()
        text = "".join(next(rows) for _ in range(3))
        assert text.startswith("iter,b\n0,0\n1,")  # the first window's rows come before the error
        with pytest.raises(ScheduleError) as raised:
            for _ in rows:
                pass
        assert type(raised.value) is ScheduleError and str(raised.value) == "the second window failed"
        assert_no_child()

    def test_a_child_that_dies_early_gives_the_inline_sequence(self, assert_no_child):
        seq = rate_sequence(-0.004, 0.99, DyingSchedule(0.5), 3 * _CHUNK - 7)
        forked = [(start, block.tobytes()) for start, block in seq._forked_windows()]
        assert forked == [(start, block.tobytes()) for start, block in seq._windows()]
        assert [start for start, _ in forked] == [1, _CHUNK + 1, 2 * _CHUNK + 1]
        assert "".join(seq.to_csv()) == "".join(rate_sequence(-0.004, 0.99, ConstantSchedule(0.5), seq.count).to_csv())
        assert_no_child()

    def test_a_reader_that_stops_early_leaves_no_child(self, assert_no_child):
        windows = rate_sequence(-0.004, 0.99, NesterovSchedule(), 10 * _CHUNK)._forked_windows()
        next(windows)
        windows.close()
        assert_no_child()


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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.floats(-4, 0),
        st.floats(0.01, 1.0),
        all_schedules,
        st.floats(-1.0, 1.0).filter(lambda x: abs(x) > 1e-3),
        st.integers(0, 300),
    )
    def test_simulated_coordinate_is_the_product_formula(self, log_curvature, alpha, schedule, start, steps):
        # Criterion 2 over random parameters: with alpha <= 1/L the positive
        # coordinate stays bounded, and the negative one is x0 * prod(1 + b_m)
        lam = -(10.0**log_curvature)
        trace = run_accelerated(
            QuadraticProblem(np.array([1.0, lam])), alpha, schedule, np.array([0.7, start]), EqualStart(), steps
        )
        seq = rate_sequence(lam, alpha, schedule, max(steps, 1))
        expected = [product_reconstruction(start, seq, k) for k in range(len(trace.points))]
        assert trace.points[:, 1] == pytest.approx(expected, rel=1e-10)


class TestRateLimit:
    def test_unit_limits_closed_form(self):
        lim = rate_limit(-0.01, 1.0, 1.0, 1.0)
        expected = 0.01 + math.sqrt(0.01) * math.sqrt(1.01)
        assert lim == pytest.approx(expected, abs=1e-12)
        assert lim == pytest.approx(0.1104987562112089, abs=1e-12)

    def test_heavy_ball_tuning_gives_sqrt_rate(self):
        for a in (1e-4, 1e-2, 0.5):
            lim = rate_limit(-a, 1.0, 1.0 - a, 0.0)
            assert lim == pytest.approx(math.sqrt(a), abs=1e-12)

    def test_zero_limits_recover_descent_rate(self):
        for a in (1e-4, 1e-2, 1.0):
            lim = rate_limit(-a, 1.0, 0.0, 0.0)
            assert lim == pytest.approx(a, abs=1e-12)

    def test_fixed_point_residual(self):
        rng = rng_from(55)
        for _ in range(200):
            a = 10.0 ** rng.uniform(-4, 0)
            beta = rng.uniform(0.0, 1.0)
            gamma = rng.uniform(0.0, 1.0)
            b = rate_limit(-a, 1.0, beta, gamma)
            # the growth-factor balance a + (1 + a + beta + gamma*a) b = 2b + b^2 that rate_limit documents
            assert abs(a + (1.0 + a + beta + gamma * a) * b - (2.0 * b + b * b)) <= 1e-12

    def test_growth_factor_ordering(self):
        # accelerated >= heavy-ball >= plain descent, per iteration
        for a in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
            accelerated = rate_limit(-a, 1.0, 1.0, 1.0)
            heavy = math.sqrt(a)
            assert accelerated >= heavy >= a

    @pytest.mark.parametrize("a", [1e-17, 1e-12, 1e-10, 1e-4])
    def test_no_cancellation_below_zero_half_trace(self, a):
        # limits (0, 0): b^2 - (a - 1) b - a = (b - a)(b + 1), so the root is a itself
        assert rate_limit(-a, 1.0, 0.0, 0.0) == pytest.approx(a, rel=1e-15, abs=0.0)

    def test_domains(self):
        with pytest.raises(ValueError):
            rate_limit(0.1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            rate_limit(-0.1, 1.0, 1.5, 0.0)

    def test_smallest_normal_curvature_accepted(self):
        # a = 2.2250738585072014e-308 is the smallest normal float; limits (0, 0) give b = a exactly
        tiny = np.finfo(float).smallest_normal
        assert rate_limit(-tiny, 1.0, 0.0, 0.0) == tiny
        with pytest.raises(ValueError, match=r"alpha\*\|lambda\| is subnormal"):
            rate_limit(-tiny, 0.5, 0.0, 0.0)

    @pytest.mark.parametrize("lam, alpha", REJECTED_CURVATURES + [(-1e200, 1e100)])
    def test_non_finite_input_or_limit_rejected(self, lam, alpha):
        with pytest.raises(ValueError):
            rate_limit(lam, alpha, 1.0, 1.0)


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
                predicted_escape_iters(lim, float(row_norms(x0[mask][None])[0]), 100.0)
            )
        mean = float(np.mean(values))
        assert 46.0 * 0.7 <= mean <= 46.0 * 1.3

    def test_growth_lost_to_rounding_returns_log1p_estimate(self):
        # 1 + 1e-17 == 1.0, so no floating-point power ever crosses
        assert predicted_escape_iters(1e-17, 0.5, 1.0) == math.ceil(math.log(2.0) / math.log1p(1e-17))

    def test_growth_lost_to_rounding_at_threshold_or_past_the_float_range(self):
        # 1 + 1e-17 == 1.0: a start at the threshold needs no step, and threshold / start overflows to inf
        assert predicted_escape_iters(1e-17, 2.0, 1.0) == 0
        # ceil((log(1e300) - log(1e-300)) / log1p(1e-17)), which is past the int64 range
        assert predicted_escape_iters(1e-17, 1e-300, 1e300) == 138155105579642732544

    def test_subnormal_growth_is_a_value_error(self):
        # 1 + bar_b == 1 and log(2)/log1p(bar_b) is inf: no escape count exists in a float
        with pytest.raises(ValueError, match="bar_b"):
            predicted_escape_iters(1e-320, 0.5, 1.0)

    def test_coarsely_rounded_growth_is_still_the_exact_first_crossing(self):
        # the log1p estimate is off by billions of steps here; the polish must not step one by one
        for bar_b in (1e-13, 1.5e-16, 3e-16, 1e-10):
            k = predicted_escape_iters(bar_b, 0.5, 1.0)
            assert 0.5 * (1.0 + bar_b) ** k >= 1.0 > 0.5 * (1.0 + bar_b) ** (k - 1)

    @pytest.mark.parametrize(
        "bar_b, projection, threshold",
        [
            (0.07588723439378912, 1e-300, 1e300),
            (1e-3, 5e-324, 1.7e308),
            (2.5, 1e-310, 1e308),
            (1e-12, 1e-300, 1e300),
        ],
    )
    def test_ratio_past_float_range_is_exact_first_crossing(self, bar_b, projection, threshold):
        # threshold / projection and (1 + bar_b)**k both overflow a float here
        k = predicted_escape_iters(bar_b, projection, threshold)
        assert crosses(bar_b, projection, threshold, k)
        assert not crosses(bar_b, projection, threshold, k - 1)

    def test_smallest_start_to_largest_threshold(self):
        # the power overflows from about 1024 steps on, long before the product crosses
        assert predicted_escape_iters(1.0, 5e-324, 1e308) == 2098

    def test_domains(self):
        with pytest.raises(ValueError):
            predicted_escape_iters(0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            predicted_escape_iters(0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            predicted_escape_iters(0.1, 0.1, 0.0)
        for bad in (float("nan"), float("inf")):
            for args in ((bad, 0.1, 1.0), (0.1, bad, 1.0), (0.1, 0.1, bad)):
                with pytest.raises(ValueError):
                    predicted_escape_iters(*args)


class TestFirstCrossings:
    @pytest.mark.parametrize(
        "growth, start, threshold, count",
        [
            (2.0, 1e-10, 1e300, 1030),  # the power overflows long before the product crosses
            (2.0, 1e-200, 1e-190, 34),  # the square of a lone coordinate underflows
            (1.0 + 2**-52, 5e-324, 1e300, 6463636440543851012),  # a count past 2**62
        ],
    )
    def test_exact_count_past_the_float_range(self, growth, start, threshold, count):
        assert first_crossings([[growth]], [[start]], threshold, 2**63 - 2).tolist() == [count]
        assert grown(start, growth, count) >= threshold > grown(start, growth, count - 1)

    def test_a_crossing_past_the_cap_is_minus_one(self):
        assert first_crossings([[2.0]], [[1e-10]], 1e300, 1029).tolist() == [-1]
        assert first_crossings([[2.0]], [[1e-10]], 1e300, 1030).tolist() == [1030]

    @pytest.mark.parametrize(
        "growth, start, threshold, cap, message",
        [
            # a shrinking norm would hide step 0's crossing from the bisection
            (0.5, 1.0, 0.9, 10, "growth must be finite and at least 1"),
            (float("nan"), 1.0, 2.0, 10, "growth must be finite and at least 1"),
            (float("inf"), 1.0, 2.0, 10, "growth must be finite and at least 1"),
            (2.0, float("nan"), 2.0, 10, "starts must be finite"),
            (2.0, float("inf"), 2.0, 10, "starts must be finite"),
            # a NaN threshold used to report every row as never crossing
            (2.0, 1.0, float("nan"), 10, "threshold must be positive and finite"),
            (2.0, 1.0, float("inf"), 10, "threshold must be positive and finite"),
            (2.0, 1.0, 0.0, 10, "threshold must be positive and finite"),
            (2.0, 1.0, 2.0, -1, "cap must be nonnegative, got -1"),
        ],
    )
    def test_domain(self, growth, start, threshold, cap, message):
        with pytest.raises(ValueError, match=message):
            first_crossings([[1.5, growth]], [[1.0, start]], threshold, cap)

    def test_domain_edges_are_accepted(self):
        # a growth of exactly 1 never grows, and a cap of 0 counts only the start
        assert first_crossings([[1.0], [1.0]], [[0.5], [2.0]], 1.0, 0).tolist() == [-1, 0]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.lists(st.sampled_from([1.0, 1.0 + 2**-52]) | st.floats(1.0, 3.0), min_size=n, max_size=n),
                    st.lists(st.just(0.0) | st.floats(1e-290, 1e3) | st.floats(-1e3, -1e-290), min_size=n, max_size=n),
                ),
                min_size=1,
                max_size=8,
            )
        ),
        st.floats(1e-3, 1e6),
        st.integers(0, 2**63 - 2) | st.integers(0, 5000),
    )
    def test_rows_searched_at_once_match_a_plain_bisection_of_each(self, rows, threshold, cap):
        # rows cross at very different steps, or never, under one cap: each row's search ends on its own
        growth, starts = (np.array(column) for column in zip(*rows))
        assert first_crossings(growth, starts, threshold, cap).tolist() == bisected_crossings(growth, starts, threshold, cap)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.floats(-52, math.log2(10)),
        st.floats(-324, 0),
        st.floats(-320, 308),
        st.integers(0, 2**63 - 2),
    )
    @example(log_b=-52.0, log_start=-324.0, log_threshold=308.0, cap=2**63 - 2)  # the largest count
    def test_one_coordinate_crossing_is_minimal_over_the_float_range(self, log_b, log_start, log_threshold, cap):
        # The returned k crosses and k - 1 does not, in the scalar reference;
        # -1 means the reference has not crossed at the cap.
        factor = 1.0 + 2.0**log_b
        start, threshold = max(10.0**log_start, 5e-324), max(10.0**log_threshold, 5e-324)
        [k] = first_crossings([[factor]], [[start]], threshold, cap).tolist()
        if k < 0:
            assert grown(start, factor, cap) < threshold
        else:
            assert k <= cap and grown(start, factor, k) >= threshold
            assert k == 0 or grown(start, factor, k - 1) < threshold
