import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saddlescape import (
    SCHEDULE_KINDS,
    AttouchSchedule,
    ConstantSchedule,
    NesterovSchedule,
    PolyakSchedule,
    ScheduleError,
    ToySchedule,
    polyak_params,
    verify_tk_properties,
)
from saddlescape.cli import _parse_schedule_spec
from saddlescape.rates import _CHUNK
from saddlescape.schedules import TkPropertyReport

NAN, INF = float("nan"), float("inf")

# One strategy per registered kind; a new kind must add its own.
KIND_STRATEGIES = {
    "nesterov": st.just(NesterovSchedule()),
    "attouch": st.builds(AttouchSchedule, st.floats(0.0, 1e6)),
    "constant": st.builds(ConstantSchedule, st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    "polyak": st.floats(1e-9, 1e9).flatmap(
        lambda m: st.builds(PolyakSchedule, st.just(m), st.floats(m, 1e9))
    ),
    "toy": st.builds(ToySchedule, st.floats(1e-6, 2.0), st.floats(0.0, 0.4), st.floats(0.0, 0.1)),
}


def params_at(schedule, k):
    """The pair ``(beta_k, gamma_k)`` emitted at iteration ``k``: the last terms of the schedule's windows."""
    *_, (betas, gammas) = schedule.windows(k)
    return betas[-1], gammas[-1]


def scalar_t(count):
    """``t_0..t_count`` of ``t_0 = 1``, ``t_k = (sqrt(4 t_{k-1}^2 + 1) + 1)/2``, one float at a time."""
    t = [1.0]
    for _ in range(count):
        t.append((math.sqrt(4.0 * t[-1] * t[-1] + 1.0) + 1.0) / 2.0)
    return np.array(t)


class TestNesterovT:
    """The t-sequence, read through the Nesterov schedule's terms ``(t_{k-1} - 1) / t_k``."""

    def test_first_terms(self):
        betas, gammas = next(NesterovSchedule().windows(2))
        golden = (math.sqrt(5.0) + 1.0) / 2.0
        assert betas[0] == gammas[0] == 0.0
        assert betas[1] == gammas[1] == pytest.approx((golden - 1.0) / 2.1935271, rel=1e-6)

    def test_lower_bound_holds_everywhere(self):
        assert verify_tk_properties(10**4).bound_ok

    def test_count_domain(self):
        with pytest.raises(ValueError):
            next(NesterovSchedule().windows(-1))

    def test_terms_past_a_window_match_the_scalar_loop(self):
        t = scalar_t(_CHUNK + 5)
        terms = np.concatenate([b for b, _ in NesterovSchedule().windows(_CHUNK + 5)])
        assert np.array_equal(terms, (t[:-1] - 1.0) / t[1:])


def reference_terms(schedule, count):
    """``beta_1..beta_count`` and ``gamma_1..gamma_count`` of ``schedule``, from its rule term by term."""
    if isinstance(schedule, NesterovSchedule):
        t = scalar_t(count)
        betas = (t[:-1] - 1.0) / t[1:]
    elif isinstance(schedule, AttouchSchedule):
        betas = np.array([(k - 1.0) / (k + schedule.eta + 1.0) for k in range(1, count + 1)])
    else:
        return np.full(count, schedule.beta), np.full(count, schedule.gamma)
    return betas, betas


class SecondWindowOutOfRange(ConstantSchedule, spec="second-window-out-of-range:B"):
    """Constant momentum whose terms are 1.5 from the second window on, left to the range check of ``windows``."""

    def _windows(self, count):
        for i, (betas, gammas) in enumerate(super()._windows(count)):
            yield (betas if i == 0 else np.full(betas.size, 1.5)), gammas


del SCHEDULE_KINDS[SecondWindowOutOfRange.kind]


class TestWindows:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.one_of(*KIND_STRATEGIES.values()),
        st.one_of(st.integers(0, 40), st.sampled_from([k * _CHUNK + d for k in (1, 2) for d in (-1, 0, 1)])),
    )
    @example(NesterovSchedule(), _CHUNK + 1)
    @example(AttouchSchedule(2.0), 2 * _CHUNK + 1)
    @example(ConstantSchedule(0.5, 0.5), _CHUNK)
    def test_windows_hold_chunk_terms_and_join_to_the_rule(self, schedule, count):
        windows = list(schedule.windows(count))
        # every window holds _CHUNK terms but the last, which holds the rest
        tail = [count % _CHUNK] if count % _CHUNK else []
        assert [b.size for b, _ in windows] == [g.size for _, g in windows] == [_CHUNK] * (count // _CHUNK) + tail
        joined = [np.concatenate([np.empty(0)] + [window[i] for window in windows]) for i in (0, 1)]
        for terms, expected in zip(joined, reference_terms(schedule, count)):
            assert np.array_equal(terms, expected)

    def test_domain(self):
        with pytest.raises(ValueError, match="count"):
            next(NesterovSchedule().windows(-1))

    def test_range_checked_window_by_window(self):
        # a rule that leaves [0, 1] only in its second window raises there, not before
        windows = SecondWindowOutOfRange(0.5).windows(_CHUNK + 1)
        assert next(windows)[0].tolist() == [0.5] * _CHUNK
        with pytest.raises(ScheduleError, match="schedule emitted parameters outside"):
            next(windows)


class TestScheduleParams:
    def test_nesterov_first_step_is_zero(self):
        assert params_at(NesterovSchedule(), 1) == (0.0, 0.0)

    def test_attouch_example(self):
        assert params_at(AttouchSchedule(eta=2.0), 5) == (0.5, 0.5)

    def test_toy_momentum(self):
        beta, gamma = params_at(ToySchedule(alpha=0.75, delta=0.02), 3)
        assert beta == pytest.approx(0.985, rel=1e-12)
        assert gamma == 0.0

    def test_polyak_emits_zero_gamma(self):
        sched = PolyakSchedule(m=0.01, L=1.0)
        beta, gamma = params_at(sched, 10)
        assert beta == pytest.approx(0.9 / 1.1, rel=1e-14)
        assert gamma == 0.0

    def test_constant_passthrough(self):
        assert params_at(ConstantSchedule(0.3, 0.7), 100) == (0.3, 0.7)

    def test_index_domain(self):
        with pytest.raises(ValueError):
            params_at(NesterovSchedule(), -1)

    @pytest.mark.parametrize("beta,gamma", [(-0.1, 0.0), (1.1, 0.0), (0.5, 2.0)])
    def test_constant_out_of_range(self, beta, gamma):
        with pytest.raises(ScheduleError):
            ConstantSchedule(beta, gamma)

    def test_toy_out_of_range(self):
        with pytest.raises(ScheduleError):
            ToySchedule(alpha=3.0, delta=0.5)  # beta = -0.5

    def test_array_agrees_with_pointwise(self):
        for sched in (NesterovSchedule(), AttouchSchedule(1.5), ConstantSchedule(0.4, 0.2)):
            betas, gammas = next(sched.windows(50))
            for k in (1, 2, 17, 50):
                assert (betas[k - 1], gammas[k - 1]) == params_at(sched, k)

    def test_nondecreasing_variants(self):
        for sched in (NesterovSchedule(), AttouchSchedule(2.0)):
            betas, _ = next(sched.windows(2000))
            assert np.all(np.diff(betas) >= 0.0)
            assert betas[0] == 0.0 and betas[-1] < 1.0


class TestPolyakParams:
    def test_degenerate_spectrum(self):
        assert polyak_params(1.0, 1.0) == (1.0, 0.0)

    def test_wide_spectrum(self):
        alpha, beta = polyak_params(0.01, 1.0)
        assert alpha == pytest.approx(3.3057851239669422, rel=1e-12)
        assert beta == pytest.approx(0.8181818181818182, rel=1e-12)

    def test_moderate_spectrum(self):
        alpha, beta = polyak_params(0.25, 1.0)
        assert alpha == pytest.approx(16.0 / 9.0, rel=1e-12)
        assert beta == pytest.approx(1.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("m,L", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)])
    def test_domain(self, m, L):
        with pytest.raises(ValueError):
            polyak_params(m, L)

    def test_beta_range(self):
        for m, L in [(0.01, 1.0), (0.5, 2.0), (1.0, 1.0), (1e-6, 10.0)]:
            _, beta = polyak_params(m, L)
            assert 0.0 <= beta < 1.0
            assert (beta == 0.0) == (m == L)


def whole_array_tk_report(count):
    """The t-sequence report computed from one array of all the terms."""
    t = scalar_t(count)
    identity_err = np.abs(t[1:] * t[1:] - t[1:] - t[:-1] * t[:-1]) / (t[1:] * t[1:])
    k = np.arange(count + 1, dtype=float)
    ratios = (t[:-1] - 1.0) / t[1:]
    lower = 1.0 - 2.0 / (t[:-1] + 1.0)
    return TkPropertyReport(
        count=count,
        identity_max_err=float(identity_err.max()),
        bound_ok=bool(np.all(t >= (k + 1.0) / 2.0)),
        ratio_monotone=bool(np.all(np.diff(ratios) >= 0.0)) and bool(np.all(ratios >= 0.0)),
        ratio_gap=max(float(np.max(lower - ratios)), float(np.max(ratios - 1.0)), 0.0),
        final_ratio=float(ratios[-1]),
    )


class TestTkProperties:
    @pytest.mark.parametrize(
        "count", [2, 3, 1024, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 65536, 65537, 10**5, 10**6]
    )
    def test_streamed_report_equals_the_whole_array_report(self, count):
        # windows hold _CHUNK = 4,096 terms; the ratios compare across each window edge
        streamed = json.dumps(verify_tk_properties(count).to_json_dict())
        assert streamed == json.dumps(whole_array_tk_report(count).to_json_dict())

    def test_identity_tight_at_thousand(self):
        report = verify_tk_properties(1000)
        assert report.identity_max_err <= 1e-9
        assert report.passed

    def test_ratio_inside_bounds_at_end(self):
        report = verify_tk_properties(1000)
        t = scalar_t(1000)
        assert 1.0 - 2.0 / (t[999] + 1.0) <= report.final_ratio <= 1.0

    def test_small_count_ratios_nondecreasing(self):
        report = verify_tk_properties(2)
        assert report.ratio_monotone
        assert report.final_ratio == params_at(NesterovSchedule(), 2)[0]  # (t_1 - 1) / t_2

    def test_count_domain(self):
        with pytest.raises(ValueError):
            verify_tk_properties(1)

    def test_json_report_fields(self):
        data = verify_tk_properties(10).to_json_dict()
        assert set(data) == {
            "count",
            "identity_max_err",
            "bound_ok",
            "ratio_monotone",
            "ratio_gap",
            "final_ratio",
            "passed",
        }


class TestLimits:
    def test_limit_params(self):
        assert NesterovSchedule().limit() == (1.0, 1.0)
        assert AttouchSchedule(2.0).limit() == (1.0, 1.0)
        assert ConstantSchedule(0.3, 0.1).limit() == (0.3, 0.1)
        beta = PolyakSchedule(0.25, 1.0).beta
        assert PolyakSchedule(0.25, 1.0).limit() == (beta, 0.0)
        toy = ToySchedule(1.0, 0.02)
        assert toy.limit() == (toy.beta, 0.0)
        assert toy.beta == pytest.approx(0.98, rel=1e-15)


class TestScheduleJson:
    def test_kind_tags(self):
        assert NesterovSchedule().to_json_dict() == {"kind": "nesterov"}
        assert AttouchSchedule(2.0).to_json_dict() == {"kind": "attouch", "eta": 2.0}
        assert ConstantSchedule(0.5, 0.25).to_json_dict() == {
            "kind": "constant",
            "beta": 0.5,
            "gamma": 0.25,
        }


class TestScheduleKinds:
    def test_every_kind_has_a_strategy(self):
        assert KIND_STRATEGIES.keys() == SCHEDULE_KINDS.keys()
        assert all(cls.kind == kind for kind, cls in SCHEDULE_KINDS.items())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.one_of(*KIND_STRATEGIES.values()))
    def test_json_and_cli_spec_round_trip(self, schedule):
        # the JSON form's values, in order, spell the CLI spec that rebuilds the schedule
        data = schedule.to_json_dict()
        assert data.pop("kind") == schedule.kind
        if isinstance(schedule, ToySchedule):  # its arguments come from flags
            spec, flags = "toy", tuple(data.values())
        else:
            values = ",".join(repr(v) for v in data.values())
            spec, flags = f"{schedule.kind}:{values}" if values else schedule.kind, (None,) * 3
        assert _parse_schedule_spec(spec, *flags) == schedule

    def test_json_defaults(self):
        # a short spec takes the defaults, and the JSON form writes them out
        constant = _parse_schedule_spec("constant:0.5", None, None, None)
        assert constant == ConstantSchedule(0.5, 0.0)
        assert constant.to_json_dict() == {"kind": "constant", "beta": 0.5, "gamma": 0.0}
        attouch = _parse_schedule_spec("attouch", None, None, None)
        assert attouch == AttouchSchedule(2.0)
        assert attouch.to_json_dict() == {"kind": "attouch", "eta": 2.0}

    @pytest.mark.parametrize(
        "make",
        [
            lambda: AttouchSchedule(NAN),
            lambda: AttouchSchedule(INF),
            lambda: PolyakSchedule(0.01, INF),
            lambda: PolyakSchedule(NAN, 1.0),
            lambda: PolyakSchedule(0.01, NAN),
            lambda: ToySchedule(NAN, 0.01),
            lambda: ToySchedule(0.5, 0.01, NAN),
            lambda: ConstantSchedule(NAN),
        ],
    )
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_range_check_rejects_nan_terms(self):
        schedule = object.__new__(AttouchSchedule)  # skips the constructor's check of eta
        object.__setattr__(schedule, "eta", NAN)
        with pytest.raises(ScheduleError):
            list(schedule.windows(5))
