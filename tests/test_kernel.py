"""Properties of the batched iteration kernel against the serial, full-trace runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlescape import (
    AttouchSchedule,
    ConstantSchedule,
    EqualStart,
    NesterovSchedule,
    PerturbedStart,
    escape_time,
    iterate,
    params_array,
    random_problem,
    rng_from,
    run_accelerated,
    sample_unit_ball,
    toy_problem,
)
from saddlescape.optimizers import GRADIENT_DESCENT, FirstCrossing, Trace

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

schedules = st.one_of(
    st.just(GRADIENT_DESCENT),
    st.builds(ConstantSchedule, st.floats(0.0, 0.99), st.floats(0.0, 1.0)),
    st.just(NesterovSchedule()),
    st.builds(AttouchSchedule, st.floats(0.0, 5.0)),
)
# With gamma <= beta and alpha <= 1/L, every positive curvature's iteration
# map is a contraction: runs can only grow along the negative block.
stable_schedules = st.one_of(
    st.just(GRADIENT_DESCENT),
    st.floats(0.0, 0.99).flatmap(lambda beta: st.builds(ConstantSchedule, st.just(beta), st.floats(0.0, beta))),
    st.just(NesterovSchedule()),
    st.builds(AttouchSchedule, st.floats(0.0, 5.0)),
)


@st.composite
def setups(draw, batch=1, max_step=2.5, schedule=schedules):
    """A random diagonal saddle, ``batch`` starts with predecessors, and run parameters.

    Step sizes reach ``max_step``/L; past 2/L the positive curvatures are
    unstable, so some runs stop at the divergence cutoff.  Up to 1500
    iterations, the kernel extends the schedule's terms past its first 1024.
    """
    n = draw(st.integers(2, 10))
    p = draw(st.integers(1, n - 1))
    delta = draw(st.floats(1e-3, 0.3))
    seed = draw(st.integers(0, 2**16))
    problem = random_problem(n, p, delta, seed)
    rng = rng_from(seed, 1)
    starts = np.array([sample_unit_ball(n, rng) for _ in range(batch)])
    policies = [
        draw(st.sampled_from([EqualStart(), PerturbedStart(1e-3, seed=seed + i)])) for i in range(batch)
    ]
    alphas = np.array([draw(st.floats(0.1, max_step)) for _ in range(batch)]) / problem.lipschitz
    return {
        "problem": problem,
        "starts": starts,
        "policies": policies,
        "alphas": alphas,
        "schedule": draw(schedule),
        "iterations": draw(st.integers(0, 1500)),
    }


def predecessors(setup):
    return np.array([pol.resolve(x0) for pol, x0 in zip(setup["policies"], setup["starts"])])


def run_batch(setup, reducer=None):
    problem = setup["problem"]
    return iterate(
        lambda y, rows: problem.gradient(y),
        setup["alphas"],
        setup["schedule"],
        setup["starts"],
        predecessors(setup),
        setup["iterations"],
        reducer,
    )


def serial_traces(setup):
    return [
        run_accelerated(setup["problem"], alpha, setup["schedule"], x0, policy, setup["iterations"])
        for alpha, x0, policy in zip(setup["alphas"], setup["starts"], setup["policies"])
    ]


@PROPERTY
@given(setups(batch=4))
def test_batched_rows_equal_serial_runs(setup):
    batch = run_batch(setup)
    for i, trace in enumerate(serial_traces(setup)):
        assert batch.steps[i] == trace.steps
        assert batch.diverged[i] == trace.diverged
        assert np.array_equal(batch.final[i], trace.final)


@PROPERTY
@given(setups(batch=4, max_step=1.0, schedule=stable_schedules), st.floats(0.2, 20.0))
def test_first_crossing_equals_escape_time_on_full_trace(setup, threshold):
    # As the table runs it: only the negative block is iterated, and its
    # first crossing must be the full run's escape time.
    problem = setup["problem"]
    mask = problem.eigenvalues < 0
    crossing = FirstCrossing(threshold)
    batch = iterate(
        lambda y, rows: problem.eigenvalues[mask] * y,
        setup["alphas"],
        setup["schedule"],
        setup["starts"][:, mask],
        predecessors(setup)[:, mask],
        setup["iterations"],
        crossing,
    )
    for i, trace in enumerate(serial_traces(setup)):
        expected = escape_time(trace, problem.negative_projector(), threshold)
        assert not trace.diverged or expected is not None
        assert crossing.crossing[i] == (-1 if expected is None else expected)
        assert batch.steps[i] == (setup["iterations"] if expected is None else expected)


@PROPERTY
@given(setups(batch=3))
def test_projection_norms_equal_full_trace_norms(setup):
    mask = setup["problem"].eigenvalues < 0
    projection = Trace(mask)
    batch = run_batch(setup, projection)
    for i, trace in enumerate(serial_traces(setup)):
        norms = projection.norms(i, batch.steps[i])
        assert np.array_equal(norms, np.linalg.norm(trace.points[:, mask], axis=1))


def test_projection_covers_diverged_runs():
    # alpha = 2.5 makes the positive curvature's factor -1.5: the run diverges
    prob = toy_problem(0.1)
    x0 = np.array([0.3, 0.2])
    trace = run_accelerated(prob, 2.5, GRADIENT_DESCENT, x0, EqualStart(), 1000)
    assert trace.diverged and trace.steps < 1000
    mask = prob.eigenvalues < 0
    projection = Trace(mask)
    batch = iterate(
        lambda y, rows: prob.gradient(y), 2.5, GRADIENT_DESCENT,
        x0[None], x0[None], 1000, projection,
    )
    assert batch.diverged[0] and batch.steps[0] == trace.steps
    norms = projection.norms(0, trace.steps)
    assert np.array_equal(norms, np.linalg.norm(trace.points[:, mask], axis=1))


@pytest.mark.parametrize("iterations", [0, 1, 1024, 1025, 2500])
def test_schedule_terms_extended_past_1024_match_one_array(iterations):
    # the kernel builds the schedule's terms 1024 at a time and doubles them;
    # the run must equal the recurrence driven by one array of all the terms
    lam = np.array([-1e-4, 0.5])
    x = xp = np.array([0.3, 0.2])
    batch = iterate(lambda y, rows: lam * y, 0.9, NesterovSchedule(), x[None], xp[None], iterations)
    betas, gammas = params_array(NesterovSchedule(), iterations)
    for k in range(1, iterations + 1):
        d = x - xp
        xp, x = x, x - 0.9 * (lam * (x + gammas[k] * d)) + betas[k] * d
    assert batch.steps[0] == iterations and not batch.diverged[0]
    assert np.array_equal(batch.final[0], x)


class TestKernelDomain:
    def call(self, alpha=0.5, iterations=5, starts=np.zeros((2, 2))):
        prob = toy_problem(0.1)
        return iterate(
            lambda y, rows: prob.gradient(y), alpha, GRADIENT_DESCENT,
            starts, starts, iterations,
        )

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf"), np.array([0.5, np.nan])])
    def test_step_size_must_be_positive_and_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            self.call(alpha=alpha)

    def test_iterations_nonnegative(self):
        with pytest.raises(ValueError):
            self.call(iterations=-1)

    def test_batch_shape(self):
        with pytest.raises(ValueError):
            self.call(starts=np.zeros(2))
        with pytest.raises(ValueError):
            self.call(starts=np.zeros((0, 2)))
        with pytest.raises(ValueError):
            self.call(alpha=np.array([0.5, 0.5, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_starts_and_predecessors_must_be_finite(self, bad):
        prob = toy_problem(0.1)
        good = np.zeros((2, 2))
        broken = good.copy()
        broken[1, 0] = bad
        for starts, predecessors in ((broken, good), (good, broken)):
            with pytest.raises(ValueError, match="finite"):
                iterate(lambda y, rows: prob.gradient(y), 0.5, GRADIENT_DESCENT, starts, predecessors, 5)

    def test_threshold_positive(self):
        for threshold in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                FirstCrossing(threshold)
