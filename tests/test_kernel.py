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
    run_heavy_ball,
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
    return iterate(
        setup["problem"].eigenvalues,
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
        problem.eigenvalues[mask],
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
@given(
    st.integers(2, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    st.floats(1e-3, 0.5),
    st.integers(0, 2**16),
    st.sampled_from([None, 1e-6, 1e-2]),
    st.integers(0, 2000),
)
def test_negative_block_run_equals_full_width_run(shape, delta, seed, epsilon, iterations):
    # negspace_experiment iterates only the negative block: with its step
    # sizes and schedules the positive coordinates contract, so the full run
    # gives the same projection norms and stops at the cutoff at the same step.
    n, p = shape
    problem = random_problem(n, p, delta, seed)
    eigenvalues, mask = problem.eigenvalues, problem.eigenvalues < 0
    x0 = sample_unit_ball(n, rng_from(seed, 1))
    policy = EqualStart() if epsilon is None else PerturbedStart(epsilon, seed)
    alpha = 1.0 / problem.lipschitz
    runs = [
        (alpha, GRADIENT_DESCENT, EqualStart()),
        (alpha, ConstantSchedule(1.0 - alpha * abs(eigenvalues[-1]), 0.0), policy),
        (0.99 / problem.lipschitz, NesterovSchedule(), policy),
    ]
    for step_size, schedule, start_policy in runs:
        x_prev = start_policy.resolve(x0)
        full, block = Trace(), Trace()
        full_run = iterate(eigenvalues, step_size, schedule, x0[None], x_prev[None], iterations, full)
        block_run = iterate(
            eigenvalues[mask], step_size, schedule, x0[mask][None], x_prev[mask][None], iterations, block
        )
        steps = block_run.steps[0]
        assert full_run.steps[0] == steps and full_run.diverged[0] == block_run.diverged[0]
        full_norms = np.linalg.norm(full.values[: steps + 1, 0][:, mask], axis=1)
        assert np.array_equal(block.norms(0, steps), full_norms)


@PROPERTY
@given(setups(max_step=1.0, schedule=stable_schedules), st.integers(0, 2**16))
def test_rotated_runs_equal_diagonal_runs_mapped_through_the_basis(setup, basis_seed):
    # A rotated problem runs in eigen-coordinates.  The runs stay far below
    # the cutoff, where a rounding difference could stop them a step apart,
    # and start at rest, since a perturbation is drawn in the given basis.
    diagonal = setup["problem"]
    rotated = diagonal.rotated(basis_seed)
    v = rotated.basis
    alpha, z0 = setup["alphas"][0], setup["starts"][0]
    iterations = min(setup["iterations"], 100)
    runs = [
        lambda prob, x0: run_accelerated(prob, alpha, setup["schedule"], x0, EqualStart(), iterations),
        lambda prob, x0: run_heavy_ball(prob, alpha, 0.5, x0, EqualStart(), iterations),
    ]
    for run in runs:
        trace_diag, trace_rot = run(diagonal, z0), run(rotated, v @ z0)
        assert not trace_diag.diverged and not trace_rot.diverged
        assert trace_rot.steps == trace_diag.steps == iterations
        expected = trace_diag.points @ v.T
        scale = np.abs(expected).max(axis=1, keepdims=True) + 1e-300
        assert np.max(np.abs(trace_rot.points - expected) / scale) < 1e-10


@pytest.mark.parametrize("iterations", [0, 1, 1024, 1025, 2500])
def test_schedule_terms_extended_past_1024_match_one_array(iterations):
    # the kernel builds the schedule's terms 1024 at a time and doubles them;
    # the run must equal the recurrence driven by one array of all the terms
    lam = np.array([-1e-4, 0.5])
    x = xp = np.array([0.3, 0.2])
    batch = iterate(lam, 0.9, NesterovSchedule(), x[None], xp[None], iterations)
    betas, gammas = params_array(NesterovSchedule(), iterations)
    for k in range(1, iterations + 1):
        d = x - xp
        xp, x = x, x - 0.9 * (lam * (x + gammas[k] * d)) + betas[k] * d
    assert batch.steps[0] == iterations and not batch.diverged[0]
    assert np.array_equal(batch.final[0], x)


class TestKernelDomain:
    def call(self, alpha=0.5, iterations=5, starts=np.zeros((2, 2)), curvatures=toy_problem(0.1).eigenvalues):
        return iterate(curvatures, alpha, GRADIENT_DESCENT, starts, starts, iterations)

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
                iterate(prob.eigenvalues, 0.5, GRADIENT_DESCENT, starts, predecessors, 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_curvatures_must_be_finite(self, bad):
        for curvatures in (np.array([1.0, bad]), np.array([[1.0, -0.1], [bad, -0.1]])):
            with pytest.raises(ValueError, match="curvatures must be finite"):
                self.call(curvatures=curvatures)

    @pytest.mark.parametrize("shape", [(3,), (1,), (2, 1), (3, 2), (1, 2, 2), ()])
    def test_curvatures_must_fit_the_state(self, shape):
        # the (2, 2) state takes one row of 2 curvatures or one row per start
        with pytest.raises(ValueError, match="curvatures must be one row"):
            self.call(curvatures=np.ones(shape))

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (2, 2)])
    def test_curvature_rows_broadcast(self, shape):
        starts = np.array([[0.5, 0.1], [0.2, 0.3]])
        batch = iterate(np.full(shape, 0.5), 0.5, GRADIENT_DESCENT, starts, starts, 3)
        assert np.array_equal(batch.final, starts * 0.75**3)

    def test_threshold_positive(self):
        for threshold in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                FirstCrossing(threshold)
