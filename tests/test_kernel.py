"""Properties of the batched iteration kernel against the serial, full-trace runs."""

import math

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
    divergence_table,
    escape_time,
    first_crossings,
    iterate,
    random_problem,
    rng_from,
    run_accelerated,
    run_heavy_ball,
    sample_unit_ball,
    toy_problem,
)
from saddlescape import optimizers
from saddlescape.optimizers import _NARROW, DIVERGENCE_CUTOFF, GRADIENT_DESCENT, FirstCrossing, Trace, row_norms

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
def setups(draw, batch=1, max_step=2.5, schedule=schedules, n=st.integers(2, 10)):
    """A random diagonal saddle, ``batch`` starts with predecessors, and run parameters.

    Step sizes reach ``max_step``/L; past 2/L the positive curvatures are
    unstable, so some runs stop at the divergence cutoff.  Up to 1500
    iterations, the kernel extends the schedule's terms past its first 1024.
    """
    n = draw(n)
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


# Total state widths (rows x coordinates) below, at, just past and well past the
# widest state the kernel steps in Python floats.
WIDTHS = [1, 2, _NARROW - 1, _NARROW, _NARROW + 1, 6 * _NARROW]


@st.composite
def sized_setups(draw):
    """A setup whose rows of the problem's last ``cols`` coordinates make one of ``WIDTHS`` in all.

    A wide batch whose rows stop one by one narrows into the float body.
    """
    width = draw(st.sampled_from(WIDTHS))
    cols = draw(st.sampled_from([c for c in range(1, 11) if width % c == 0 and width // c <= 20]))
    setup = draw(setups(batch=width // cols, n=st.integers(max(2, cols), 10)))
    setup["curvatures"] = setup["problem"].eigenvalues[-cols:]
    setup["x_prevs"] = predecessors(setup)[:, -cols:]
    setup["starts"] = setup["starts"][:, -cols:]
    return setup


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
        full_norms = row_norms(full.values[: steps + 1, 0][:, mask])
        assert np.array_equal(row_norms(block.values[: steps + 1, 0]), full_norms)


@pytest.mark.parametrize("shape", [(300, 7), (300, 2), (300, 1), (1, 5)])
def test_row_norms_do_not_depend_on_memory_layout(shape):
    # einsum's sum depends on the layout, so the norm sums a C-ordered copy
    x = rng_from(11).standard_normal(shape) * 10.0 ** rng_from(12).uniform(-3, 3, size=shape)
    norms = row_norms(x)
    for view in (np.asfortranarray(x), np.asfortranarray(x.T).T, x[::-1][::-1], np.repeat(x, 2, axis=1)[:, ::2]):
        assert row_norms(view).tobytes() == norms.tobytes()


def test_a_lone_coordinate_norm_is_its_magnitude():
    # its square underflows below about 1.5e-154
    x = np.array([[1e-200], [-3e-170], [0.0], [-2.5]])
    assert row_norms(x).tolist() == [1e-200, 3e-170, 0.0, 2.5]


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


def per_step_run(curvatures, alphas, schedule, starts, x_prevs, iterations, threshold=None):
    """A plain loop over one row at a time that checks the cutoff and the crossing after every step.

    Returns each row's ``(steps, diverged, final, crossing, points)``.
    """
    terms = [None, *(pair for window in schedule.windows(iterations, 1000) for pair in zip(*window))]
    runs = []
    for alpha, x, xp in zip(alphas, starts, x_prevs):
        points, steps, diverged, crossing = [x], iterations, False, -1
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(iterations + 1):
                if k:
                    beta, gamma = terms[k]
                    d = x - xp
                    y = x + gamma * d
                    x, xp = x - alpha * (curvatures * y) + beta * d, x
                    points.append(x)
                over = not np.abs(x).max() <= DIVERGENCE_CUTOFF
                hit = threshold is not None and row_norms(x[None])[0] >= threshold
                if over or hit:
                    steps, diverged, crossing = k, over, k if hit else -1
                    break
        runs.append((steps, diverged, x, crossing, np.array(points)))
    return runs


@PROPERTY
@given(
    sized_setups(),
    st.one_of(st.sampled_from([0, 1, 63, 64, 65, 127, 1023, 1024, 1025, 2049]), st.integers(0, 2100)),
    st.one_of(st.none(), st.floats(0.5, 1e3), st.sampled_from([1e99, 1e100])),
)
def test_blocked_kernel_equals_a_per_step_loop(setup, iterations, threshold):
    # Rows stop mid-block at the cutoff (step sizes up to 2.5/L) or at a crossing,
    # and a threshold at the cutoff, the edge of its domain, crosses where the row diverges.
    curvatures, x_prevs = setup["curvatures"], setup["x_prevs"]
    reducer = Trace() if threshold is None else FirstCrossing(threshold)
    batch = iterate(curvatures, setup["alphas"], setup["schedule"], setup["starts"], x_prevs, iterations, reducer)
    expected = per_step_run(
        curvatures, setup["alphas"], setup["schedule"], setup["starts"], x_prevs, iterations, threshold
    )
    for i, (steps, diverged, final, crossing, points) in enumerate(expected):
        assert batch.steps[i] == steps and batch.diverged[i] == diverged
        assert batch.final[i].tobytes() == final.tobytes()
        if threshold is None:
            assert reducer.values[: steps + 1, i].tobytes() == points.tobytes()
        else:
            assert reducer.crossing[i] == crossing


@pytest.mark.parametrize("n, batch", [(700, 8), (40, 120)])
def test_wide_blocks_equal_a_per_step_loop(n, batch):
    # past 1024 coordinates a block is one step; 40 x 120 rows shrink as rows stop
    problem = random_problem(n, 3, 0.05, 7)
    rng = rng_from(7, 1)
    starts = np.array([sample_unit_ball(n, rng) for _ in range(batch)])
    alphas = rng.uniform(0.5, 2.3, size=batch) / problem.lipschitz
    crossing = FirstCrossing(20.0)
    run = iterate(problem.eigenvalues, alphas, NesterovSchedule(), starts, starts, 300, crossing)
    expected = per_step_run(problem.eigenvalues, alphas, NesterovSchedule(), starts, starts, 300, 20.0)
    assert run.steps.tolist() == [e[0] for e in expected]
    assert run.diverged.tolist() == [e[1] for e in expected]
    assert crossing.crossing.tolist() == [e[3] for e in expected]
    assert run.final.tobytes() == np.array([e[2] for e in expected]).tobytes()
    assert len(set(run.steps.tolist())) > 3


@pytest.mark.parametrize(
    "cols, batch, in_floats", [(1, 1, {True}), (8, 2, {True}), (17, 1, {False}), (6, 16, {False, True})]
)
def test_each_body_and_a_batch_narrowing_into_floats_equal_a_per_step_loop(monkeypatch, cols, batch, in_floats):
    # 1 and 2 x 8 coordinates step in floats and 17 in numpy; 16 rows of 6 step in
    # numpy until rows stop and the rest fit the float body
    problem = random_problem(20, 3, 0.05, 7)
    curvatures = problem.eigenvalues[-cols:]
    rng = rng_from(7, 1)
    starts = np.array([sample_unit_ball(20, rng)[-cols:] for _ in range(batch)])
    alphas = rng.uniform(0.5, 2.3, size=batch) / problem.lipschitz
    narrow = set()  # whether each block stepped was at most _NARROW coordinates
    steps = optimizers._steps
    monkeypatch.setattr(optimizers, "_steps", lambda buf, *a: narrow.add(buf[0].size <= _NARROW) or steps(buf, *a))
    crossing = FirstCrossing(1e50)  # far enough that the last two rows go on for blocks alone
    run = iterate(curvatures, alphas, NesterovSchedule(), starts, starts, 600, crossing)
    expected = per_step_run(curvatures, alphas, NesterovSchedule(), starts, starts, 600, 1e50)
    assert run.steps.tolist() == [e[0] for e in expected]
    assert run.diverged.tolist() == [e[1] for e in expected]
    assert crossing.crossing.tolist() == [e[3] for e in expected]
    assert run.final.tobytes() == np.array([e[2] for e in expected]).tobytes()
    assert narrow == in_floats


class FilledTrace(Trace):
    """A trace whose entries no block wrote hold 0.5, so that two runs' traces compare whole."""

    def start(self, x0, iterations):
        self.values = np.full((iterations + 1, *x0.shape), 0.5)


REDUCERS = {"none": lambda: None, "trace": FilledTrace, "crossing": lambda: FirstCrossing(DIVERGENCE_CUTOFF)}


@pytest.mark.parametrize("schedule", [GRADIENT_DESCENT, ConstantSchedule(0.9, 0.5), NesterovSchedule()])
@pytest.mark.parametrize("reducer", sorted(REDUCERS))
def test_both_bodies_give_the_same_bits(monkeypatch, schedule, reducer):
    # Rows: one that passes the cutoff and overflows to inf and then NaN within that block,
    # -0.0 starts and predecessors, subnormal curvatures, and one past 2/L that diverges later.
    # A crossing threshold at the cutoff marks where the rows diverge.
    curvatures = np.array([[-1e30, 0.5, 0.0], [-0.01, 0.5, 1.0], [5e-324, -5e-324, -1e-310], [-0.3, 3.0, 0.7]])
    starts = np.array([[1.0, 0.5, -0.0], [-0.0, -0.0, 0.0], [0.7, -0.0, 1e-300], [0.2, -0.1, 0.3]])
    x_prevs = np.array([[1.0, 0.5, 0.0], [-0.0, 0.0, -0.0], [0.7, -0.0, -1e-300], [0.19, -0.1, 0.31]])
    alphas = np.array([1.0, 0.9, 0.5, 1.1])
    runs = []
    for narrow in (0, 10**9):  # every block in numpy, then every block in floats
        monkeypatch.setattr(optimizers, "_NARROW", narrow)
        kept = REDUCERS[reducer]()
        run = iterate(curvatures, alphas, schedule, starts, x_prevs, 300, kept)
        reduced = [] if kept is None else list(vars(kept).values())  # the trace, or the threshold and crossings
        runs.append([np.asarray(field).tobytes() for field in (*run, *reduced)])
    assert runs[0] == runs[1]
    assert run.diverged.tolist() == [True, False, False, True]
    if reducer == "trace":
        assert np.isinf(kept.values[:, 0]).any() and np.isnan(kept.values[:, 0]).any()
    if reducer == "crossing":
        assert kept.crossing[[0, 3]].tolist() == run.steps[[0, 3]].tolist()


@pytest.mark.parametrize("threshold", [1e100 * (1 + 2**-52), 1e140, float("inf"), float("nan")])
def test_a_threshold_past_the_cutoff_is_rejected(threshold):
    # Past the cutoff a row could diverge before it crosses; within it, a row
    # crosses at or before its first step past the cutoff.
    with pytest.raises(ValueError, match="threshold must lie in"):
        FirstCrossing(threshold)


def test_a_row_crosses_a_threshold_at_the_cutoff_where_it_diverges():
    # growth of 1e30 per step passes the cutoff at step 4, mid-block; the
    # block's later states overflow, and the row still stops at step 4
    curvatures, starts = np.array([-1e30, 0.0]), np.array([[1.0, 0.0]])
    crossing = FirstCrossing(DIVERGENCE_CUTOFF)
    run = iterate(curvatures, 1.0, GRADIENT_DESCENT, starts, starts, 20, crossing)
    assert (run.steps[0], run.diverged[0], crossing.crossing[0]) == (4, True, 4)
    steps, diverged, _, crossed, _ = per_step_run(curvatures, [1.0], GRADIENT_DESCENT, starts, starts, 20, 1e100)[0]
    assert (steps, diverged, crossed) == (4, True, 4)


class TestStall:
    """A row with ``x == x_prev`` whose gradient step rounds to nothing never moves again."""

    curvatures = np.array([[-1e-300, 0.5], [-0.01, 0.5], [-0.01, 0.5]])
    starts = np.array([[0.6, 0.0], [0.0, 0.0], [0.6, 0.2]])

    def test_first_crossing_stops_a_stalled_row_as_never_crossing(self):
        crossing = FirstCrossing(1.0)
        run = iterate(self.curvatures, 1.0, NesterovSchedule(), self.starts, self.starts, 10**23, crossing)
        assert crossing.crossing[:2].tolist() == [-1, -1]
        assert run.steps[:2].tolist() == [0, 0] and not run.diverged[:2].any()
        assert np.array_equal(run.final[:2], self.starts[:2])
        assert crossing.crossing[2] == run.steps[2] > 0  # the moving row still crosses

    def test_a_row_that_stalls_mid_run_stops_at_the_block_end(self):
        # gradient descent with alpha*h = 1 sends the coordinate to 0 at step 1
        crossing = FirstCrossing(1.0)
        run = iterate(np.array([1.0]), 1.0, GRADIENT_DESCENT, np.array([[0.5]]), np.array([[0.5]]), 10**6, crossing)
        assert crossing.crossing[0] == -1 and run.steps[0] == 64 and run.final[0, 0] == 0.0

    @pytest.mark.parametrize("reducer", [None, Trace()])
    def test_other_reducers_run_every_step(self, reducer):
        run = iterate(self.curvatures, 1.0, NesterovSchedule(), self.starts, self.starts, 300, reducer)
        assert run.steps.tolist() == [300, 300, 300]
        assert np.array_equal(run.final[:2], self.starts[:2])


def kernel_descent_crossings(curvatures, step_sizes, starts, threshold, cap):
    crossing = FirstCrossing(threshold)
    iterate(curvatures, step_sizes, GRADIENT_DESCENT, starts, starts, cap, crossing)
    return crossing.crossing


@PROPERTY
@given(
    st.integers(0, 2**16), st.floats(1e-3, 5e-2), st.floats(0.3, 1.0), st.floats(0.05, 50.0), st.integers(0, 3000)
)
def test_descent_closed_form_within_one_step_of_the_kernel(seed, delta, step, threshold, cap):
    # The table counts steepest descent from x0 * (1 + alpha|h|)^k.  It and the
    # iterated recurrence round differently, so a norm that lands within
    # rounding of the threshold may cross one step apart; no more is allowed.
    # A row that never crosses counts as crossing one step past the cap.
    rng = rng_from(seed, 1)
    curvatures = rng.uniform(-2 * delta, -delta, size=(8, 5))
    starts = np.array([sample_unit_ball(5, rng) for _ in range(8)])
    starts[rng.random(starts.shape) < 0.2] = 0.0
    step_sizes = step * rng.uniform(0.5, 1.0, size=8)
    counts = [
        np.where(k < 0, cap + 1, k)
        for k in (
            first_crossings(1.0 + step_sizes[:, None] * np.abs(curvatures), starts, threshold, cap),
            kernel_descent_crossings(curvatures, step_sizes, starts, threshold, cap),
        )
    ]
    assert np.abs(counts[0] - counts[1]).max() <= 1


def test_table_descent_column_equals_the_kernel_on_the_seed_0_cells():
    result = divergence_table(ns=[100], deltas=[1e-2, 1e-3], trials=100, seed=0)
    for cell, delta in enumerate((1e-2, 1e-3)):
        curvatures, starts, lipschitz = [], [], []
        for trial in range(100):
            rng = rng_from(0, cell, trial)
            problem = random_problem(100, 5, delta, rng)
            mask = problem.eigenvalues < 0
            curvatures.append(problem.eigenvalues[mask])
            starts.append(sample_unit_ball(100, rng)[mask])
            lipschitz.append(problem.lipschitz)
        step_sizes = 1 / np.array(lipschitz)
        expected = kernel_descent_crossings(np.array(curvatures), step_sizes, np.array(starts), 100.0, 10**6)
        assert [rec.steepest_descent for rec in result.trials if rec.delta == delta] == expected.tolist()


def test_descent_closed_form_edge_cases():
    # a zero start, a start past the threshold, a tiny start (the first probe,
    # at 2**63 - 2 steps, overflows the power), and a step too small to change a float
    growth = 1.0 + np.array([[0.01, 0.01], [0.01, 0.01], [0.01, 0.01], [1e-20, 1e-20]])
    starts = np.array([[0.0, 0.0], [0.0, 3.0], [1e-300, 0.0], [0.5, 0.5]])
    counts = first_crossings(growth, starts, 2.0, 10**23)
    assert counts[[0, 1, 3]].tolist() == [-1, 0, -1]
    assert abs(counts[2] - math.log(2e300) / math.log(1.01)) <= 1
    assert first_crossings(growth, starts, 2.0, 0).tolist() == [-1, 0, -1, -1]
    assert first_crossings(growth, starts, 2.0, 1000).tolist() == [-1, 0, -1, -1]


@pytest.mark.parametrize("iterations", [0, 1, 1024, 1025, 2500])
def test_schedule_terms_extended_past_1024_match_one_array(iterations):
    # the kernel pulls the schedule's terms in windows of 1024; the run must
    # equal the recurrence driven by one array of all the terms
    lam = np.array([-1e-4, 0.5])
    x = xp = np.array([0.3, 0.2])
    batch = iterate(lam, 0.9, NesterovSchedule(), x[None], xp[None], iterations)
    for window in NesterovSchedule().windows(iterations, iterations + 1):  # every term in one window
        for beta, gamma in zip(*window):
            d = x - xp
            xp, x = x, x - 0.9 * (lam * (x + gamma * d)) + beta * d
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
