"""Gradient descent, heavy-ball, and the general accelerated framework.

All three methods run the same two-term recurrence

    y^k     = x^k + gamma_k (x^k - x^{k-1})
    x^{k+1} = x^k - alpha * grad f(y^k) + beta_k (x^k - x^{k-1})

with gradient descent as (beta, gamma) = (0, 0) and heavy-ball as
(beta, 0).  One kernel, :func:`iterate`, runs it over a batch of starts on a
quadratic in its Hessian's eigenbasis, where ``grad f(y) = h * y`` for the
diagonal curvatures ``h``.  It runs blocks of steps and hands each block of
iterates to a reducer at once: :class:`Trace` keeps all of them, and
:class:`FirstCrossing` only the step at which the state's norm reaches a
threshold.  The divergence cutoff is checked once per block too.  One step
function fills a block, with two bodies chosen per block by the state's
size: a narrow state steps in Python floats, a wide one in numpy ufuncs.
Both apply the same double operations in the same order and neither fuses
a multiply and an add, so their bits agree.
:func:`row_norms` is the one norm every run's iterates are read by.
Traces index iterates by the number of update steps applied: ``points[0]``
is the starting point and ``points[k]`` the k-th iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .problems import QuadraticProblem, _positive, rng_from
from .schedules import _CHUNK, ConstantSchedule, MomentumSchedule

# The reducers Trace and FirstCrossing are called once per block of steps from
# inside iterate; they are importable from here but not part of the exported surface.
__all__ = [
    "DIVERGENCE_CUTOFF",
    "MAX_TRACE_VALUES",
    "EqualStart",
    "PerturbedStart",
    "StartPolicy",
    "IterationTrace",
    "BatchRun",
    "iterate",
    "run_gradient_descent",
    "run_heavy_ball",
    "run_accelerated",
    "escape_time",
    "row_norms",
]

# The objectives of interest are unbounded below, so runaway iterates are an
# expected, well-defined outcome rather than an error: a run stops and is
# flagged as diverged once any coordinate magnitude passes this cutoff.
DIVERGENCE_CUTOFF = 1e100
GRADIENT_DESCENT = ConstantSchedule(0.0, 0.0)
# The most values a :class:`Trace` stores, 32 MB of float64 (``toy`` holds two runs; JSON streams from them): a
# longer run fails at once with one error line, where a trace grown without a bound would fill memory.
MAX_TRACE_VALUES = 4 * 10**6
# Steps :func:`iterate` runs between checks of the cutoff and the reducer, and
# the coordinates a block holds at most, which bounds its buffer (at 4096 the
# table's 500-coordinate batches raised its peak RSS by about 0.1 MiB).
_BLOCK_STEPS = 64
_BLOCK_COORDS = 1024
# States of at most this many coordinates step in Python floats (see :func:`_steps`).
# On a 2-vCPU x86-64 host (CPython 3.11, numpy 2.4) that body ran 3.2x numpy's
# coordinate-steps per second at 1 coordinate, 1.1x at 16, tied at 20, lost from 24.
_NARROW = 16


@dataclass(frozen=True)
class EqualStart:
    """Use the starting point itself as the momentum predecessor."""

    def resolve(self, x0: np.ndarray) -> np.ndarray:
        return np.array(x0, dtype=float)


@dataclass(frozen=True)
class PerturbedStart:
    """Momentum predecessor ``x0 + epsilon * y`` with ``y`` i.i.d. standard normal."""

    epsilon: float
    seed: int = 0

    def __post_init__(self) -> None:
        _positive("epsilon", self.epsilon)

    def resolve(self, x0: np.ndarray) -> np.ndarray:
        x0 = np.asarray(x0, dtype=float)
        noise = rng_from(self.seed, 1).standard_normal(x0.size)
        with np.errstate(over="ignore"):  # an overflowing predecessor is rejected by iterate, with one line
            return x0 + self.epsilon * noise


StartPolicy = EqualStart | PerturbedStart


@dataclass(frozen=True)
class IterationTrace:
    """History of one optimizer run.

    ``points[k]`` is the iterate after ``k`` update steps (``points[0]`` is
    the start).  On a diagonal quadratic, column ``i`` of ``points`` is the
    per-coordinate series for eigenvalue ``i``.  ``diverged`` is set when
    the run stopped early at the divergence cutoff, in which case ``points``
    is truncated at the offending iterate.
    """

    points: np.ndarray
    diverged: bool

    @property
    def steps(self) -> int:
        return self.points.shape[0] - 1

    @property
    def final(self) -> np.ndarray:
        return self.points[-1]


class BatchRun(NamedTuple):
    """Per row of a batch: update steps taken, whether the run stopped at the cutoff, last iterate."""

    steps: np.ndarray
    diverged: np.ndarray
    final: np.ndarray


class Trace:
    """Reducer storing every iterate.

    Row ``i`` of a run that took ``steps`` steps is ``values[: steps + 1, i]``.
    """

    def start(self, x0: np.ndarray, iterations: int) -> None:
        if (size := (iterations + 1) * x0.size) > MAX_TRACE_VALUES:
            raise ValueError(f"a stored trace holds at most {MAX_TRACE_VALUES} values, got {size}")
        self.values = np.empty((iterations + 1, *x0.shape))

    def block(self, k: int, states: np.ndarray, rows: np.ndarray) -> None:
        self.values[k : k + len(states), rows] = states


class FirstCrossing:
    """Reducer stopping each row at its first step with ``||x|| >= threshold``, step 0 included.

    ``crossing[i]`` is that step for row ``i``, or -1 if the row never got there.  ``threshold`` is at most the cutoff.
    """

    def __init__(self, threshold: float):
        if not 0 < threshold <= DIVERGENCE_CUTOFF:
            raise ValueError(f"threshold must lie in (0, {DIVERGENCE_CUTOFF:g}], got {threshold!r}")
        self.threshold = threshold

    def start(self, x0: np.ndarray, iterations: int) -> None:
        self.crossing = np.full(x0.shape[0], -1)

    def block(self, k: int, states: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # A row's first hit comes by its first step past the cutoff, whose norm is inf or past the
        # threshold, so the states a row computes after it stopped are never read.
        hit = (row_norms(states.reshape(-1, states.shape[2])) >= self.threshold).reshape(states.shape[:2])
        crossed = hit.any(axis=0)
        self.crossing[rows[crossed]] = k + hit.argmax(axis=0)[crossed]
        return hit


def iterate(
    curvatures,
    alpha,
    schedule: MomentumSchedule,
    x0: np.ndarray,
    x_prev: np.ndarray,
    iterations: int,
    reducer: Trace | FirstCrossing | None = None,
) -> BatchRun:
    """Run the recurrence from every row of the ``(batch, n)`` array ``x0`` at once.

    ``x_prev`` holds the rows' momentum predecessors and ``alpha`` one step
    size or one per row.  ``curvatures`` is the Hessian's diagonal, one row
    of ``n`` for every start or one per start, so the gradient at ``y`` is
    ``curvatures * y``.  Every start and predecessor coordinate must be at
    most ``DIVERGENCE_CUTOFF`` in magnitude.

    The steps run in blocks of at most ``_BLOCK_STEPS``.  The reducer sees
    the start, then each block of iterates of the active rows, as
    ``reducer.block(k, states, rows)`` with ``states[j]`` iterate ``k + j``.
    A row leaves the active set at the first step where a coordinate is
    non-finite or past the cutoff, or that ``reducer.block`` marks.  Under a
    reducer that marks steps, a row also stops at a block's end once it is a
    fixed point of every later step (``x == x_prev`` and ``x - alpha * (h *
    x) == x``): no later step can mark it.
    """
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    step_sizes = np.asarray(alpha, dtype=float)
    if not (np.all(step_sizes > 0) and np.all(np.isfinite(step_sizes))):
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    x = np.array(x0, dtype=float)
    xp = np.array(x_prev, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0 or xp.shape != x.shape:
        raise ValueError("starts and predecessors must be nonempty (batch, n) arrays of one shape")
    # A run stops at the cutoff, so a pair already past it has diverged before
    # the first step (and its norms overflow).
    if not (np.abs(x).max() <= DIVERGENCE_CUTOFF and np.abs(xp).max() <= DIVERGENCE_CUTOFF):
        raise ValueError(f"starts and predecessors must be finite and at most {DIVERGENCE_CUTOFF:g} in magnitude")
    h = np.asarray(curvatures, dtype=float)
    if h.shape not in (x.shape[1:], (1, x.shape[1]), x.shape):
        raise ValueError(f"curvatures must be one row of {x.shape[1]} or one per start, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("curvatures must be finite")
    h = np.broadcast_to(h, x.shape)
    a = np.broadcast_to(step_sizes, x.shape[:1])[:, None]  # raises unless one step size or one per row
    result = BatchRun(np.zeros(x.shape[0], dtype=int), np.zeros(x.shape[0], dtype=bool), np.empty_like(x))
    rows = np.arange(x.shape[0])
    windows = schedule.windows(iterations)  # betas[k % _CHUNK] is beta_{k+1}
    if reducer is not None:
        reducer.start(x, iterations)

    def settle(k, states, over):
        """Record the rows that stop among ``states``, iterates ``k, k + 1, ...``; return the rows that go on.

        ``over`` marks the states past the cutoff, or is None when none is.
        """
        hit = None if reducer is None else reducer.block(k, states, rows)
        stop = hit if over is None else over if hit is None else over | hit
        if hit is not None and (fixed := (x == xp).all(axis=1)).any():
            # A fixed point of every later step stops at the block's last state.  ``stop`` may be
            # ``hit`` itself, which is safe to update: the reducer recorded its crossings before returning it.
            stop[-1] |= fixed & (x - a * (h * x) == x).all(axis=1)
        if stop is None or not (stopped := stop.any(axis=0)).any():
            return None
        out = np.flatnonzero(stopped)
        at = stop.argmax(axis=0)[out]  # each stopped row's first marked state
        result.steps[rows[out]], result.final[rows[out]] = k + at, states[at, out]
        if over is not None:
            result.diverged[rows[out]] = over[at, out]
        return ~stopped

    with np.errstate(over="ignore", invalid="ignore"):
        k, buf = 0, None  # x is iterate k
        go_on = settle(0, x[None], None)
        while True:
            if go_on is not None:
                rows, x, xp, a, h = rows[go_on], x[go_on], xp[go_on], a[go_on], h[go_on]
                buf = slots = states = None  # the block is freed before a narrower one is allocated
            if rows.size == 0 or k == iterations:
                break
            if buf is None:  # slots 0 and 1 hold the predecessor and the state; a block's steps fill the rest
                size = min(_BLOCK_STEPS, max(1, _BLOCK_COORDS // x.size))
                buf = np.empty((size + 2, *x.shape))
                buf[0], buf[1] = xp, x
                slots = list(buf)
                d, u, v = np.empty((3, *x.shape))
            if (j := k % _CHUNK) == 0:
                betas, gammas = next(windows)
            m = min(size, betas.size - j)
            _steps(buf, slots, betas[j : j + m].tolist(), gammas[j : j + m].tolist(), h, a, d, u, v)
            states, over = buf[2 : m + 2], None
            # Two whole-block reductions, with no temporary; steps are told
            # apart only once some coordinate is past the cutoff (or NaN).
            if not (states.max() <= DIVERGENCE_CUTOFF and states.min() >= -DIVERGENCE_CUTOFF):
                over = ~(np.abs(states).max(axis=2) <= DIVERGENCE_CUTOFF)
            xp, x = buf[m], buf[m + 1]
            go_on = settle(k + 1, states, over)
            k += m
            buf[:2] = buf[m : m + 2]  # the last two iterates carry over into slots 0 and 1
            xp, x = buf[0], buf[1]
    if rows.size:  # rows that ran all ``iterations`` steps
        result.steps[rows], result.final[rows] = iterations, x
    return result


def _steps(buf, slots, betas, gammas, h, a, d, u, v) -> None:
    """Fill ``buf[2 : len(betas) + 2]`` with the iterates after ``buf[1]``, whose predecessor is ``buf[0]``.

    Each step is ``d = x - xp; y = x + d*gamma; (x - a*(h*y)) + d*beta``,
    operation for operation.  It has two bodies, chosen by the state's size.
    A state of at most ``_NARROW`` coordinates steps in Python floats and the
    block is written at once.  A wider one steps in numpy ufuncs through the
    views ``slots`` of ``buf`` and the scratch arrays ``d``, ``u`` and ``v``,
    with no output aliasing an input of its operation, which numpy runs
    slower.  Both apply the same IEEE-754 double operations in the same
    order, and neither contracts a multiply and an add into one rounding, so
    their bits agree, overflow to inf and NaN included.
    """
    if h.size <= _NARROW:
        xp, x, hs = buf[0].ravel().tolist(), buf[1].ravel().tolist(), h.ravel().tolist()
        alphas, block = np.broadcast_to(a, h.shape).ravel().tolist(), []
        for beta, gamma in zip(betas, gammas):
            x_next = []  # a loop, not a comprehension, which CPython 3.11 runs as a call
            for pi, xi, hi, ai in zip(xp, x, hs, alphas):
                di = xi - pi
                x_next.append((xi - ai * (hi * (xi + di * gamma))) + di * beta)
            xp, x = x, x_next
            block.append(x)
        buf[2 : len(block) + 2].reshape(len(block), -1)[...] = block
        return
    add, subtract, multiply = np.add, np.subtract, np.multiply
    for x_prev, x, x_next, beta, gamma in zip(slots, slots[1:], slots[2:], betas, gammas):
        subtract(x, x_prev, d)
        multiply(d, gamma, u)
        add(x, u, v)  # y
        multiply(h, v, u)
        multiply(a, u, v)  # a*(h*y)
        subtract(x, v, u)
        multiply(d, beta, v)
        add(u, v, x_next)


def run_gradient_descent(
    problem: QuadraticProblem, alpha: float, x0: np.ndarray, iterations: int
) -> IterationTrace:
    """Run ``x^{k+1} = x^k - alpha * grad f(x^k)`` for ``iterations`` steps.

    On a diagonal quadratic, coordinate ``i`` of ``points[k]`` equals
    ``(1 - alpha * lambda_i)^k`` times its starting value.
    """
    return run_accelerated(problem, alpha, GRADIENT_DESCENT, x0, EqualStart(), iterations)


def run_heavy_ball(
    problem: QuadraticProblem,
    alpha: float,
    beta: float,
    x0: np.ndarray,
    start_policy: StartPolicy = EqualStart(),
    iterations: int = 100,
) -> IterationTrace:
    """Run the heavy-ball method ``x^{k+1} = x^k - alpha*grad f(x^k) + beta*(x^k - x^{k-1})``."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta!r}")
    return run_accelerated(problem, alpha, ConstantSchedule(beta, 0.0), x0, start_policy, iterations)


def run_accelerated(
    problem: QuadraticProblem,
    alpha: float,
    schedule: MomentumSchedule,
    x0: np.ndarray,
    start_policy: StartPolicy = EqualStart(),
    iterations: int = 100,
) -> IterationTrace:
    """Run the general accelerated framework under the given momentum schedule.

    A rotated problem runs in its eigen-coordinates ``x @ basis``, and the
    trace is mapped back, so the divergence cutoff applies to those
    coordinates.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size != problem.n:
        raise ValueError(f"starting point must have dimension {problem.n}")
    x_prev = start_policy.resolve(x0)
    basis = problem.basis
    z0, z_prev = (x0, x_prev) if basis is None else (x0 @ basis, x_prev @ basis)
    trace = Trace()
    batch = iterate(problem.eigenvalues, alpha, schedule, z0[None], z_prev[None], iterations, trace)
    points = trace.values[: batch.steps[0] + 1, 0]
    return IterationTrace(points if basis is None else points @ basis.T, bool(batch.diverged[0]))


def escape_time(trace: IterationTrace, subspace_projector: np.ndarray, threshold: float) -> int | None:
    """First step index ``k`` with ``||P x^k|| >= threshold``, or None if never reached."""
    _positive("threshold", threshold)
    projector = np.atleast_2d(subspace_projector)
    # only the coordinates the projector reads: one that overflowed outside them would turn 0 * inf into NaN
    rows, cols = np.flatnonzero(projector.any(axis=1)), np.flatnonzero(projector.any(axis=0))
    hits = np.flatnonzero(row_norms(trace.points[:, cols] @ projector[np.ix_(rows, cols)].T) >= threshold)
    return int(hits[0]) if hits.size else None


def row_norms(x: np.ndarray) -> np.ndarray:
    """Each row's Euclidean norm: a one-column row's magnitude (whose square underflows), else the root of
    its squares summed by ``einsum`` in C order, since that sum depends on the layout (C blocks are not copied)."""
    if x.shape[1] == 1:
        return np.abs(x[:, 0])
    x = np.ascontiguousarray(x)
    return np.sqrt(np.einsum("ij,ij->i", x, x))
