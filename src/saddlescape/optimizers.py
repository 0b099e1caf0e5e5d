"""Gradient descent, heavy-ball, and the general accelerated framework.

All three methods run the same two-term recurrence

    y^k     = x^k + gamma_k (x^k - x^{k-1})
    x^{k+1} = x^k - alpha * grad f(y^k) + beta_k (x^k - x^{k-1})

with gradient descent as (beta, gamma) = (0, 0) and heavy-ball as
(beta, 0).  One kernel, :func:`iterate`, runs it over a batch of starts on a
quadratic in its Hessian's eigenbasis, where ``grad f(y) = h * y`` for the
diagonal curvatures ``h``, and hands every iterate to a reducer:
:class:`Trace` keeps all of them, and :class:`FirstCrossing` only the step at
which the state's norm reaches a threshold.
Traces index iterates by the number of update steps applied: ``points[0]``
is the starting point and ``points[k]`` the k-th iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .problems import QuadraticProblem
from .schedules import ConstantSchedule, MomentumSchedule, params_array
from .seeding import rng_from

# The reducers Trace and FirstCrossing are called once per step from inside
# iterate; they are importable from here but not part of the exported surface.
__all__ = [
    "DIVERGENCE_CUTOFF",
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
]

# The objectives of interest are unbounded below, so runaway iterates are an
# expected, well-defined outcome rather than an error: a run stops and is
# flagged as diverged once any coordinate magnitude passes this cutoff.
DIVERGENCE_CUTOFF = 1e100
GRADIENT_DESCENT = ConstantSchedule(0.0, 0.0)


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
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")

    def resolve(self, x0: np.ndarray) -> np.ndarray:
        x0 = np.asarray(x0, dtype=float)
        noise = rng_from(self.seed, 1).standard_normal(x0.size)
        return x0 + self.epsilon * noise


StartPolicy = EqualStart | PerturbedStart


@dataclass(frozen=True)
class IterationTrace:
    """History of one optimizer run.

    ``points[k]`` is the iterate after ``k`` update steps (``points[0]`` is
    the start).  On a diagonal quadratic, column ``i`` of ``points`` is the
    per-coordinate series for eigenvalue ``i``.  ``predecessor`` records the
    momentum predecessor used for the first step.  ``diverged`` is set when
    the run stopped early at the divergence cutoff, in which case ``points``
    is truncated at the offending iterate.
    """

    points: np.ndarray
    predecessor: np.ndarray
    diverged: bool

    @property
    def steps(self) -> int:
        return self.points.shape[0] - 1

    @property
    def final(self) -> np.ndarray:
        return self.points[-1]

    def coordinate(self, i: int) -> np.ndarray:
        return self.points[:, i]

    def projection_norms(self, projector: np.ndarray) -> np.ndarray:
        projector = np.atleast_2d(np.asarray(projector, dtype=float))
        return np.linalg.norm(self.points @ projector.T, axis=1)


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
        self.values = np.empty((iterations + 1, *x0.shape))

    def step(self, k: int, x: np.ndarray, rows: np.ndarray) -> None:
        self.values[k, rows] = x

    def norms(self, i: int, steps: int) -> np.ndarray:
        """Row ``i``'s norms, summed column by column as ``norm(points[:, mask], axis=1)`` sums."""
        return np.linalg.norm(np.asfortranarray(self.values[: steps + 1, i]), axis=1)


class FirstCrossing:
    """Reducer stopping each row at its first step with ``||x|| >= threshold``, step 0 included.

    ``crossing[i]`` is that step for row ``i``, or -1 if the row never got there.
    """

    def __init__(self, threshold: float):
        if not threshold > 0:
            raise ValueError(f"threshold must be positive, got {threshold!r}")
        self.threshold = threshold

    def start(self, x0: np.ndarray, iterations: int) -> None:
        self.crossing = np.full(x0.shape[0], -1)

    def step(self, k: int, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        hit = np.sqrt(np.einsum("ij,ij->i", x, x)) >= self.threshold
        self.crossing[rows[hit]] = k
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
    ``curvatures * y``.  The reducer sees every iterate of the active rows,
    the start included.  A row leaves the active set at the first step where
    a coordinate is non-finite or past ``DIVERGENCE_CUTOFF`` in magnitude, or
    where ``reducer.step`` marks it.
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
    if not (np.isfinite(x).all() and np.isfinite(xp).all()):
        raise ValueError("starts and predecessors must be finite")
    h = np.asarray(curvatures, dtype=float)
    if h.shape not in (x.shape[1:], (1, x.shape[1]), x.shape):
        raise ValueError(f"curvatures must be one row of {x.shape[1]} or one per start, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("curvatures must be finite")
    h = np.broadcast_to(h, x.shape)
    a = np.broadcast_to(step_sizes, x.shape[:1])[:, None]  # raises unless one step size or one per row
    result = BatchRun(np.zeros(x.shape[0], dtype=int), np.zeros(x.shape[0], dtype=bool), np.empty_like(x))
    rows = np.arange(x.shape[0])
    # the schedule's terms, extended by doubling as the run goes on
    horizon = min(iterations, 1024)
    betas, gammas = params_array(schedule, horizon)
    if reducer is not None:
        reducer.start(x, iterations)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iterations + 1):
            if k:
                if k > horizon:
                    horizon = min(iterations, 2 * horizon)
                    betas, gammas = params_array(schedule, horizon)
                d = x - xp
                y = x + gammas[k] * d
                xn = x - a * (h * y) + betas[k] * d
                xp, x = x, xn
            hit = None if reducer is None else reducer.step(k, x, rows)
            # One whole-batch reduction per step; rows are told apart only
            # once some coordinate is past the cutoff (or NaN).
            over = k > 0 and not np.abs(x).max() <= DIVERGENCE_CUTOFF
            if not over and (hit is None or not hit.any()):
                continue
            diverging = ~(np.abs(x).max(axis=1) <= DIVERGENCE_CUTOFF) if over else np.zeros(rows.size, bool)
            stop = diverging if hit is None else diverging | hit
            out, keep = rows[stop], ~stop
            result.steps[out], result.diverged[out], result.final[out] = k, diverging[stop], x[stop]
            rows, x, xp, a, h = rows[keep], x[keep], xp[keep], a[keep], h[keep]
            if rows.size == 0:
                break
    if rows.size:  # rows that ran all ``iterations`` steps
        result.steps[rows], result.final[rows] = iterations, x
    return result


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
    return IterationTrace(points if basis is None else points @ basis.T, x_prev, bool(batch.diverged[0]))


def escape_time(trace: IterationTrace, subspace_projector: np.ndarray, threshold: float) -> int | None:
    """First step index ``k`` with ``||P x^k|| >= threshold``, or None if never reached."""
    if not (threshold > 0 and math.isfinite(threshold)):
        raise ValueError(f"threshold must be positive and finite, got {threshold!r}")
    norms = trace.projection_norms(subspace_projector)
    hits = np.nonzero(norms >= threshold)[0]
    return int(hits[0]) if hits.size else None

