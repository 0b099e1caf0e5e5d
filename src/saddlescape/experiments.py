"""Desk-scale escape experiments: toy trajectories, eigenspace growth, divergence table.

Three reproducible experiment drivers:

* :func:`toy_figure` traces gradient descent and heavy-ball on the 2-D toy
  saddle from a shared start, thinned for plotting.
* :func:`negspace_experiment` runs gradient descent, heavy-ball, accelerated
  gradient, and the limiting-rate predictor on a random quadratic with a
  known negative eigenvalue, recording the negative-eigenspace projection
  norm per iteration.
* :func:`divergence_table` measures, over seeded random trials, how many
  iterations each method needs before that projection norm exceeds the
  problem dimension.

Every result is a deterministic function of the master seed; each trial owns
an independent counter-based random stream, so trials may run in any order.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .optimizers import (
    DIVERGENCE_CUTOFF,
    GRADIENT_DESCENT,
    EqualStart,
    FirstCrossing,
    StartPolicy,
    Trace,
    escape_time,
    iterate,
    row_norms,
    run_gradient_descent,
    run_heavy_ball,
)
from .problems import _delta, _positive, random_problem, rng_from, sample_unit_ball, toy_problem
from .rates import _csv_rows, _series_rows, first_crossings, rate_limit
from .schedules import ConstantSchedule, MomentumSchedule, NesterovSchedule

__all__ = [
    "ToyFigure",
    "toy_figure",
    "NegspaceSeries",
    "negspace_experiment",
    "TrialRecord",
    "TableResult",
    "divergence_table",
    "TABLE_METHODS",
]

TABLE_METHODS = ("steepest_descent", "accelerated_gradient", "rate_predictor")
# One record per (n, delta) cell of the divergence table, as ``TableResult.cells`` derives it from the trials and
# ``table --json`` writes it.  ``max_iters`` is an object field: a count can pass int64 when the iteration cap does.
_SUMMARY = [("avg_iters", float), ("max_iters", object), ("censored", np.int64)]
CELL_DTYPE = np.dtype([("n", np.int64), ("delta", float), ("methods", [(m, _SUMMARY) for m in TABLE_METHODS])])


@dataclass(frozen=True)
class ToyFigure:
    """Thinned (x1, x2) trajectories of both methods on the toy saddle; the fields are its JSON keys, in order."""

    thin: int
    descent: np.ndarray
    heavy_ball: np.ndarray
    descent_escape: int | None
    heavy_ball_escape: int | None

    def to_csv(self) -> Iterator[str]:
        """CSV rows ``method,iter,x1,x2``, yielded by :func:`_series_rows` as text chunks of many rows."""
        yield "method,iter,x1,x2\n"
        for name, block in (("steepest_descent", self.descent), ("heavy_ball", self.heavy_ball)):
            yield from _series_rows(name + ",", range(0, len(block) * self.thin, self.thin), block.T)

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def toy_figure(
    delta: float,
    alpha: float,
    beta: float,
    x0,
    iterations: int,
    thin: int = 1,
    threshold: float = 1.0,
) -> ToyFigure:
    """Trace gradient descent and heavy-ball on the toy saddle from ``x0``.

    Both methods share the start, which is also the heavy-ball predecessor;
    every ``thin``-th iterate is kept.  Escape is the first step whose
    ``|x2|`` reaches ``threshold``, a positive finite number, as
    :func:`escape_time` counts it on the negative projector.  A run whose
    last iterate overflows raises ``ValueError`` naming the run and its step.
    """
    if thin < 1:
        raise ValueError("thin must be at least 1")
    problem = toy_problem(delta)
    start = np.asarray(x0, dtype=float)
    if start.shape != (2,):
        raise ValueError(f"x0 must have two components, got {start.size}")
    _positive("threshold", threshold)

    # heavy ball runs first: it checks beta, and every other input is checked before either run
    heavy_ball = run_heavy_ball(problem, alpha, beta, start, iterations=iterations)
    descent = run_gradient_descent(problem, alpha, start, iterations)
    for name, run in (("steepest_descent", descent), ("heavy_ball", heavy_ball)):
        if not np.isfinite(run.final).all():  # a run stops at its first non-finite iterate
            raise ValueError(f"the {name} run overflows at step {run.steps}, to x = {run.final.tolist()}")
    escapes = (escape_time(run, problem.negative_projector(), threshold) for run in (descent, heavy_ball))
    # a thinned slice is copied so that the whole runs can be freed; unthinned, the runs' arrays are kept
    kept = [run.points if thin == 1 else run.points[::thin].copy() for run in (descent, heavy_ball)]
    return ToyFigure(int(thin), *kept, *escapes)


@dataclass(frozen=True)
class NegspaceSeries:
    """Per-iteration negative-eigenspace projection norms for four series.

    Each series field is named after its CSV column and JSON key.  A series
    may be shorter than ``iterations + 1`` when a run stopped at the
    divergence cutoff.  ``params`` records the resolved configuration
    (stepsizes, momentum, limiting rate, seed) for reproducibility.
    """

    steepest_descent: np.ndarray
    heavy_ball: np.ndarray
    accelerated: np.ndarray
    predicted: np.ndarray
    params: dict

    def to_csv(self) -> Iterator[str]:
        """CSV rows ``iter`` and one column per series, yielded by :func:`_series_rows` as text chunks of many rows.

        A series that stopped early leaves its cells empty.
        """
        series = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "params"}
        yield ",".join(["iter", *series]) + "\n"
        yield from _series_rows("", range(max(block.size for block in series.values())), series.values())

    def to_json_dict(self) -> dict:
        """The fields; a non-finite ``predicted`` value raises ``ValueError`` before any text is written."""
        if not (finite := np.isfinite(self.predicted)).all():
            bad = float(self.predicted[~finite][0])
            raise ValueError(f"JSON output holds only finite numbers, got {bad!r}")
        return {f.name: getattr(self, f.name) for f in fields(self)}


def negspace_experiment(
    n: int = 100,
    p: int = 1,
    delta: float = 1e-2,
    seed: int = 0,
    iterations: int = 2000,
    start_policy: StartPolicy = EqualStart(),
) -> NegspaceSeries:
    """Compare escape speeds along the negative eigenspace of a random quadratic.

    The problem is :func:`random_problem`'s, drawn from stream ``(seed, 0)``,
    so with ``p = 1`` the negative eigenvalue is exactly ``-delta``; the start,
    drawn next from that stream, is uniform on the unit ball.  Gradient
    descent and heavy-ball use ``alpha = 1/L`` with the heavy-ball momentum
    tuned to the most negative eigenvalue (``beta = 1 - alpha*|lambda_n|``);
    accelerated gradient uses ``alpha = 0.99/L`` with the t-sequence
    schedule.  The predictor series grows the starting projection by the
    limiting rate at every step.
    """
    rng = rng_from(seed, 0)
    problem = random_problem(n, p, delta, rng)
    eigenvalues = problem.eigenvalues
    x0 = sample_unit_ball(n, rng)

    lipschitz = problem.lipschitz
    alpha = 1.0 / lipschitz
    lam_n = float(eigenvalues[-1])
    beta_hb = 1.0 - alpha * abs(lam_n)
    alpha_ag = 0.99 / lipschitz
    schedule = NesterovSchedule()
    limit = rate_limit(lam_n, alpha_ag, *schedule.limit())
    # The coordinates decouple and only the negative block's norms are
    # written; with these step sizes and schedules the positive coordinates
    # contract, so they cannot stop a run at the divergence cutoff either.
    mask = eigenvalues < 0
    start = x0[mask][None]
    previous = start_policy.resolve(x0)[mask][None]

    def proj_norms(step_size, schedule, x_prev):
        trace = Trace()
        batch = iterate(eigenvalues[mask], step_size, schedule, start, x_prev, iterations, trace)
        return row_norms(trace.values[: batch.steps[0] + 1, 0])

    descent = proj_norms(alpha, GRADIENT_DESCENT, start)
    heavy = proj_norms(alpha, ConstantSchedule(beta_hb, 0.0), previous)
    accel = proj_norms(alpha_ag, schedule, previous)

    start_norm = float(row_norms(start)[0])
    with np.errstate(over="ignore"):
        predicted = start_norm * (1.0 + limit) ** np.arange(iterations + 1, dtype=float)

    return NegspaceSeries(
        steepest_descent=descent,
        heavy_ball=heavy,
        accelerated=accel,
        predicted=predicted,
        params={
            "n": int(n),
            "p": int(p),
            "delta": float(delta),
            "seed": int(seed),
            "iterations": int(iterations),
            "lipschitz": lipschitz,
            "lambda_n": lam_n,
            "alpha": alpha,
            "beta_heavy_ball": beta_hb,
            "alpha_accelerated": alpha_ag,
            "rate_limit": limit,
            "start_projection": start_norm,
        },
    )


# ---------------------------------------------------------------------------
# Divergence table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    """Escape iteration counts for one seeded trial."""

    n: int
    delta: float
    trial: int
    steepest_descent: int
    accelerated_gradient: int
    rate_predictor: int
    censored: tuple[str, ...] = ()


@dataclass(frozen=True)
class TableResult:
    """Per-trial records of the divergence table, with the settings that drew them."""

    trials: tuple[TrialRecord, ...]
    seed: int
    trials_per_cell: int
    iteration_cap: int

    def cells(self) -> np.recarray:
        """One ``CELL_DTYPE`` record per ``(n, delta)`` cell in sorted order: each method's mean and max count over
        the cell's trials, and how many of those trials name it in ``censored``."""
        groups: dict[tuple[int, float], list[TrialRecord]] = {}
        for record in self.trials:
            groups.setdefault((record.n, record.delta), []).append(record)
        cells = []
        for (n, delta), group in sorted(groups.items()):
            summaries = []
            for m in TABLE_METHODS:
                counts = [getattr(r, m) for r in group]
                summaries.append((sum(counts) / len(counts), max(counts), sum(m in r.censored for r in group)))
            cells.append((n, delta, tuple(summaries)))
        return np.array(cells, CELL_DTYPE).view(np.recarray)

    def row(self, n: int, delta: float, method: str) -> np.record:
        """The ``(avg_iters, max_iters, censored)`` record of ``method`` in cell ``(n, delta)``, else ``KeyError``."""
        cells = self.cells()
        found = cells[(cells.n == n) & (cells.delta == delta)]
        if not len(found) or method not in TABLE_METHODS:
            raise KeyError(f"no table row for n={n}, delta={delta}, method={method}")
        return found[0].methods[method]

    def to_csv(self) -> Iterator[str]:
        """CSV rows of every trial, then each cell's average and max rows; ``%s`` writes a count as ``str`` does."""
        yield "n,delta,row_type,trial_or_method,steepest_descent,accelerated_gradient,rate_predictor\n"
        columns = [[getattr(r, name) for r in self.trials] for name in ("n", "delta", "trial", *TABLE_METHODS)]
        yield from _csv_rows("%s,%.12g,trial,%s,%s,%s,%s\n", columns)
        cells = self.cells()
        key, methods = [cells.n, cells.delta], [cells.methods[m] for m in TABLE_METHODS]
        columns = [*key, *(s.avg_iters for s in methods), *key, *(s.max_iters for s in methods)]
        yield from _csv_rows("%s,%.12g,average,,%.12g,%.12g,%.12g\n%s,%.12g,max,,%s,%s,%s\n", columns)

    def to_json_dict(self) -> dict:
        """The table's settings, and its ``cells`` as :meth:`cells` derives them."""
        return {
            "seed": self.seed,
            "trials": self.trials_per_cell,
            "iteration_cap": self.iteration_cap,
            "cells": self.cells(),
        }


def divergence_table(
    ns=(100,),
    deltas=(1e-2, 1e-3),
    trials: int = 100,
    seed: int = 0,
    iteration_cap: int = 10**6,
    threshold: float | None = None,
    schedule: MomentumSchedule = NesterovSchedule(),
) -> TableResult:
    """Average/max iterations until the negative-space projection exceeds ``n``.

    For each ``(n, delta)`` cell and trial, a random diagonal quadratic is
    drawn with 5 negative eigenvalues uniform on ``[-2*delta, -delta]`` and a
    start uniform on the unit ball; steepest descent (``alpha = 1/L``) and
    accelerated gradient (``alpha = 0.99/L``, ``schedule``) run until the
    projection norm reaches the threshold (``n`` by default); steepest
    descent is counted by :func:`first_crossings` on its closed form ``x0 (1
    + alpha|lambda|)^k``, not iterated, which can put a crossing one step
    from the kernel's when the norm lands within rounding of the threshold.
    The rate-predictor column grows the realized starting projection norm by
    ``1 + b`` per step, for ``b`` the limiting growth rate of the most
    negative eigenvalue under ``schedule.limit()``, counted the same way.
    Trials that hit ``iteration_cap``, at most the largest float, are
    recorded at the cap and counted as censored in ``TrialRecord.censored``;
    nothing is warned.  All trials of a cell run as one batch; the result
    keeps the trials, and :meth:`TableResult.cells` summarizes each cell.

    A count is the first step at which the projection norm reaches the
    threshold, the start (step 0) included, as :func:`escape_time` counts it:
    a threshold at or below the start's projection gives 0.  A given
    ``threshold`` must lie in ``(0, DIVERGENCE_CUTOFF]``, since a run stops
    at the divergence cutoff before it could cross a larger one.

    A cell is named by its ``(n, delta)`` pair, so a value repeated in
    ``ns`` or ``deltas`` (after ``int``/``float`` conversion) is rejected.
    Every ``n`` must be at least 6 and ``iteration_cap`` nonnegative; all
    arguments are checked before any cell runs.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    ns, deltas = [int(n) for n in ns], [_delta(float(d)) for d in deltas]
    for name, values in (("n", ns), ("delta", deltas)):
        if len(set(values)) < len(values):
            raise ValueError(f"each {name} must be listed once, got {values}")
    if any(n < 6 for n in ns):  # each cell draws 5 negative eigenvalues and at least one other
        raise ValueError(f"each n must be at least 6, got {ns}")
    if iteration_cap < 0:
        raise ValueError(f"iteration_cap must be nonnegative, got {iteration_cap!r}")
    if iteration_cap > sys.float_info.max:  # a cell's average is a float
        raise ValueError(f"iteration_cap must be at most {sys.float_info.max:.6g}, the largest float")
    if threshold is not None and not 0.0 < threshold <= DIVERGENCE_CUTOFF:
        raise ValueError(f"threshold must lie in (0, {DIVERGENCE_CUTOFF:g}], got {threshold!r}")
    cap = iteration_cap
    limits = schedule.limit()
    records: list[TrialRecord] = []
    for cell_index, (n, delta) in enumerate((n, d) for n in ns for d in deltas):
        cell_threshold = float(n) if threshold is None else float(threshold)
        # On a diagonal quadratic the coordinates decouple, so only the
        # negative-eigenvalue block can drive the projection norm; iterating
        # just that block reproduces the full run's escape count exactly.
        neg_values, neg_start, lipschitz = [], [], []
        for trial in range(trials):
            rng = rng_from(seed, cell_index, trial)
            problem = random_problem(n, 5, delta, rng)
            x0 = sample_unit_ball(n, rng)
            mask = problem.eigenvalues < 0
            neg_values.append(problem.eigenvalues[mask])
            neg_start.append(x0[mask])
            lipschitz.append(problem.lipschitz)
        neg_values, neg_start, lipschitz = np.array(neg_values), np.array(neg_start), np.array(lipschitz)

        alpha_ag = 0.99 / lipschitz
        accelerated = FirstCrossing(cell_threshold)
        rates = np.array([rate_limit(float(v[-1]), float(a), *limits) for v, a in zip(neg_values, alpha_ag)])
        iterate(neg_values, alpha_ag, schedule, neg_start, neg_start, cap, accelerated)
        descent_growth = 1.0 + (1.0 / lipschitz)[:, None] * np.abs(neg_values)
        crossings = {
            "steepest_descent": first_crossings(descent_growth, neg_start, cell_threshold, cap),
            "accelerated_gradient": accelerated.crossing,
            "rate_predictor": first_crossings(1.0 + rates[:, None], row_norms(neg_start)[:, None], cell_threshold, cap),
        }
        # a crossing of -1 never came: the trial is recorded at the cap, as censored
        for trial, ks in enumerate(zip(*(crossings[m].tolist() for m in TABLE_METHODS))):
            censored = tuple(m for m, k in zip(TABLE_METHODS, ks) if k < 0)
            records.append(TrialRecord(n, delta, trial, *(k if k >= 0 else cap for k in ks), censored=censored))
    return TableResult(
        trials=tuple(records),
        seed=int(seed),
        trials_per_cell=int(trials),
        iteration_cap=int(iteration_cap),
    )
