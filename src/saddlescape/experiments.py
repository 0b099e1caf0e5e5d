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
from dataclasses import dataclass

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
from .rates import _series_rows, first_crossings, rate_limit
from .schedules import ConstantSchedule, MomentumSchedule, NesterovSchedule

__all__ = [
    "ToyFigure",
    "toy_figure",
    "NegspaceSeries",
    "negspace_experiment",
    "TableRow",
    "TrialRecord",
    "TableResult",
    "divergence_table",
    "TABLE_METHODS",
]

TABLE_METHODS = ("steepest_descent", "accelerated_gradient", "rate_predictor")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _csv_line(fields) -> str:
    # Fields are names, numbers and empty cells of rows with several cells,
    # which csv.writer would write unquoted too.
    return ",".join(map(str, fields)) + "\n"


@dataclass(frozen=True)
class ToyFigure:
    """Thinned (x1, x2) trajectories of both methods on the toy saddle."""

    descent: np.ndarray
    heavy_ball: np.ndarray
    thin: int
    descent_escape: int | None
    heavy_ball_escape: int | None

    def to_csv(self) -> Iterator[str]:
        """CSV rows ``method,iter,x1,x2``, yielded by :func:`_series_rows` as text chunks of many rows."""
        yield _csv_line(["method", "iter", "x1", "x2"])
        for name, block in (("steepest_descent", self.descent), ("heavy_ball", self.heavy_ball)):
            yield from _series_rows(name + ",", range(0, len(block) * self.thin, self.thin), block.T)

    def to_json_dict(self) -> dict:
        return {
            "thin": self.thin,
            "descent": self.descent,
            "heavy_ball": self.heavy_ball,
            "descent_escape": self.descent_escape,
            "heavy_ball_escape": self.heavy_ball_escape,
        }


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
    :func:`escape_time` counts it on the negative projector.
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
    escapes = (escape_time(run, problem.negative_projector(), threshold) for run in (descent, heavy_ball))
    # a thinned slice is copied so that the whole runs can be freed; unthinned, the runs' arrays are kept
    kept = [run.points if thin == 1 else run.points[::thin].copy() for run in (descent, heavy_ball)]
    return ToyFigure(*kept, int(thin), *escapes)


@dataclass(frozen=True)
class NegspaceSeries:
    """Per-iteration negative-eigenspace projection norms for four series.

    Series may be shorter than ``iterations + 1`` when a run stopped at the
    divergence cutoff.  ``params`` records the resolved configuration
    (stepsizes, momentum, limiting rate, seed) for reproducibility.
    """

    descent: np.ndarray
    heavy_ball: np.ndarray
    accelerated: np.ndarray
    predicted: np.ndarray
    params: dict

    def _blocks(self):
        return (
            ("steepest_descent", self.descent),
            ("heavy_ball", self.heavy_ball),
            ("accelerated", self.accelerated),
            ("predicted", self.predicted),
        )

    def to_csv(self) -> Iterator[str]:
        """CSV rows ``iter`` and one column per series, yielded by :func:`_series_rows` as text chunks of many rows.

        A series that stopped early leaves its cells empty.
        """
        names, series = zip(*self._blocks())
        yield _csv_line(["iter", *names])
        yield from _series_rows("", range(max(block.size for block in series)), series)

    def to_json_dict(self) -> dict:
        """The JSON payload; a non-finite ``predicted`` value raises ``ValueError`` before any text is written."""
        if not (finite := np.isfinite(self.predicted)).all():
            bad = float(self.predicted[~finite][0])
            raise ValueError(f"JSON output holds only finite numbers, got {bad!r}")
        out = dict(self._blocks())
        out["params"] = self.params
        return out


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
    limit = rate_limit(lam_n, alpha_ag, 1.0, 1.0)
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
    accel = proj_norms(alpha_ag, NesterovSchedule(), previous)

    start_norm = float(row_norms(start)[0])
    with np.errstate(over="ignore"):
        predicted = start_norm * (1.0 + limit) ** np.arange(iterations + 1, dtype=float)

    return NegspaceSeries(
        descent=descent,
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
class TableRow:
    """Summary of one (n, delta, method) cell of the divergence table."""

    n: int
    delta: float
    method: str
    avg_iters: float
    max_iters: int
    censored: int


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
    """Per-trial records plus per-cell summaries of the divergence table."""

    rows: tuple[TableRow, ...]
    trials: tuple[TrialRecord, ...]
    seed: int
    trials_per_cell: int
    iteration_cap: int

    def row(self, n: int, delta: float, method: str) -> TableRow:
        for row in self.rows:
            if row.n == n and row.delta == delta and row.method == method:
                return row
        raise KeyError(f"no table row for n={n}, delta={delta}, method={method}")

    def to_csv(self) -> Iterator[str]:
        """CSV rows of every trial, then each cell's average and max rows, one text chunk per row."""
        yield _csv_line(["n", "delta", "row_type", "trial_or_method", *TABLE_METHODS])
        for rec in self.trials:
            counts = (rec.steepest_descent, rec.accelerated_gradient, rec.rate_predictor)
            yield _csv_line([rec.n, _fmt(rec.delta), "trial", rec.trial, *counts])
        for n, delta in sorted({(row.n, row.delta) for row in self.rows}):
            by_method = [self.row(n, delta, m) for m in TABLE_METHODS]
            yield _csv_line([n, _fmt(delta), "average", "", *(_fmt(r.avg_iters) for r in by_method)])
            yield _csv_line([n, _fmt(delta), "max", "", *(r.max_iters for r in by_method)])

    def to_json_dict(self) -> dict:
        cells = []
        for n, delta in sorted({(row.n, row.delta) for row in self.rows}):
            methods = {}
            for method in TABLE_METHODS:
                row = self.row(n, delta, method)
                methods[method] = {
                    "avg_iters": row.avg_iters,
                    "max_iters": row.max_iters,
                    "censored": row.censored,
                }
            cells.append({"n": n, "delta": delta, "methods": methods})
        return {
            "seed": self.seed,
            "trials": self.trials_per_cell,
            "iteration_cap": self.iteration_cap,
            "cells": cells,
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
    recorded at the cap and counted as censored, in ``TrialRecord.censored``
    and ``TableRow.censored``; nothing is warned.  All trials of a cell run
    as one batch.

    A count is the first step at which the projection norm reaches the
    threshold, the start (step 0) included, as :func:`escape_time` counts it:
    a threshold at or below the start's projection gives 0.  A given
    ``threshold`` must lie in ``(0, DIVERGENCE_CUTOFF]``, since a run stops
    at the divergence cutoff before it could cross a larger one.

    A cell is named by its ``(n, delta)`` pair, so a value repeated in
    ``ns`` or ``deltas`` (after ``int``/``float`` conversion) is rejected.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    ns, deltas = [int(n) for n in ns], [_delta(float(d)) for d in deltas]
    for name, values in (("n", ns), ("delta", deltas)):
        if len(set(values)) < len(values):
            raise ValueError(f"each {name} must be listed once, got {values}")
    if iteration_cap > sys.float_info.max:  # a cell's average is a float
        raise ValueError(f"iteration_cap must be at most {sys.float_info.max:.6g}, the largest float")
    if threshold is not None and not 0.0 < threshold <= DIVERGENCE_CUTOFF:
        raise ValueError(f"threshold must lie in (0, {DIVERGENCE_CUTOFF:g}], got {threshold!r}")
    cap = iteration_cap
    limits = schedule.limit()
    rows: list[TableRow] = []
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
        counts = {m: [int(k) if k >= 0 else cap for k in ks] for m, ks in crossings.items()}
        for trial in range(trials):
            censored = tuple(m for m in TABLE_METHODS if crossings[m][trial] < 0)
            escapes = (counts[m][trial] for m in TABLE_METHODS)
            records.append(TrialRecord(n, delta, trial, *escapes, censored=censored))
        for method in TABLE_METHODS:
            values = counts[method]
            censored = int(np.count_nonzero(crossings[method] < 0))
            rows.append(TableRow(n, delta, method, sum(values) / trials, max(values), censored))
    return TableResult(
        rows=tuple(rows),
        trials=tuple(records),
        seed=int(seed),
        trials_per_cell=int(trials),
        iteration_cap=int(iteration_cap),
    )
