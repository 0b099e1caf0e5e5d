"""The benchmark's workloads: CLI argv generated from a seed, and output checks.

Each workload runs one ``saddlescape`` subcommand at a fixed size.  Each
builder's docstring says why the workload was chosen and which layers it
leaves idle, so a change aimed at one layer can name the workloads on which
it should move nothing.  The builders take the sizes as arguments so the harness self-test
can run the same argv and checks at toy sizes; :data:`WORKLOADS` holds the
benchmark sizes.

A check returns a list of problems found in the output bytes (empty when the
output is correct).  The checks hold at every seed; the harness also compares
the output's sha256 against ``digests.json`` at the default seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

MODULE_LAYERS = ("problems", "schedules", "optimizers", "spectral", "rates", "experiments", "cli")
# The package's modules, plus serialization (public functions and methods
# whose name contains "csv" or "json_dict"), timed as a layer of its own.
LAYERS = MODULE_LAYERS + ("serialize",)

# Per-trial iteration cap of ``table`` (its --iters default).
TABLE_CAP = 10**6
MAX_PROBLEMS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]
    output: str
    check: Callable[[bytes, int], list[str]]


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite value {value!r}")
    return number


def _guarded(check):
    """Turn parse errors inside a check into a reported problem."""

    def run(data: bytes, seed: int) -> list[str]:
        try:
            return check(data, seed)[:MAX_PROBLEMS]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unparseable output: {exc!r}"]

    return run


# ---------------------------------------------------------------------------
# escape-table
# ---------------------------------------------------------------------------


def escape_table(ns=(100, 1000), deltas=("0.01", "0.001"), trials=100) -> Workload:
    """The paper's divergence table: the required n=100 cells plus the optional n=1000 cells.

    400 trials of narrow (5 negative coordinates) escape loops, so iteration
    work runs narrow and many.  Schedules rebuild a short t-sequence (at
    least 1024 terms) for every trial.
    Busy: experiments (the private escape loops), schedules.
    Idle: optimizers, spectral, serialize.
    """
    ns = tuple(str(n) for n in ns)
    methods = ("steepest_descent", "accelerated_gradient", "rate_predictor")

    def argv(seed: int) -> list[str]:
        return ["table", "--n", *ns, "--delta", *deltas, "--trials", str(trials), "--seed", str(seed)]

    def check(data: bytes, seed: int) -> list[str]:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        problems = []
        if rows[0] != ["n", "delta", "row_type", "trial_or_method", *methods]:
            return [f"unexpected header {rows[0]!r}"]
        cells = defaultdict(list)
        summaries = {}
        for row in rows[1:]:
            key = (row[0], row[1])
            if row[2] == "trial":
                if int(row[3]) != len(cells[key]):
                    problems.append(f"cell {key}: trial {row[3]} out of order")
                counts = [int(v) for v in row[4:7]]
                if not all(1 <= c <= TABLE_CAP for c in counts):
                    problems.append(f"cell {key} trial {row[3]}: counts {counts} outside [1, {TABLE_CAP}]")
                cells[key].append(counts)
            else:
                summaries[key + (row[2],)] = row[4:7]
        expected_cells = {(n, f"{float(d):.12g}") for n in ns for d in deltas}
        if set(cells) != expected_cells:
            problems.append(f"cells {sorted(cells)} != {sorted(expected_cells)}")
        for key, counts in cells.items():
            if len(counts) != trials:
                problems.append(f"cell {key}: {len(counts)} trials, expected {trials}")
            averages = [_finite(v) for v in summaries[key + ("average",)]]
            maxima = [int(v) for v in summaries[key + ("max",)]]
            for m, method in enumerate(methods):
                column = [c[m] for c in counts]
                mean = sum(column) / len(column)
                if abs(averages[m] - mean) > 1e-9 * mean:
                    problems.append(f"cell {key} {method}: average {averages[m]} != mean {mean}")
                if maxima[m] != max(column):
                    problems.append(f"cell {key} {method}: max {maxima[m]} != {max(column)}")
                if averages[m] > maxima[m]:
                    problems.append(f"cell {key} {method}: average above max")
        if len(summaries) != 2 * len(cells):
            problems.append(f"{len(summaries)} summary rows for {len(cells)} cells")
        return problems

    return Workload(
        name="escape-table",
        argv=argv,
        output="table.csv",
        check=_guarded(check),
    )


# ---------------------------------------------------------------------------
# growth-trace
# ---------------------------------------------------------------------------


def growth_trace(n=2000, p=1, delta="0.01", iters=20000) -> Workload:
    """Negative-eigenspace growth: three long runs over a 2000-wide state.

    Full traces are stored, then re-evaluated, so iteration work runs wide
    and few and peak memory comes from the stored traces.  The CSV has 20k
    rows.
    Busy: problems, optimizers, serialize.
    Idle: spectral, and the escape loops of experiments.
    """
    series = ("steepest_descent", "heavy_ball", "accelerated")

    def argv(seed: int) -> list[str]:
        return ["simulate", "--n", str(n), "--p", str(p), "--delta", delta,
                "--iters", str(iters), "--seed", str(seed)]

    def check(data: bytes, seed: int) -> list[str]:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        if rows[0] != ["iter", *series, "predicted"]:
            return [f"unexpected header {rows[0]!r}"]
        body = rows[1:]
        problems = []
        if len(body) != iters + 1:
            problems.append(f"{len(body)} rows, expected {iters + 1}")
        columns = [[] for _ in range(4)]
        for k, row in enumerate(body):
            if int(row[0]) != k:
                return problems + [f"row {k} has iter {row[0]}"]
            for column, cell in zip(columns, row[1:]):
                if cell:
                    if len(column) != k:
                        return problems + [f"row {k}: a series resumes after a gap"]
                    column.append(float(cell))
        for name, column in zip(series, columns):
            if not column:
                problems.append(f"{name}: empty series")
            elif not all(math.isfinite(v) and v > 0 for v in column):
                problems.append(f"{name}: non-finite or nonpositive norm")
        predicted = columns[3]
        # The predictor is a closed-form geometric series and may overflow to inf.
        if len(predicted) != len(body) or any(b < a for a, b in zip(predicted, predicted[1:])):
            problems.append("predicted: incomplete or decreasing")
        starts = {column[0] for column in columns if column}
        if len(starts) != 1:
            problems.append(f"series start from different projections {sorted(starts)}")
        descent = columns[0]
        if p == 1 and len(descent) > 2:
            # Gradient descent scales the single negative coordinate by the
            # same factor 1 + alpha*delta at every step.
            ratio = descent[1] / descent[0]
            if ratio <= 1 or any(abs(b / a - ratio) > 1e-9 * ratio for a, b in zip(descent, descent[1:])):
                problems.append("steepest_descent: projection does not grow geometrically")
        return problems

    return Workload(
        name="growth-trace",
        argv=argv,
        output="growth.csv",
        check=_guarded(check),
    )


# ---------------------------------------------------------------------------
# rate-series
# ---------------------------------------------------------------------------


def rate_lambda(seed: int) -> float:
    """The negative eigenvalue of ``rate-series``, uniform on [-8e-3, -1e-3].

    Below ``|lambda| = 8e-3`` the rates ``b_k`` stay under 0.1 with
    ``alpha = 0.99``, so every row has the same width.  Output size, and with
    it peak memory, then does not depend on the seed.
    """
    return -(1e-3 + 7e-3 * random.Random(seed).random())


def rate_series(iters=1_000_000, alpha="0.99") -> Workload:
    """One long scalar Nesterov t-sequence and growth recurrence.

    Then 1M flat CSV rows (22 MB) are formatted inline by the CLI: schedules
    build one long sequence, and serialization is flat and large.
    Busy: cli, rates, schedules.
    Idle: problems, optimizers, spectral, experiments, serialize.
    """
    def argv(seed: int) -> list[str]:
        return ["rates", f"--lambda={rate_lambda(seed)!r}", "--alpha", alpha,
                "--schedule", "nesterov", "--iters", str(iters), "--format", "csv"]

    def check(data: bytes, seed: int) -> list[str]:
        a = float(alpha) * abs(rate_lambda(seed))
        limit = a + math.sqrt(a) * math.sqrt(1.0 + a)
        lines = data.decode("utf-8").split("\n")
        if lines[0] != "iter,b" or lines[-1] != "":
            return ["unexpected header or missing final newline"]
        body = lines[1:-1]
        problems = []
        if len(body) != iters + 1:
            problems.append(f"{len(body)} rows, expected {iters + 1}")
        cells = ",".join(body).split(",")
        if len(cells) != 2 * len(body) or cells[0::2] != [str(k) for k in range(len(body))]:
            return problems + ["rows are not 'iter,b' with iter 0, 1, 2, ..."]
        b = [float(value) for value in cells[1::2]]
        if not all(map(math.isfinite, b)):
            return problems + ["non-finite b"]
        if any(later < earlier for earlier, later in zip(b, b[1:])):
            return problems + ["b decreases"]
        if b[0] != 0.0 or abs(b[1] - a) > 1e-11 * a:
            problems.append(f"b_0={b[0]}, b_1={b[1]}; expected 0 and alpha*|lambda|={a}")
        # The Nesterov schedule's b_k rise to the (1, 1)-limit from below; on
        # this lambda range the relative gap after K steps is 17/K to 48/K.
        if not limit * (1 - 100 / iters) <= b[-1] <= limit * (1 + 1e-9):
            problems.append(f"final b {b[-1]} not just below the limit {limit}")
        return problems

    return Workload(
        name="rate-series",
        argv=argv,
        output="rates.csv",
        check=_guarded(check),
    )


# ---------------------------------------------------------------------------
# saddle-spectrum
# ---------------------------------------------------------------------------


def saddle_spectrum(n=5000, p=50, delta="0.01", beta="0.989") -> Workload:
    """Whole-problem classification of a 5000-dimensional saddle map.

    It has 50 unstable directions and is written as 5000 nested JSON
    blocks.  It is the only workload that runs spectral.
    Busy: spectral, cli.
    Idle: schedules, optimizers, rates, experiments.
    """
    def argv(seed: int) -> list[str]:
        return ["spectrum", "--n", str(n), "--p", str(p), "--delta", delta,
                "--beta", beta, "--seed", str(seed), "--format", "json"]

    def check(data: bytes, seed: int) -> list[str]:
        payload = json.loads(data, parse_constant=lambda name: math.nan)
        problems = []
        blocks = payload["blocks"]
        if len(blocks) != n:
            problems.append(f"{len(blocks)} blocks, expected {n}")
        if payload["unstable_dim"] != p or payload["stable_dim"] + payload["unstable_dim"] != 2 * n:
            problems.append(f"dims stable={payload['stable_dim']} unstable={payload['unstable_dim']}")
        lams = [_finite(block["lambda"]) for block in blocks]
        if any(b > a for a, b in zip(lams, lams[1:])):
            problems.append("eigenvalues not sorted nonincreasing")
        alpha = 1.0 / max(lams[0], -lams[-1])
        b = float(beta)
        unstable = 0
        for lam, block in zip(lams, blocks):
            hi = complex(_finite(block["mu_hi"]["re"]), _finite(block["mu_hi"]["im"]))
            lo = complex(_finite(block["mu_lo"]["re"]), _finite(block["mu_lo"]["im"]))
            label = "stable" if lam > 0 else ("unit" if lam == 0 else "unstable")
            unstable += label == "unstable"
            if block["class"] != label:
                problems.append(f"lambda={lam}: class {block['class']}, expected {label}")
            # Vieta relations of mu^2 - (1 + beta - alpha*lambda) mu + beta.
            if abs(hi + lo - (1 + b - alpha * lam)) > 1e-9 or abs(hi * lo - b) > 1e-9:
                problems.append(f"lambda={lam}: roots break the Vieta relations")
            if (abs(hi) > 1.0) != (label == "unstable"):
                problems.append(f"lambda={lam}: |mu_hi|={abs(hi)} contradicts class {label}")
        if unstable != p:
            problems.append(f"{unstable} unstable blocks, expected {p}")
        return problems

    return Workload(
        name="saddle-spectrum",
        argv=argv,
        output="spectrum.json",
        check=_guarded(check),
    )


WORKLOADS = {w.name: w for w in (escape_table(), growth_trace(), rate_series(), saddle_spectrum())}
