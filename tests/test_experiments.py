import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlescape import (
    ConstantSchedule,
    EqualStart,
    NegspaceSeries,
    NesterovSchedule,
    ToyFigure,
    divergence_table,
    escape_time,
    negspace_experiment,
    predicted_escape_iters,
    random_problem,
    rate_limit,
    rng_from,
    run_accelerated,
    run_gradient_descent,
    run_heavy_ball,
    sample_unit_ball,
    toy_figure,
    toy_problem,
)
from saddlescape import cli, experiments
from saddlescape.experiments import TABLE_METHODS
from saddlescape.optimizers import GRADIENT_DESCENT, FirstCrossing, iterate, row_norms


def _escape_steps(neg_values, neg_start, alpha, schedule, threshold, cap):
    """Escape count of the negative block through the batched kernel, as the table runs it."""
    crossing = FirstCrossing(threshold)
    iterate(neg_values, alpha, schedule, neg_start[None], neg_start[None], cap, crossing)
    steps = int(crossing.crossing[0])
    return (cap, True) if steps < 0 else (steps, False)


class TestToyFigure:
    def test_thinning_and_shapes(self):
        fig = toy_figure(0.02, 0.75, 0.985, [0.25, 0.01], iterations=100, thin=5)
        assert fig.descent.shape == (21, 2)
        assert fig.heavy_ball.shape == (21, 2)

    def test_overshoot_and_relative_escape_speed(self):
        fig = toy_figure(0.02, 0.75, 0.985, [0.25, 0.01], iterations=1200, thin=1)
        assert fig.heavy_ball[:, 0].min() < 0.0  # momentum overshoots the x2 axis
        assert fig.descent[:, 0].min() >= 0.0
        assert fig.heavy_ball_escape is not None and fig.descent_escape is not None
        assert fig.heavy_ball_escape < fig.descent_escape

    def test_on_axis_start_never_escapes(self):
        fig = toy_figure(0.02, 0.75, 0.985, [0.25, 0.0], iterations=800, thin=1)
        assert fig.descent_escape is None
        assert np.all(fig.descent[:, 1] == 0.0)
        assert np.linalg.norm(fig.descent[-1]) < 1e-8

    @pytest.mark.parametrize("thin", [1, 3])
    def test_figure_keeps_the_runs_points_unless_thinned(self, monkeypatch, thin):
        # a thinned figure copies its slices, so the whole runs can be freed; at thin 1 it holds
        # the runs' own arrays, and writes the bytes that copies of them write
        runs = []
        for name in ("run_heavy_ball", "run_gradient_descent"):
            run = getattr(experiments, name)
            monkeypatch.setattr(experiments, name, lambda *a, run=run, **kw: runs.append(run(*a, **kw)) or runs[-1])
        fig = toy_figure(0.02, 0.75, 0.985, [0.25, 0.01], iterations=300, thin=thin)
        heavy_ball, descent = runs
        for kept, trace in ((fig.descent, descent), (fig.heavy_ball, heavy_ball)):
            assert np.shares_memory(kept, trace.points) == (thin == 1)
            assert np.array_equal(kept, trace.points[::thin])
        copied = ToyFigure(
            thin=thin,
            descent=fig.descent.copy(),
            heavy_ball=fig.heavy_ball.copy(),
            descent_escape=fig.descent_escape,
            heavy_ball_escape=fig.heavy_ball_escape,
        )
        assert "".join(fig.to_csv()) == "".join(copied.to_csv())
        dumps = [json.dumps(f.to_json_dict(), default=np.ndarray.tolist) for f in (fig, copied)]
        assert dumps[0] == dumps[1]

    def test_csv_blocks(self):
        fig = toy_figure(0.02, 0.75, 0.985, [0.25, 0.01], iterations=20, thin=5)
        lines = "".join(fig.to_csv()).splitlines()
        assert lines[0] == "method,iter,x1,x2"
        methods = {line.split(",")[0] for line in lines[1:]}
        assert methods == {"steepest_descent", "heavy_ball"}
        iters = [line.split(",")[1] for line in lines[1:6]]
        assert iters == ["0", "5", "10", "15", "20"]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        delta=st.floats(1e-3, 0.5),
        alpha=st.floats(0.05, 1.9),
        beta=st.floats(0.0, 0.99),
        x0=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        threshold=st.floats(1e-3, 10.0),
    )
    def test_escapes_match_escape_time(self, delta, alpha, beta, x0, threshold):
        fig = toy_figure(delta, alpha, beta, x0, iterations=400, thin=3, threshold=threshold)
        problem, start = toy_problem(delta), np.array(x0)
        projector = problem.negative_projector()
        descent = run_gradient_descent(problem, alpha, start, 400)
        heavy = run_heavy_ball(problem, alpha, beta, start, EqualStart(), 400)
        assert fig.descent_escape == escape_time(descent, projector, threshold)
        assert fig.heavy_ball_escape == escape_time(heavy, projector, threshold)
        assert np.array_equal(fig.descent, descent.points[::3])
        assert np.array_equal(fig.heavy_ball, heavy.points[::3])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold": float("nan")},
            {"threshold": float("inf")},
            {"threshold": 0.0},
            {"beta": 1.0},
            {"beta": -0.1},
            {"x0": [0.25, 0.01, 0.0]},
        ],
    )
    def test_domain(self, kwargs):
        args = {"delta": 0.02, "alpha": 0.75, "beta": 0.985, "x0": [0.25, 0.01], "iterations": 5, **kwargs}
        with pytest.raises(ValueError):
            toy_figure(**args)

    @pytest.mark.parametrize("thin", [1, 2])
    def test_a_run_whose_last_iterate_overflows_is_rejected(self, thin):
        # the run stops at its overflowed step, which a thinned figure would not even keep
        with pytest.raises(ValueError, match=r"^the steepest_descent run overflows at step 1, to x = \[-inf, 0\.0\]$"):
            toy_figure(0.02, 1e308, 0.5, [1e99, 0.0], 3, thin)


class TestNegspaceExperiment:
    def test_method_ordering_at_matched_step(self):
        series = negspace_experiment(n=100, p=1, delta=1e-2, seed=0, iterations=2000)
        m = min(series.steepest_descent.size, series.heavy_ball.size, series.accelerated.size) - 1
        assert series.accelerated[m] > series.heavy_ball[m] > series.steepest_descent[m]

    def test_accelerated_tracks_predictor_at_escape(self):
        # at the predictor's first crossing of the unit threshold the realized
        # accelerated run is within one order of magnitude of the prediction
        for seed in (0, 1, 2):
            series = negspace_experiment(n=100, p=1, delta=1e-2, seed=seed, iterations=400)
            k = int(np.nonzero(series.predicted >= 1.0)[0][0])
            ratio = series.predicted[k] / series.accelerated[k]
            assert 0.1 <= ratio <= 10.0

    def test_resolved_parameters(self):
        series = negspace_experiment(n=50, p=1, delta=2e-2, seed=3, iterations=50)
        params = series.params
        assert params["lambda_n"] == -2e-2
        assert params["alpha"] == pytest.approx(1.0 / params["lipschitz"], rel=1e-15)
        assert params["beta_heavy_ball"] == pytest.approx(
            1.0 - params["alpha"] * 2e-2, rel=1e-12
        )
        assert params["alpha_accelerated"] == pytest.approx(0.99 * params["alpha"], rel=1e-15)

    def test_multiple_negative_eigenvalues(self):
        series = negspace_experiment(n=30, p=3, delta=5e-2, seed=4, iterations=100)
        assert series.params["lambda_n"] <= -5e-2
        assert series.steepest_descent.size == 101

    def test_same_seed_gives_identical_csv_bytes(self):
        out = []
        for _ in range(2):
            series = negspace_experiment(n=40, p=1, delta=1e-2, seed=9, iterations=120)
            out.append("".join(series.to_csv()))
        assert out[0] == out[1]

    def test_csv_pads_truncated_series(self):
        # long enough that the momentum runs hit the divergence cutoff first
        series = negspace_experiment(n=30, p=1, delta=5e-2, seed=5, iterations=2500)
        assert series.accelerated.size < series.steepest_descent.size
        lines = "".join(series.to_csv()).splitlines()
        assert len(lines) == 1 + series.steepest_descent.size
        tail = lines[-1].split(",")
        assert tail[2] == "" and tail[3] == ""  # heavy-ball and accelerated padded

    @pytest.mark.parametrize("n, p", [(10, 10), (10, 11), (0, 1), (10, 0)])
    def test_p_and_n_domain(self, n, p):
        with pytest.raises(ValueError, match=f"1 <= p < n, got p={p}, n={n}"):
            negspace_experiment(n=n, p=p, iterations=5)

    @pytest.mark.parametrize("p", [1, 3])
    def test_problem_is_random_problems_draw(self, p):
        rng = rng_from(8, 0)
        problem = random_problem(40, p, 3e-2, rng)
        x0 = sample_unit_ball(40, rng)
        series = negspace_experiment(n=40, p=p, delta=3e-2, seed=8, iterations=5)
        assert series.params["lambda_n"] == problem.eigenvalues[-1]
        assert series.params["lipschitz"] == problem.lipschitz
        assert series.params["start_projection"] == float(row_norms(x0[problem.eigenvalues < 0][None])[0])

    def test_json_shape(self):
        series = negspace_experiment(n=30, p=1, delta=1e-2, seed=6, iterations=40)
        data = json.loads(json.dumps(series.to_json_dict(), default=np.ndarray.tolist))
        assert set(data) == {"steepest_descent", "heavy_ball", "accelerated", "predicted", "params"}
        assert len(data["steepest_descent"]) == 41


class TestStreamingEscape:
    def test_matches_trace_based_escape_time(self):
        for seed in range(5):
            prob = random_problem(12, 3, 5e-2, seed=seed)
            rng = rng_from(seed, 3)
            x0 = sample_unit_ball(12, rng)
            mask = prob.eigenvalues < 0
            alpha = 1.0 / prob.lipschitz
            threshold = 3.0

            trace = run_gradient_descent(prob, alpha, x0, 4000)
            expected = escape_time(trace, prob.negative_projector(), threshold)
            steps, censored = _escape_steps(
                prob.eigenvalues[mask], x0[mask], alpha, GRADIENT_DESCENT, threshold, 4000
            )
            assert not censored and steps == expected

            trace = run_accelerated(prob, 0.99 * alpha, NesterovSchedule(), x0, EqualStart(), 4000)
            expected = escape_time(trace, prob.negative_projector(), threshold)
            steps, censored = _escape_steps(
                prob.eigenvalues[mask], x0[mask], 0.99 * alpha, NesterovSchedule(), threshold, 4000
            )
            assert not censored and steps == expected

    def test_cap_reports_censoring(self):
        steps, censored = _escape_steps(
            np.array([-0.01]), np.array([1e-3]), 1.0, GRADIENT_DESCENT, 1e6, cap=10
        )
        assert censored and steps == 10


def per_cell_csv(header, rows):
    """The CSV text of ``rows``, each cell formatted on its own: None is an empty cell, a float ``f"{v:.12g}"``."""
    def cell(value):
        return "" if value is None else f"{value:.12g}" if isinstance(value, float) else str(value)

    return [header] + [",".join(map(cell, row)) for row in rows]


def ragged_columns(lengths, seed=0):
    # magnitudes from 1e-20 to 1e20 in both notations, with inf and nan cells on both sides of a chunk edge
    rng = np.random.default_rng(seed)
    columns = [rng.standard_normal(size) * 10.0 ** rng.integers(-20, 21, size) for size in lengths]
    for column in columns:
        edges = [k for k in (0, 2047, 2048, 4095) if k < column.size]
        column[edges] = [np.inf, -np.inf, np.nan, -0.0][: len(edges)]
    return columns


class TestSeriesCsv:
    """The chunked row formatter against one ``f"{v:.12g}"`` per cell."""

    @pytest.mark.parametrize(
        "lengths", [(5000, 2048, 2049, 5000), (2047, 1, 4097, 4096), (3, 3, 3, 3), (4100, 0, 2, 4100)]
    )
    def test_negspace_csv(self, lengths):
        columns = ragged_columns(lengths)
        series = NegspaceSeries(*columns, params={})
        rows = [
            [k, *(c[k].item() if k < c.size else None for c in columns)] for k in range(max(lengths))
        ]
        expected = per_cell_csv("iter,steepest_descent,heavy_ball,accelerated,predicted", rows)
        chunks = list(series.to_csv())
        assert "".join(chunks).split("\n")[:-1] == expected
        assert max(chunk.count("\n") for chunk in chunks) <= 2048

    @pytest.mark.parametrize("lengths, thin", [((2049, 2), 1), ((1, 4097), 3), ((2048, 2048), 7)])
    def test_toy_csv(self, lengths, thin):
        descent, heavy_ball = (
            np.stack(ragged_columns((size, size), seed), axis=1) for seed, size in enumerate(lengths)
        )
        figure = ToyFigure(
            thin=thin, descent=descent, heavy_ball=heavy_ball, descent_escape=None, heavy_ball_escape=None
        )
        rows = [
            [name, j * thin, *block[j].tolist()]
            for name, block in (("steepest_descent", descent), ("heavy_ball", heavy_ball))
            for j in range(len(block))
        ]
        assert "".join(figure.to_csv()).split("\n")[:-1] == per_cell_csv("method,iter,x1,x2", rows)


class TestDivergenceTable:
    def test_structure_and_summaries(self):
        result = divergence_table(ns=[40], deltas=[2e-2], trials=5, seed=1)
        assert len(result.trials) == 5
        cells = result.cells()
        assert [(cell.n, cell.delta) for cell in cells] == [(40, 2e-2)]
        assert cells.methods.dtype.names == TABLE_METHODS
        for method in TABLE_METHODS:
            row = result.row(40, 2e-2, method)
            per_trial = [getattr(rec, method) for rec in result.trials]
            assert row.avg_iters == pytest.approx(np.mean(per_trial))
            assert row.max_iters == max(per_trial)
            assert row.avg_iters <= row.max_iters

    def test_deterministic_in_master_seed(self):
        a = divergence_table(ns=[30], deltas=[2e-2], trials=4, seed=7)
        b = divergence_table(ns=[30], deltas=[2e-2], trials=4, seed=7)
        assert "".join(cli._json_chunks(a.to_json_dict())) == "".join(cli._json_chunks(b.to_json_dict()))

    def test_accelerated_beats_descent_per_trial(self):
        result = divergence_table(ns=[60], deltas=[1e-2], trials=10, seed=3)
        for rec in result.trials:
            assert rec.accelerated_gradient < rec.steepest_descent

    def test_predictor_average_below_accelerated(self):
        result = divergence_table(ns=[60], deltas=[1e-2], trials=10, seed=3)
        assert (
            result.row(60, 1e-2, "rate_predictor").avg_iters
            <= result.row(60, 1e-2, "accelerated_gradient").avg_iters
        )

    def test_predictor_follows_the_schedule_limit(self):
        schedule = ConstantSchedule(0.9, 0.0)
        result = divergence_table(ns=[30], deltas=[2e-2], trials=3, seed=1, schedule=schedule)
        nesterov = divergence_table(ns=[30], deltas=[2e-2], trials=3, seed=1)
        for rec, other in zip(result.trials, nesterov.trials):
            rng = rng_from(1, 0, rec.trial)
            problem = random_problem(30, 5, 2e-2, rng)
            x0 = sample_unit_ball(30, rng)
            mask = problem.eigenvalues < 0
            limit = rate_limit(problem.eigenvalues[-1], 0.99 / problem.lipschitz, 0.9, 0.0)
            assert rec.rate_predictor == predicted_escape_iters(limit, row_norms(x0[mask][None])[0], 30.0)
            assert rec.rate_predictor > other.rate_predictor

    def test_censoring_recorded_at_the_cap_without_a_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = divergence_table(ns=[30], deltas=[1e-2], trials=2, seed=0, iteration_cap=5)
        assert caught == []
        row = result.row(30, 1e-2, "steepest_descent")
        assert row.censored == 2
        assert row.avg_iters == 5.0
        assert all("steepest_descent" in rec.censored for rec in result.trials)

    def test_one_censored_count_per_cell_and_method(self):
        result = divergence_table(ns=[30], deltas=[1e-2, 2e-2], trials=3, seed=0, iteration_cap=5)
        cells = result.cells()
        assert [(cell.n, cell.delta) for cell in cells] == [(30, 1e-2), (30, 2e-2)]
        for cell in cells:
            trials = [rec for rec in result.trials if rec.delta == cell.delta]
            for method in TABLE_METHODS:
                assert cell.methods[method].censored == sum(method in rec.censored for rec in trials)
        # no method escapes within 5 steps
        assert [cell.methods[method].censored for cell in cells for method in TABLE_METHODS] == [3] * 6

    def test_cap_beyond_int64_is_accepted(self):
        # every trial escapes long before the cap, which only the censored trials would reach
        huge = divergence_table(ns=[30], deltas=[2e-2], trials=3, seed=1, iteration_cap=10**23)
        small = divergence_table(ns=[30], deltas=[2e-2], trials=3, seed=1, iteration_cap=10**6)
        assert huge.trials == small.trials and huge.cells().tolist() == small.cells().tolist()

    def test_stalled_trials_stop_and_are_censored_at_the_cap(self):
        # with delta = 1e-300 the accelerated step rounds to nothing from the start:
        # the rows stop as never crossing instead of running toward the 1e23 cap
        result = divergence_table(ns=[30], deltas=[1e-300], trials=3, seed=0, iteration_cap=10**23)
        assert all(rec.accelerated_gradient == 10**23 for rec in result.trials)
        assert all(rec.censored == TABLE_METHODS for rec in result.trials)
        for method in TABLE_METHODS:
            row = result.row(30, 1e-300, method)
            assert row.censored == 3 and row.max_iters == 10**23 and row.avg_iters == 1e23

    def test_threshold_at_or_below_start_projection_counts_zero(self):
        # the count includes the start (step 0), as escape_time counts it
        result = divergence_table(ns=[30], deltas=[1e-2], trials=3, seed=0, threshold=1e-12)
        for rec in result.trials:
            assert (rec.steepest_descent, rec.accelerated_gradient, rec.rate_predictor) == (0, 0, 0)
            assert rec.censored == ()
        for method in TABLE_METHODS:
            row = result.row(30, 1e-2, method)
            assert row.max_iters == 0 and row.censored == 0

    @settings(max_examples=40, deadline=None)
    @given(
        ns=st.lists(st.integers(6, 40), min_size=1, max_size=2, unique=True),
        deltas=st.lists(st.sampled_from([5e-3, 1e-2, 2e-2, 5e-2]), min_size=1, max_size=2, unique=True),
        trials=st.integers(1, 4),
        cap=st.sampled_from([0, 1, 5, 10**6, 10**23]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cells_summarize_their_trials(self, ns, deltas, trials, cap, seed):
        result = divergence_table(ns=ns, deltas=deltas, trials=trials, seed=seed, iteration_cap=cap)
        cells = result.cells()
        assert [(cell.n, cell.delta) for cell in cells] == sorted((n, delta) for n in ns for delta in deltas)
        for cell in cells:
            group = [rec for rec in result.trials if (rec.n, rec.delta) == (cell.n, cell.delta)]
            assert len(group) == trials
            for method in TABLE_METHODS:
                counts = [getattr(rec, method) for rec in group]
                censored = sum(method in rec.censored for rec in group)
                assert cell.methods[method].tolist() == (sum(counts) / trials, max(counts), censored)
                assert result.row(cell.n, cell.delta, method).tolist() == cell.methods[method].tolist()

    def test_row_of_a_missing_cell_or_method_raises_key_error(self):
        result = divergence_table(ns=[30], deltas=[2e-2], trials=2, seed=0)
        for n, delta, method in [(40, 2e-2, "steepest_descent"), (30, 1e-2, "steepest_descent"), (30, 2e-2, "x")]:
            with pytest.raises(KeyError, match="no table row"):
                result.row(n, delta, method)

    def test_table_of_no_cells(self):
        result = divergence_table(ns=[], deltas=[1e-2], trials=1)
        assert result.trials == () and len(result.cells()) == 0
        assert "".join(result.to_csv()) == "n,delta,row_type,trial_or_method," + ",".join(TABLE_METHODS) + "\n"
        text = "".join(cli._json_chunks(result.to_json_dict()))
        assert text.endswith('  "cells": []\n}\n')
        assert json.loads(text) == {"seed": 0, "trials": 1, "iteration_cap": 10**6, "cells": []}

    def test_threshold_domain(self):
        for threshold in (0.0, float("nan"), 1e101):
            with pytest.raises(ValueError):
                divergence_table(ns=[30], deltas=[1e-2], trials=1, seed=0, threshold=threshold)

    def test_csv_has_trial_and_summary_rows(self):
        result = divergence_table(ns=[30], deltas=[2e-2], trials=3, seed=2)
        lines = "".join(result.to_csv()).splitlines()
        assert lines[0] == "n,delta,row_type,trial_or_method," + ",".join(TABLE_METHODS)
        kinds = [line.split(",")[2] for line in lines[1:]]
        assert kinds.count("trial") == 3
        assert kinds.count("average") == 1 and kinds.count("max") == 1

    def test_json_summary_shape(self):
        result = divergence_table(ns=[30], deltas=[2e-2, 1e-2], trials=3, seed=2)
        data = json.loads("".join(cli._json_chunks(result.to_json_dict())))
        assert data["trials"] == 3
        assert [(cell["n"], cell["delta"]) for cell in data["cells"]] == [(30, 1e-2), (30, 2e-2)]
        for cell in data["cells"]:
            assert list(cell["methods"]) == list(TABLE_METHODS)
            for method, summary in cell["methods"].items():
                row = result.row(30, cell["delta"], method)
                assert summary == {"avg_iters": row.avg_iters, "max_iters": row.max_iters, "censored": row.censored}

    def test_trials_domain(self):
        with pytest.raises(ValueError):
            divergence_table(ns=[30], deltas=[1e-2], trials=0, seed=0)

    @pytest.mark.parametrize(
        "ns, cap, message",
        [
            ([100, 5], 50, r"each n must be at least 6, got \[100, 5\]"),
            ([100], -1, "iteration_cap must be nonnegative, got -1"),
        ],
    )
    def test_small_n_or_negative_cap_rejected_before_any_cell(self, monkeypatch, ns, cap, message):
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(experiments, "random_problem", no_cell)
        with pytest.raises(ValueError, match=message):
            divergence_table(ns=ns, deltas=[1e-2], trials=2, seed=0, iteration_cap=cap)

    @pytest.mark.parametrize(
        "ns, deltas, name",
        [
            ([30, 30], [2e-2], "n"),
            ([30, 40, 30.0], [2e-2], "n"),
            ([30], [2e-2, 1e-2, 0.020], "delta"),
            ([30], ["0.02", "0.020"], "delta"),
        ],
    )
    def test_repeated_cell_rejected(self, ns, deltas, name):
        # a repeated cell used to add its trials while its summary rows were dropped
        with pytest.raises(ValueError, match=f"each {name} must be listed once"):
            divergence_table(ns=ns, deltas=deltas, trials=2, seed=0, iteration_cap=50)
