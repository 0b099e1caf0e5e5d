import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from saddlescape import (
    SCHEDULE_KINDS,
    NesterovSchedule,
    PerturbedStart,
    RateSequence,
    SpectrumClassification,
    block_roots,
    classify_saddle_map,
    cli,
    divergence_table,
    negspace_experiment,
    random_problem,
    rate_sequence,
    rates,
    toy_figure,
)
from saddlescape.experiments import TABLE_METHODS
from saddlescape.rates import MAX_STEPS, _series_rows
from saddlescape.schedules import _CHUNK, TkPropertyReport


def plain(value):
    """A numpy array or record as ``json.dumps`` writes it: a list, with each record of a structured one an object.

    Any other value, such as the int of an ``object`` field, is returned as it is.
    """
    if not isinstance(value, (np.ndarray, np.generic)):
        return value
    if value.dtype.names is None:
        return value.tolist()
    if isinstance(value, np.void):
        return {name: plain(value[name]) for name in value.dtype.names}
    return [plain(record) for record in value]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_writer_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def assert_rates_csv_matches_csv_writer(capsys, tmp_path, spec, iters=70000):
    # b_k ~ 1e-9 prints in exponent form; 70000 rows cross a window of the streamed recurrence
    argv = ["rates", "--lambda=-1e-9", "--alpha", "0.99", "--iters", str(iters), "--format", "csv",
            "--schedule", spec]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "rates.csv"
    assert run_cli(capsys, *argv, "--out", str(path))[0] == 0
    written = path.read_bytes()
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["iter", "b"])
    schedule = cli._parse_schedule_spec(spec, None, None, None)
    for k, value in enumerate(rate_sequence(-1e-9, 0.99, schedule, iters).values):
        writer.writerow([str(k), f"{value:.12g}"])
    lines = out.split("\n")
    assert "e-" in lines[2]
    # line lists, not whole texts: pytest's diff of two 1.6 MB strings takes minutes
    assert lines == buffer.getvalue().split("\n")
    assert written == out.encode("utf-8")


class TestToyCommand:
    def test_csv_with_two_blocks(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        code, _, err = run_cli(
            capsys,
            "toy", "--delta", "0.02", "--alpha", "0.75", "--beta", "0.985",
            "--x0", "0.25,0.01", "--iters", "500", "--thin", "5", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,iter,x1,x2"
        methods = {line.split(",")[0] for line in lines[1:]}
        assert methods == {"steepest_descent", "heavy_ball"}
        assert "config" in err and "toy" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "toy", "--iters", "20", "--json")
        assert code == 0
        data = json.loads(out)
        assert set(data) >= {"descent", "heavy_ball", "thin"}

    def test_csv_matches_csv_writer(self, capsys):
        code, out, _ = run_cli(capsys, "toy", "--iters", "800", "--thin", "3")
        assert code == 0
        fig = toy_figure(0.02, 0.75, 0.985, [0.25, 0.01], 800, 3)
        rows = [["method", "iter", "x1", "x2"]]
        for name, block in (("steepest_descent", fig.descent), ("heavy_ball", fig.heavy_ball)):
            rows += [[name, str(3 * j), f"{a:.12g}", f"{b:.12g}"] for j, (a, b) in enumerate(block)]
        assert out == csv_writer_text(rows)

    def test_bad_x0_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "toy", "--x0", "1,2,3")
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--beta", "1"], "beta must lie in [0, 1)"),
            (["--x0", "1,2,3"], "x0 must have two components"),
            (["--threshold", "nan"], "threshold must be positive and finite"),
            (["--thin", "0"], "thin must be at least 1"),
            (["--alpha", "0"], "alpha must be positive and finite"),
            (["--delta", "1.5"], "delta must lie in (0, 1)"),
            (["--x0", "nan,1"], "starts and predecessors must be finite"),
        ],
    )
    def test_every_input_is_checked_before_a_run(self, capsys, argv, message):
        # a run of 10**14 steps fails the stored trace's bound unless every other input is checked first
        code, _, err = run_cli(capsys, "toy", "--iters", "100000000000000", *argv)
        assert code == 1 and message in err

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["csv", "json"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_an_overflowing_step_exits_one_before_the_echo(self, capsys, tmp_path, fmt, to_file):
        path = tmp_path / "fig.txt"
        argv = ["toy", "--alpha", "1e308", "--x0", "1e99,0", "--iters", "3", *fmt]
        code, out, err = run_cli(capsys, *argv, *(["--out", str(path)] if to_file else []))
        assert code == 1 and out == "" and not path.exists()
        assert err == "saddlescape: error: the steepest_descent run overflows at step 1, to x = [-inf, 0.0]\n"


class TestSpectrumCommand:
    def test_single_eigenvalue_roots(self, capsys):
        code, out, err = run_cli(
            capsys, "spectrum", "--lambda=-0.02", "--alpha", "3", "--beta", "0.94", "--json"
        )
        assert code == 0
        block = json.loads(out)["blocks"][0]
        root = math.sqrt(0.06)
        assert abs(block["mu_hi"]["re"] - (1.0 + root)) <= 1e-12
        assert abs(block["mu_lo"]["re"] - (1.0 - root)) <= 1e-12
        assert block["mu_hi"]["im"] == 0.0
        assert block["class"] == "unstable"
        assert "spectrum" in err

    def test_problem_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--n", "20", "--p", "2", "--delta", "0.01",
            "--seed", "5", "--beta", "0.9",
        )
        assert code == 0
        data = json.loads(out)
        assert data["unstable_dim"] == 2
        assert len(data["blocks"]) == 20

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--lambda=-0.02", "--alpha", "3", "--beta", "0.94",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "lambda,mu_hi_re,mu_hi_im,mu_lo_re,mu_lo_im,class"

    def test_problem_csv_matches_csv_writer(self, capsys):
        argv = ["spectrum", "--n", "30", "--p", "3", "--delta", "0.01", "--beta", "0.9"]
        _, report, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["lambda", "mu_hi_re", "mu_hi_im", "mu_lo_re", "mu_lo_im", "class"])
        for block in json.loads(report)["blocks"]:
            hi, lo = block["mu_hi"], block["mu_lo"]
            writer.writerow(
                [f"{v:.12g}" for v in (block["lambda"], hi["re"], hi["im"], lo["re"], lo["im"])]
                + [block["class"]]
            )
        assert out == buffer.getvalue()

    @pytest.mark.parametrize("lam", ["-0.02", "0", "0.5"])
    def test_single_block_csv_matches_its_json(self, capsys, lam):
        argv = ["spectrum", f"--lambda={lam}", "--alpha", "3", "--beta", "0.94"]
        _, report, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        (block,) = json.loads(report)["blocks"]
        assert block["class"] == {"-0.02": "unstable", "0": "unit", "0.5": "stable"}[lam]
        hi, lo = block["mu_hi"], block["mu_lo"]
        row = [f"{v:.12g}" for v in (block["lambda"], hi["re"], hi["im"], lo["re"], lo["im"])]
        expected = [["lambda", "mu_hi_re", "mu_hi_im", "mu_lo_re", "mu_lo_im", "class"], row + [block["class"]]]
        assert out == csv_writer_text(expected)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "4200", "--p", "7", "--delta", "0.01", "--beta", "0.9", "--seed", "3"],  # rows of three chunks
            ["--lambda=-0.02", "--alpha", "3", "--beta", "0.94"],
            ["--lambda=0.5", "--alpha", "3", "--beta", "0.94"],
        ],
    )
    def test_csv_rows_are_the_12_digit_format_of_the_roots(self, capsys, argv):
        code, out, _ = run_cli(capsys, "spectrum", *argv, "--format", "csv")
        assert code == 0
        if argv[0] == "--n":
            prob = random_problem(4200, 7, 0.01, 3)
            result = classify_saddle_map(prob, 1.0 / prob.lipschitz, 0.9)
        else:
            result = SpectrumClassification(block_roots([float(argv[0].partition("=")[2])], 3.0, 0.94))
        rows = [
            f"{p.lam:.12g},{p.mu_hi.real:.12g},{p.mu_hi.imag:.12g},{p.mu_lo.real:.12g},{p.mu_lo.imag:.12g},{label}\n"
            for p, label in zip(result.pairs, result.blocks["class"])
        ]
        assert out == "lambda,mu_hi_re,mu_hi_im,mu_lo_re,mu_lo_im,class\n" + "".join(rows)

    def test_missing_mode_flags(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--beta", "0.9")
        assert code == 1
        assert "error" in err


class TestRatesCommand:
    def test_json_report_keys(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--lambda=-0.01", "--alpha", "0.99", "--schedule", "nesterov",
            "--iters", "500",
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {
            "lambda", "alpha", "schedule", "b_final", "b_limit", "predicted_escape_iters",
        }
        assert data["schedule"] == {"kind": "nesterov"}
        assert 0.0 < data["b_final"] < data["b_limit"]

    def test_csv_sequence(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--lambda=-0.01", "--alpha", "0.5", "--schedule",
            "constant:0.5,0.5", "--iters", "10", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "iter,b"
        assert len(lines) == 12
        assert float(lines[1].split(",")[1]) == 0.0

    def test_toy_schedule_uses_curvature(self, capsys):
        code, out, _ = run_cli(
            capsys, "rates", "--lambda=-0.02", "--alpha", "0.75", "--schedule", "toy",
            "--iters", "10",
        )
        assert code == 0
        data = json.loads(out)
        assert data["schedule"]["kind"] == "toy"
        assert data["schedule"]["delta"] == 0.02

    def test_growth_below_rounding_still_returns(self, capsys):
        # 1 + b_limit rounds to 1.0 here (a = 1e-50, b ~ 1e-25); the prediction used to loop forever
        code, out, _ = run_cli(capsys, "rates", "--lambda=-1e-40", "--alpha", "1e-10")
        assert code == 0
        data = json.loads(out)
        assert 1.0 + data["b_limit"] == 1.0
        assert data["predicted_escape_iters"] == math.ceil(
            math.log(1.0 / 1e-2) / math.log1p(data["b_limit"])
        )

    def test_csv_bytes_on_stdout_and_file_match_csv_writer(self, capsys, tmp_path):
        # b_1..b_iters are formatted _CHUNK // 2 rows (2 cells each) at a time: these end inside, at and past a chunk
        for iters in (70000, _CHUNK // 2 - 1, _CHUNK // 2, _CHUNK // 2 + 1):
            assert_rates_csv_matches_csv_writer(capsys, tmp_path, "nesterov", iters)

    @pytest.mark.parametrize("spec", ["attouch:2", "constant:0.5,0.5"])
    def test_streamed_csv_of_other_schedules_matches_csv_writer(self, capsys, tmp_path, spec):
        assert_rates_csv_matches_csv_writer(capsys, tmp_path, spec)

    @pytest.mark.parametrize("spare", [True, False], ids=["forked", "one-cpu"])
    @pytest.mark.parametrize("lam", [-1e-4, -1.1e-4])
    def test_csv_is_the_series_rows_text(self, capsys, monkeypatch, assert_no_child, spare, lam):
        # at -1e-4, b_1 prints as 9.9e-05; at -1.1e-4, b crosses 0.01 at k = 2752, inside the second chunk of rows
        rows = _CHUNK // 2
        iters = 2 * rows + 100
        monkeypatch.setattr(rates, "_spare_cpu", lambda: spare)
        code, out, _ = run_cli(capsys, "rates", f"--lambda={lam!r}", "--alpha", "0.99", "--iters", str(iters),
                               "--format", "csv")
        values = rate_sequence(lam, 0.99, NesterovSchedule(), iters).values
        assert code == 0
        assert out.split("\n") == ("iter,b\n" + "".join(_series_rows("", range(iters + 1), [values]))).split("\n")
        if lam == -1e-4:
            assert out.split("\n")[2] == "1,9.9e-05"
        else:
            assert values[rows + 1] < 0.01 <= values[2 * rows]
        assert_no_child()

    def test_json_memory_does_not_grow_with_the_length(self, capsys):
        # the recurrence streams one window at a time: the whole sequence alone
        # is 16 MB at 2M steps, and the peak was 46 MiB when it was held
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "rates", "--lambda=-0.004", "--alpha", "0.99", "--json",
                                   "--iters", "2000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["b_final"] > 0
        assert peak < 16 * 2**20

    def test_help_states_the_length_bound(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--help")
        assert code == 0 and f"from 1 to {MAX_STEPS}" in " ".join(out.split())

    def test_help_states_the_growth_factor_bound(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--help")
        assert code == 0
        assert "for a = alpha*|lambda|, b_k's bound a + sqrt(a)*sqrt(1 + a) must be finite" in " ".join(out.split())

    def test_failing_chunk_removes_the_partial_file(self, capsys, tmp_path, monkeypatch):
        def failing_rows(self):
            yield "iter,b\n"
            raise ValueError("the second chunk failed")

        monkeypatch.setattr(RateSequence, "to_csv", failing_rows)
        path = tmp_path / "rates.csv"
        code, _, err = run_cli(capsys, "rates", "--lambda=-0.01", "--alpha", "0.5", "--format", "csv",
                               "--out", str(path))
        assert code == 1 and not path.exists()
        assert [line for line in err.splitlines() if "error" in line] == [
            "saddlescape: error: the second chunk failed"
        ]

    def test_stdout_of_a_process_is_its_out_file(self, tmp_path):
        # the recurrence's forked child inherits the unflushed stdout buffer; it must never write it
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        path = tmp_path / "rates.csv"
        argv = [sys.executable, "-m", "saddlescape", "rates", "--lambda=-1e-9", "--alpha", "0.99",
                "--iters", "70000", "--format", "csv"]
        to_stdout, to_file = (subprocess.run(cmd, env=env, capture_output=True, timeout=120)
                              for cmd in (argv, [*argv, "--out", str(path)]))
        assert to_stdout.returncode == to_file.returncode == 0 and to_file.stdout == b""
        written = path.read_bytes()
        assert len(to_stdout.stdout) == len(written) and to_stdout.stdout == written

    def test_late_schedule_error_removes_the_partial_file(self, capsys, tmp_path, late_failing_schedule,
                                                          assert_no_child):
        path = tmp_path / "rates.csv"
        code, _, err = run_cli(capsys, "rates", "--lambda=-0.01", "--alpha", "0.5", "--iters", "70000",
                               "--schedule", "late-failing:0.5", "--format", "csv", "--out", str(path))
        assert code == 1 and not path.exists()
        assert err.splitlines()[1:] == ["saddlescape: error: the second window failed"]
        assert_no_child()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failing_writer_exits_one_with_one_line(self, capsys, assert_no_child):
        code, out, err = run_cli(capsys, "rates", "--lambda=-0.01", "--alpha", "0.5", "--iters", "200000",
                                 "--format", "csv", "--out", "/dev/full")
        assert code == 1 and out == ""
        assert err.splitlines()[1:] == ["saddlescape: error: [Errno 28] No space left on device"]
        assert_no_child()

    def test_csv_needs_no_limit(self, capsys):
        # a = 1e160: the closed form of the limit overflows, but the CSV never reads it
        code, out, err = run_cli(
            capsys, "rates", "--lambda=-1e160", "--alpha", "1", "--iters", "3", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[:2] == ["iter,b", "0,0"]
        assert len(out.splitlines()) == 5
        assert "error" not in err
        code, _, err = run_cli(capsys, "rates", "--lambda=-1e160", "--alpha", "1", "--iters", "3")
        assert code == 1
        assert "closed form" in err

    def test_failed_run_writes_no_file(self, capsys, tmp_path):
        path = tmp_path / "rates.csv"
        code, _, _ = run_cli(
            capsys, "rates", "--lambda=-0.01", "--alpha", "0.5", "--iters", "0",
            "--format", "csv", "--out", str(path),
        )
        assert code == 1
        assert not path.exists()

    def test_prediction_past_float_range(self, capsys):
        code, out, err = run_cli(
            capsys, "rates", "--lambda=-0.01", "--alpha", "0.5",
            "--projection", "1e-300", "--threshold", "1e300",
        )
        assert code == 0
        assert "Traceback" not in err
        data = json.loads(out)
        ratio = math.log(1e300) - math.log(1e-300)
        assert abs(data["predicted_escape_iters"] - ratio / math.log1p(data["b_limit"])) <= 1.0

    def test_positive_lambda_rejected(self, capsys):
        code, _, err = run_cli(capsys, "rates", "--lambda", "0.1", "--alpha", "0.5")
        assert code == 1
        assert "negative" in err

    def test_descent_limit_far_below_one(self, capsys):
        # limits (0, 0) at a = 1e-17: the limit used to cancel to 0.0 and fail the prediction
        code, out, err = run_cli(
            capsys, "rates", "--schedule", "constant:0,0", "--lambda=-1e-17", "--alpha", "1",
        )
        assert code == 0, err
        assert json.loads(out)["b_limit"] == 1e-17


class TestScheduleSpec:
    RATES = ["rates", "--lambda=-0.01", "--alpha", "0.5", "--iters", "5"]

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("polyak:0.01", "polyak:M,L"),
            ("polyak:0.01,1,2", "polyak:M,L"),
            ("constant", "constant:B,G"),
            ("constant:0.1,0.2,0.3", "constant:B,G"),
            ("attouch:1,2", "attouch:ETA"),
            ("nesterov:3", "nesterov"),
            ("toy:0.5", "toy"),
        ],
    )
    def test_wrong_arity_names_the_spec(self, capsys, spec, expected):
        code, out, err = run_cli(capsys, *self.RATES, "--schedule", spec)
        assert code == 1
        assert out == ""
        assert err.startswith("saddlescape: error:") and err.count("\n") == 1
        assert f"'{expected}'" in err

    def test_unknown_kind_lists_the_specs(self, capsys):
        code, out, err = run_cli(capsys, *self.RATES, "--schedule", "cosine:1")
        assert code == 1
        assert out == ""
        assert "unknown schedule 'cosine:1'" in err
        assert all(cls.spec in err for cls in SCHEDULE_KINDS.values())

    def test_help_lists_every_spec(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--help")
        assert code == 0
        assert "constant:B,G | polyak:M,L | nesterov | attouch:ETA | toy" in " ".join(out.split())

    def test_defaults_of_short_specs(self, capsys):
        for spec, schedule in [
            ("attouch", {"kind": "attouch", "eta": 2.0}),
            ("constant:0.5", {"kind": "constant", "beta": 0.5, "gamma": 0.0}),
        ]:
            code, out, _ = run_cli(capsys, *self.RATES, "--schedule", spec)
            assert code == 0
            assert json.loads(out)["schedule"] == schedule

    @pytest.mark.parametrize(
        "spec", ["attouch:nan", "attouch:inf", "polyak:0.01,inf", "polyak:nan,1", "constant:nan"]
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_parameters_write_nothing(self, capsys, tmp_path, spec, fmt):
        path = tmp_path / "rates.out"
        for out_flags in ([], ["--out", str(path)]):
            code, out, err = run_cli(
                capsys, *self.RATES, "--schedule", spec, "--format", fmt, *out_flags
            )
            assert code == 1
            assert out == ""
            assert err.startswith("saddlescape: error:") and err.count("\n") == 1
        assert not path.exists()


class TestSimulateCommand:
    def test_identical_bytes_for_identical_argv(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                capsys, "simulate", "--n", "40", "--delta", "0.01", "--seed", "3",
                "--iters", "200", "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_header_and_series(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--n", "30", "--iters", "50")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "iter,steepest_descent,heavy_ball,accelerated,predicted"
        assert len(lines) == 52
        assert "seed" in err

    @pytest.mark.parametrize(
        "argv, kwargs",
        [
            # a run that stops at the divergence cutoff leaves empty cells
            (["--n", "30", "--delta", "0.05", "--seed", "5", "--iters", "2500"],
             {"n": 30, "delta": 0.05, "seed": 5, "iterations": 2500}),
            (["--n", "40", "--p", "3", "--iters", "200", "--eps-perturb", "1e-6"],
             {"n": 40, "p": 3, "iterations": 200, "start_policy": PerturbedStart(1e-6, 0)}),
        ],
    )
    def test_csv_matches_csv_writer(self, capsys, argv, kwargs):
        code, out, _ = run_cli(capsys, "simulate", *argv)
        assert code == 0
        series = negspace_experiment(**kwargs)
        blocks = [series.steepest_descent, series.heavy_ball, series.accelerated, series.predicted]
        rows = [["iter", "steepest_descent", "heavy_ball", "accelerated", "predicted"]]
        for k in range(max(block.size for block in blocks)):
            rows.append([str(k)] + [f"{b[k]:.12g}" if k < b.size else "" for b in blocks])
        assert out == csv_writer_text(rows)
        if kwargs["n"] == 30:
            assert rows[-1][2:4] == ["", ""]

    def test_one_start_projection_opens_every_series(self, capsys):
        # the measured series, the predictor and the echoed start are one norm of the start
        code, out, _ = run_cli(capsys, "simulate", "--p", "3", "--seed", "0", "--iters", "5", "--json")
        assert code == 0
        data = json.loads(out)
        firsts = {data[name][0] for name in ("steepest_descent", "heavy_ball", "accelerated", "predicted")}
        assert firsts == {data["params"]["start_projection"]}

    def test_perturbed_predecessor(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "30", "--iters", "50", "--eps-perturb", "1e-6",
            "--format", "json",
        )
        assert code == 0
        json.loads(out)


class TestTableCommand:
    def test_csv_output(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--n", "30", "--delta", "0.02", "--trials", "3", "--seed", "2",
        )
        assert code == 0
        assert "warning" not in err  # no trial is censored
        lines = out.splitlines()
        assert lines[0].startswith("n,delta,row_type")
        assert len([l for l in lines if ",trial," in l]) == 3

    def test_csv_matches_csv_writer(self, capsys):
        # a cap of 60 censors some trials, so not every average is a whole number
        argv = ["--n", "30", "50", "--delta", "0.02", "0.001", "--trials", "4", "--seed", "1", "--iters", "60"]
        code, out, err = run_cli(capsys, "table", *argv)
        assert code == 0
        assert sum(line.startswith("saddlescape: warning: ") for line in err.splitlines()) == 1
        result = divergence_table(ns=[30, 50], deltas=[0.02, 0.001], trials=4, seed=1, iteration_cap=60)
        methods = ["steepest_descent", "accelerated_gradient", "rate_predictor"]
        rows = [["n", "delta", "row_type", "trial_or_method", *methods]]
        for rec in result.trials:
            rows.append([rec.n, f"{rec.delta:.12g}", "trial", rec.trial, *(getattr(rec, m) for m in methods)])
        for n, delta in [(30, 0.001), (30, 0.02), (50, 0.001), (50, 0.02)]:
            summary = [result.row(n, delta, m) for m in methods]
            rows.append([n, f"{delta:.12g}", "average", ""] + [f"{r.avg_iters:.12g}" for r in summary])
            rows.append([n, f"{delta:.12g}", "max", ""] + [r.max_iters for r in summary])
        summaries = [cell.methods[m] for cell in result.cells() for m in methods]
        assert any(summary.censored for summary in summaries)
        assert any(not summary.avg_iters.is_integer() for summary in summaries)
        assert out == csv_writer_text(rows)

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--n", "30", "--delta", "0.02", "0.01", "--trials", "2",
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["cells"]) == 2

    @pytest.mark.parametrize("deltas", [["0.02"], ["0.02", "0.01"]], ids=["one_cell", "two_cells"])
    def test_censored_run_prints_one_line_per_warning(self, tmp_path, deltas):
        # run in a child, where any warning Python raised would be printed, not recorded;
        # the cells are named in the outputs' sorted (n, delta) order, not in the order the deltas were given
        env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        argv = ["table", "--n", "30", "--delta", *deltas, "--trials", "2", "--iters", "5"]
        proc = subprocess.run(
            [sys.executable, "-m", "saddlescape", *argv, "--out", str(tmp_path / "table.csv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            "saddlescape: warning: trials that hit the iteration cap: "
            + "; ".join(
                f"2 of 2 {method} (n=30, delta={delta})" for delta in sorted(deltas, key=float) for method in TABLE_METHODS
            ),
            f'saddlescape table config: {{"delta": [{", ".join(deltas)}], "format": "csv", "iters": 5, "n": [30], '
            '"seed": 0, "threshold": null, "trials": 2}',
        ]

    def test_stalled_cell_with_a_cap_past_int64_ends(self, tmp_path):
        # the accelerated state is a fixed point from the start; the run used to loop toward the cap
        env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        argv = ["table", "--n", "30", "--delta", "1e-300", "--trials", "3", "--iters", "100000000000000000000000"]
        proc = subprocess.run(
            [sys.executable, "-m", "saddlescape", *argv, "--json"], env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0
        accelerated = json.loads(proc.stdout)["cells"][0]["methods"]["accelerated_gradient"]
        assert accelerated == {"avg_iters": 1e23, "max_iters": 10**23, "censored": 3}


class TestVerifyTkCommand:
    def test_reports_pass_and_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "verify-tk", "--K", "1000")
        assert code == 0
        data = json.loads(out)
        assert data["identity_max_err"] <= 1e-9
        assert data["passed"] is True
        assert "verify-tk" in err

    def test_memory_does_not_grow_with_the_count(self, capsys):
        # the terms stream one window at a time: the whole sequence alone is
        # 16 MB at 2M terms, and its reductions' temporaries several times that
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "verify-tk", "--K", "2000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["passed"] is True
        assert peak < 8 * 2**20

    def test_violation_exits_two(self, capsys, monkeypatch):
        failing = TkPropertyReport(
            count=10, identity_max_err=1.0, bound_ok=False,
            ratio_monotone=False, ratio_gap=1.0, final_ratio=0.0,
        )
        monkeypatch.setattr(cli, "verify_tk_properties", lambda count: failing)
        code, out, _ = run_cli(capsys, "verify-tk", "--K", "10")
        assert code == 2
        assert json.loads(out)["passed"] is False

    @pytest.mark.parametrize(
        "error, reason",
        [
            (MemoryError(), "an allocation failed"),
            (MemoryError("Unable to allocate 8.00 EiB"), "Unable to allocate 8.00 EiB"),
        ],
    )
    def test_memory_error_exits_one_with_one_line(self, capsys, monkeypatch, error, reason):
        def exhausted(count):
            raise error

        monkeypatch.setattr(cli, "verify_tk_properties", exhausted)
        assert run_cli(capsys, "verify-tk", "--K", "10") == (1, "", f"saddlescape: error: out of memory: {reason}\n")


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["toy", "--alpha", "nan"],
            ["table", "--delta", "nan", "--trials", "2"],
            ["simulate", "--delta", "nan", "--iters", "10"],
        ],
    )
    def test_nan_exits_one_with_one_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if line.startswith("saddlescape: error:")]
        assert len(errors) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["rates", "--lambda=-0.01", "--alpha", "inf"],
            ["rates", "--lambda=-0.01", "--alpha", "nan"],
            ["rates", "--lambda=nan", "--alpha", "0.5"],
            ["rates", "--lambda=-0.01", "--alpha", "0.5", "--projection", "nan"],
            ["spectrum", "--lambda=-0.01", "--alpha", "nan", "--beta", "0.5"],
            ["spectrum", "--lambda=nan", "--alpha", "0.5", "--beta", "0.5"],
            ["spectrum", "--n", "20", "--p", "2", "--delta", "0.01", "--alpha", "nan", "--beta", "0.5"],
            ["toy", "--x0", "nan,1", "--iters", "3"],
            ["simulate", "--delta", "nan", "--iters", "3"],
            ["table", "--delta", "nan", "--trials", "2"],
        ],
    )
    def test_rejected_before_the_config_echo(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("saddlescape: error:") and err.count("\n") == 1
        assert "NaN" not in err and "Infinity" not in err


class TestOutOfDomainInput:
    """Inputs that used to exit 0 with NaN output, or fail with numpy's own message."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["toy", "--threshold", "nan"], "threshold must be positive and finite"),
            (["toy", "--threshold", "inf", "--json"], "threshold must be positive and finite"),
            (["toy", "--beta", "1"], "beta must lie in [0, 1)"),
            (["rates", "--lambda=-0.01", "--alpha", "0.5", "--format", "csv",
              "--threshold", "nan", "--projection", "inf"], "--projection must be positive and finite"),
            (["rates", "--lambda=-0.01", "--alpha", "0.5", "--format", "csv", "--projection", "-1"],
             "--projection must be positive and finite"),
            (["rates", "--lambda=-0.01", "--alpha", "0.5", "--format", "csv", "--threshold", "inf"],
             "--threshold must be positive and finite"),
            (["rates", "--lambda=-0.01", "--alpha", "0.5", "--threshold", "0"],
             "--threshold must be positive and finite"),
            (["simulate", "--p", "10", "--n", "10"], "1 <= p < n, got p=10, n=10"),
            (["simulate", "--p", "11", "--n", "10"], "1 <= p < n, got p=11, n=10"),
            (["simulate", "--n", "0"], "1 <= p < n, got p=1, n=0"),
            (["simulate", "--p", "0"], "1 <= p < n, got p=0, n=100"),
            (["verify-tk", "--K", "1"], "count must be at least 2"),
            (["simulate", "--eps-perturb", "nan"], "epsilon must be positive and finite, got nan"),
            (["simulate", "--eps-perturb", "inf"], "epsilon must be positive and finite, got inf"),
            (["toy", "--x0", "1,2,3"], "x0 must have two components, got 3"),
            (["table", "--n", "30", "30", "--delta", "0.02", "--trials", "2", "--iters", "50"],
             "each n must be listed once, got [30, 30]"),
            (["table", "--n", "30", "--delta", "0.02", "0.020", "--trials", "2", "--iters", "50"],
             "each delta must be listed once, got [0.02, 0.02]"),
            (["spectrum", "--lambda=-0.01", "--alpha", "1", "--beta", "0.5",
              "--n", "5", "--p", "2", "--seed", "3"],
             "single-eigenvalue mode (--lambda) takes no --n, --p, --seed"),
            (["spectrum", "--lambda=-0.01", "--alpha", "1", "--beta", "0.5", "--delta", "0.01"],
             "single-eigenvalue mode (--lambda) takes no --delta"),
            (["spectrum", "--lambda=-0.01", "--alpha", "1", "--beta", "0.5", "--seed", "0"],
             "single-eigenvalue mode (--lambda) takes no --seed"),
            (["simulate", "--n", "10", "--iters", "5", "--seed", "-1"],
             "seed must be a nonnegative integer, got -1"),
            (["table", "--n", "10", "--trials", "2", "--iters", "5", "--seed", "-1"],
             "seed must be a nonnegative integer, got -1"),
            (["spectrum", "--n", "10", "--p", "2", "--delta", "0.01", "--beta", "0.9", "--seed", "-1"],
             "seed must be a nonnegative integer, got -1"),
            (["simulate", "--eps-perturb", "1e200"],
             "starts and predecessors must be finite and at most 1e+100 in magnitude"),
            (["toy", "--x0", "1e101,0"], "starts and predecessors must be finite and at most 1e+100 in magnitude"),
            (["rates", "--lambda=-0.01", "--alpha", "0.5", "--iters", "100000000000000"],
             "count must be at most 1000000000, got 100000000000000"),
            (["rates", "--gamma", "nan", "--lambda=-1", "--alpha", "0.5", "--json"],
             "--gamma must be nonnegative and finite, got nan"),
            (["rates", "--gamma", "-1", "--lambda=-1", "--alpha", "0.5", "--schedule", "toy"],
             "--gamma must be nonnegative and finite, got -1.0"),
            (["simulate", "--iters", "100000000000000"],
             "a stored trace holds at most 4000000 values, got 100000000000001"),
            (["toy", "--iters", "100000000000000"],
             "a stored trace holds at most 4000000 values, got 200000000000002"),
            (["verify-tk", "--K", "100000000000000"], "count must be at most 1000000000, got 100000000000000"),
            # one step past the limits both --help texts state
            (["toy", "--iters", "2000000"], "a stored trace holds at most 4000000 values, got 4000002"),
            (["simulate", "--p", "2", "--iters", "2000000"], "a stored trace holds at most 4000000 values, got 4000002"),
            (["spectrum", "--lambda=-0.02", "--alpha", "3"],
             "single-eigenvalue mode needs --lambda, --alpha and --beta"),
            (["spectrum", "--n", "20", "--p", "2", "--delta", "0.01"], "--beta is required"),
            # alpha*|lambda| = 1e-600 underflows to 0 in both formats
            (["rates", "--lambda=-1e-300", "--alpha", "1e-300", "--json"],
             "alpha*|lambda| underflows to 0 for alpha=1e-300, lambda=-1e-300"),
            (["rates", "--lambda=-1e-300", "--alpha", "1e-300", "--format", "csv"],
             "alpha*|lambda| underflows to 0 for alpha=1e-300, lambda=-1e-300"),
            # a stalled trial is censored at the cap, and a cell's average of such counts is a float
            (["table", "--n", "30", "--delta", "1e-300", "--trials", "1", "--iters", "1" + "0" * 400],
             "iteration_cap must be at most 1.79769e+308, the largest float"),
            # alpha*|lambda| = 3e-324 is subnormal: it was written as 4.94065645841e-324
            (["rates", "--lambda=-1e-200", "--alpha", "3e-124", "--schedule", "constant:0,0", "--format", "csv"],
             "alpha*|lambda| is subnormal for alpha=3e-124, lambda=-1e-200"),
            (["rates", "--lambda=-1e-200", "--alpha", "3e-124", "--json"],
             "alpha*|lambda| is subnormal for alpha=3e-124, lambda=-1e-200"),
            # a subnormal delta is named itself, not through a derived alpha*|lambda|
            (["simulate", "--delta", "1e-310"],
             "delta must lie in [2.2250738585072014e-308, 8.988465674311579e+307], got 1e-310"),
            (["table", "--n", "10", "--delta", "0.01", "1e-310", "--trials", "2"],
             "delta must lie in [2.2250738585072014e-308, 8.988465674311579e+307], got 1e-310"),
            # 2*delta overflows: numpy's uniform draw on [-2*delta, -delta] raised OverflowError
            (["table", "--n", "10", "--delta", "1e308", "--trials", "2", "--iters", "5"],
             "delta must lie in [2.2250738585072014e-308, 8.988465674311579e+307], got 1e+308"),
            (["spectrum", "--n", "10", "--p", "2", "--delta", "1e308", "--beta", "0.9"],
             "delta must lie in [2.2250738585072014e-308, 8.988465674311579e+307], got 1e+308"),
            # both used to surface later: n=5 as "p=5, n=5" after the n=100 cells ran, -1 as "iterations"
            (["table", "--n", "100", "5"], "each n must be at least 6, got [100, 5]"),
            (["table", "--iters", "-1"], "iteration_cap must be nonnegative, got -1"),
            # a positive lambda must keep alpha*lambda below 2*(1 + beta), the domain problem mode's conditions impose
            (["spectrum", "--lambda=5", "--alpha", "1", "--beta", "0.5", "--format", "csv"],
             "alpha*lambda must be below 2*(1 + beta) = 3.0 if lambda > 0, got 5.0"),
            (["spectrum", "--lambda=2", "--alpha", "1", "--beta", "0"],
             "alpha*lambda must be below 2*(1 + beta) = 2.0 if lambda > 0, got 2.0"),
            # every b_k is at most a + sqrt(a)*sqrt(1 + a), which overflows past a = 8.99e307: the CSV wrote "2,inf"
            (["rates", "--lambda=-1", "--alpha", "1e308", "--schedule", "constant:1,1", "--iters", "3",
              "--format", "csv"], "alpha*|lambda| = 1e+308 is too large: the bound a + sqrt(a)*sqrt(1 + a) on b_k"),
            (["rates", "--lambda=-1", "--alpha", "1e308", "--json"],
             "alpha*|lambda| = 1e+308 is too large: the bound a + sqrt(a)*sqrt(1 + a) on b_k"),
        ],
    )
    def test_rejected_with_one_line_and_no_echo(self, capsys, tmp_path, argv, message):
        path = tmp_path / "out"
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 1
        assert out == "" and not path.exists()
        assert err.startswith("saddlescape: error:") and err.count("\n") == 1
        assert message in err

    def test_a_contracting_positive_lambda_is_accepted(self, capsys):
        # --beta 0 with alpha*lambda < 2: the roots are {0, 1 - alpha*lambda}, both inside the unit circle
        code, out, _ = run_cli(capsys, "spectrum", "--lambda=1.9", "--alpha", "1", "--beta", "0")
        assert code == 0
        (block,) = json.loads(out)["blocks"]
        assert block["class"] == "stable" and abs(block["mu_hi"]["re"]) < 1.0 and block["mu_hi"]["im"] == 0.0

    def test_the_spectrum_help_states_the_contracting_condition(self, capsys):
        assert cli.main(["spectrum", "--help"]) == 0
        assert "a positive one needs alpha*lambda < 2*(1 + beta)" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv, lam",
        [
            # the unstable root 1 + ~alpha*|lambda| rounds to 1: the row read "-1e-17,1,0,0.5,0,unstable"
            (["--lambda=-1e-17", "--alpha", "1", "--beta", "0.5"], "-1e-17"),
            # unstable_dim 2 with both mu_hi exactly 1
            (["--n", "10", "--p", "2", "--delta", "1e-300", "--beta", "0.5"], "-1.9441584024424346e-300"),
            # a positive block labelled stable with mu_hi exactly 1
            (["--lambda=1", "--alpha", "1e-320", "--beta", "0.5"], "1.0"),
            (["--n", "10", "--p", "2", "--delta", "0.01", "--beta", "0.5", "--alpha", "1e-320"], "0.9791345000654033"),
            # a complex pair, whose magnitude sqrt(beta) rounds to 1 for the largest beta below 1
            (["--lambda=1", "--alpha", "1", "--beta", "0.9999999999999999"], "1.0"),
        ],
    )
    def test_a_nonzero_lambda_with_a_root_of_magnitude_one_is_rejected(self, capsys, argv, lam, fmt):
        code, out, err = run_cli(capsys, "spectrum", *argv, "--format", fmt)
        assert code == 1 and out == ""
        assert err.startswith(f"saddlescape: error: the block of lambda = {lam} has a root that rounds to magnitude 1")
        assert err.count("\n") == 1

    def test_lambda_zero_keeps_its_unit_root(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--lambda=0", "--alpha", "1", "--beta", "0.5", "--format", "csv")
        assert (code, out) == (0, "lambda,mu_hi_re,mu_hi_im,mu_lo_re,mu_lo_im,class\n0,1,0,0.5,0,unit\n")

    def test_a_rates_schedule_takes_momentum_one(self, capsys):
        argv = ["rates", "--lambda=-0.01", "--alpha", "0.5", "--schedule", "constant:1,0", "--format", "csv"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.startswith("iter,b\n0,0\n1,0.005\n") and out.count("\n") == 10002

    @pytest.mark.parametrize("argv", [["spectrum", "--lambda=0", "--alpha", "1", "--beta", "1"],
                                      ["toy", "--beta", "1"]])
    def test_heavy_ball_momentum_one_is_rejected(self, capsys, argv):
        # at lambda = 0 the block's roots {1, beta} would be a double root 1
        assert run_cli(capsys, *argv) == (1, "", "saddlescape: error: beta must lie in [0, 1), got 1.0\n")

    @pytest.mark.parametrize(
        "command, text",
        [("spectrum", "--beta BETA momentum, in [0, 1)"), ("toy", "--beta BETA heavy-ball momentum, in [0, 1)"),
         ("rates", "constant:B,G allows B = 1")],
    )
    def test_the_help_states_the_momentum_domain(self, capsys, command, text):
        assert cli.main([command, "--help"]) == 0
        assert text in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_non_finite_json_exits_one_after_the_echo(self, capsys, tmp_path, to_file):
        # At --delta 0.5 the predicted series grows past the float range; its CSV keeps the inf cells.
        # The series is checked before any JSON text is written, so a pipe reads nothing.
        path = tmp_path / "out.json"
        code, out, err = run_cli(capsys, "simulate", "--delta", "0.5", "--json", *(["--out", str(path)] * to_file))
        assert code == 1
        echo, error = err.splitlines()
        assert echo.startswith("saddlescape simulate config: ")
        assert error == "saddlescape: error: JSON output holds only finite numbers, got inf"
        assert out == "" and not path.exists()


class TestEmit:
    def test_failing_chunk_removes_the_partial_file(self, tmp_path):
        def chunks():
            yield "first\n"
            raise ValueError("second")

        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="second"):
            cli._emit(chunks(), str(path))
        assert not path.exists()

    def test_unopenable_path_is_left_alone(self, tmp_path):
        with pytest.raises(OSError):
            cli._emit("text", str(tmp_path))
        assert tmp_path.is_dir()


json_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, -1e300])
)
json_text = st.text(st.one_of(st.sampled_from('%"\\'), st.characters()), max_size=6)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), json_floats, json_floats.map(np.float64), json_text
)


def json_dicts(leaves):
    return st.recursive(leaves, lambda inner: st.dictionaries(json_text, inner, max_size=4), max_leaves=25)


def with_inside(values, inner):
    """``inner`` inside one more dict, among ``values``."""
    return st.tuples(st.dictionaries(json_text, values, max_size=2), json_text, inner).map(
        lambda t: {**t[0], t[1]: t[2]}
    )


def records(count):
    """``count`` records with a float, a nested pair of floats, a string that needs escaping and an int."""
    rng = np.random.default_rng(count)
    dtype = [("lambda", float), ("mu%", [("re", float), ("im", float)]), ("class", "U8"), ("k", np.int64)]
    table = np.zeros(count, dtype)
    table["lambda"] = rng.standard_normal(count) * 10.0 ** rng.integers(-20, 21, count)
    table["mu%"]["re"], table["mu%"]["im"] = rng.standard_normal(count), -0.0
    table["class"] = np.array(['a"%s\\', "\u00e9\u2603\n", "stable"])[np.arange(count) % 3]
    table["k"] = np.arange(count) - 3
    return table


# elements of each dtype of a plain array, and shapes with zero-length axes and more rows than one chunk of their width
ARRAY_ELEMENTS = {
    "float64": json_floats,
    "int64": st.integers(-(2**63), 2**63 - 1),
    "bool": st.booleans(),
    "<U4": st.text(st.one_of(st.sampled_from('%"\\'), st.characters(exclude_characters="\x00")), max_size=4),
}
ARRAY_SHAPES = st.one_of(
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
    st.sampled_from([(0,), (3, 0), (0, 2), (_CHUNK + 1,), (2 * (_CHUNK // 2) + 1, 2), (_CHUNK + 3, 0, 2)]),
)


def plain_arrays(dtypes=tuple(ARRAY_ELEMENTS)):
    return st.sampled_from(dtypes).flatmap(
        lambda dtype: hnp.arrays(dtype, ARRAY_SHAPES, elements=ARRAY_ELEMENTS[dtype], fill=ARRAY_ELEMENTS[dtype])
    )


# a non-finite float, alone or in a float array
BAD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("inf")])
BAD_LEAVES = st.one_of(
    BAD_FLOATS, st.tuples(st.integers(0, 5), BAD_FLOATS).map(lambda t: np.insert(np.ones(5), *t).reshape(3, 2))
)


def assert_same_lines(text, expected):
    # compared as lines: a mismatch then names its first line, where pytest's diff of two whole texts takes minutes
    assert text.split("\n") == expected.split("\n")


class TestJsonChunks:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(json_dicts(json_scalars))
    @example({"": {}, "e": {"%s%%": "%s%%"}, "s": "\u00e9\u2603\U0001f600", "f": 1e16, "g": 1e-7, "b": True,
              "i": 2**70})
    def test_text_is_json_dumps_with_indent_two(self, payload):
        assert_same_lines("".join(cli._json_chunks(payload)), json.dumps(payload, indent=2) + "\n")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.recursive(BAD_LEAVES, lambda inner: with_inside(json_dicts(json_scalars), inner), max_leaves=6))
    def test_a_non_finite_float_at_any_depth_raises(self, payload):
        with pytest.raises(ValueError, match="JSON output holds only finite numbers"):
            "".join(cli._json_chunks(payload))

    @pytest.mark.parametrize("shape", [(0,), (0, 2), (1,), (2 * _CHUNK + 1,), (_CHUNK // 2 + 3, 2)])
    def test_a_float_array_is_written_as_its_list(self, shape):
        rng = np.random.default_rng(0)
        payload = {"series": rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 21, shape), "n": 1}
        chunks = list(cli._json_chunks(payload))
        assert_same_lines("".join(chunks), json.dumps(payload, indent=2, default=np.ndarray.tolist) + "\n")
        # the key, each chunk of at most _CHUNK // width items and the closing bracket (or one "[]"), then "n" and "}"
        assert len(chunks) == 5 + -(-shape[0] // (_CHUNK // math.prod(shape[1:])))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(plain_arrays())
    @example(np.zeros((3, 0)))  # no scalar in an item: its chunk is sized as one of width 1
    def test_a_plain_array_is_written_as_its_list_at_top_level_and_in_a_dict(self, array):
        for payload, expected in ((array, array.tolist()), ({"a": array, "n": 1}, {"a": array.tolist(), "n": 1})):
            assert_same_lines("".join(cli._json_chunks(payload)), json.dumps(expected, indent=2) + "\n")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(plain_arrays(["float64"]).filter(np.size), st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
    def test_a_non_finite_float_anywhere_in_an_array_raises(self, array, bad, data):
        array.flat[data.draw(st.integers(0, array.size - 1))] = bad
        for payload in (array, {"a": array}):
            with pytest.raises(ValueError, match=f"^JSON output holds only finite numbers, got {bad!r}$"):
                "".join(cli._json_chunks(payload))

    def test_a_non_finite_array_value_raises(self):
        with pytest.raises(ValueError, match="JSON output holds only finite numbers, got inf"):
            "".join(cli._json_chunks({"series": np.array([[1.0, 2.0]] * (_CHUNK // 2) + [[3.0, np.inf]])}))

    @pytest.mark.parametrize("count", [0, 1, _CHUNK // 5 + 1])  # a record holds 5 scalars
    @pytest.mark.parametrize("nested", [False, True], ids=["top", "in-dict"])
    def test_a_structured_array_is_written_as_a_list_of_objects(self, count, nested):
        table = records(count)
        objects = [
            {"lambda": lam, "mu%": {"re": re, "im": im}, "class": label, "k": k}
            for lam, (re, im), label, k in table.tolist()
        ]
        payload, expected = ({"blocks": table, "n": count}, {"blocks": objects, "n": count}) if nested else (table, objects)
        chunks = list(cli._json_chunks(payload))
        assert_same_lines("".join(chunks), json.dumps(expected, indent=2) + "\n")
        assert max(chunk.count('"lambda": ') for chunk in chunks) == min(count, _CHUNK // 5)

    @pytest.mark.parametrize("field", ["lambda", "mu%"])
    def test_a_non_finite_record_field_raises_and_leaves_no_file(self, tmp_path, field):
        table = records(_CHUNK // 5 + 1)  # the bad record is the first of the second chunk
        (table[field] if field == "lambda" else table[field]["im"])[_CHUNK // 5] = np.nan
        path = tmp_path / "out.json"
        with pytest.raises(ValueError, match=r"^JSON output holds only finite numbers, got nan$"):
            cli._emit(cli._json_chunks({"blocks": table}), str(path))
        assert not path.exists()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(0, 8),
        st.sampled_from(["plain", "deep", "structured"]),
        st.sampled_from([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)]),  # rows as (chunks, offset)
    )
    @example(_CHUNK + 3, "plain", (0, 3))  # an item wider than the budget is a chunk of its own
    def test_an_array_chunk_holds_at_most_the_budget_of_scalars(self, width, kind, offset):
        step = max(1, _CHUNK // max(1, width))
        rows = offset[0] * step + offset[1]
        if kind == "structured":  # the first two scalars nested in a record
            fields = [(name, np.int64) for name in "abcdefgh"[:width]]
            array = np.full(rows, 7, [("r", fields[:2]), *fields[2:]] if width >= 2 else fields)
        else:  # the item shape; (0, 2) holds no scalar
            items = {"plain": () if width == 1 else (width,), "deep": (width, 1) if width else (0, 2)}
            array = np.full((rows, *items[kind]), 7)
        chunks = list(cli._json_chunks(array))
        scalars = [chunk.count("7") for chunk in chunks]  # each scalar is a 7, and no other text holds one
        assert sum(scalars) == rows * width and max(scalars) <= max(_CHUNK, width)
        assert len(chunks) == (1 + -(-rows // step) if rows else 1)  # the item chunks and "]", or one "[]"

    def test_writing_the_spectrum_holds_one_chunk_of_scalars(self):
        # 5,000 blocks of 6 scalars: 1.46 MiB here when a chunk held 2,048 blocks
        prob = random_problem(5000, 50, 0.01, 0)
        payload = classify_saddle_map(prob, 1.0 / prob.lipschitz, 0.989).to_json_dict()
        tracemalloc.start()
        try:
            cli._emit(cli._json_chunks(payload), os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 2**20

    @pytest.mark.parametrize(
        "payload",
        [{1: 2}, {"l": {"a": {None: 1}}}, {"i": np.int64(1)}, {"a": object()}, [1.0], {"t": ()}],
        ids=["int-key", "nested-none-key", "numpy-int", "object", "list", "nested-tuple"],
    )
    def test_what_json_cannot_hold_is_a_type_error(self, payload):
        with pytest.raises(TypeError):
            "".join(cli._json_chunks(payload))


# Every argv that writes JSON: each command with a JSON output, and rates under each schedule kind
JSON_ARGV = [
    ["toy", "--json"],
    ["simulate", "--p", "1", "--iters", "500", "--json"],
    ["simulate", "--p", "3", "--iters", "500", "--json"],
    ["table", "--n", "30", "--delta", "0.02", "0.005", "--trials", "4", "--iters", "3000", "--json"],
    ["spectrum", "--lambda=-0.02", "--alpha", "3", "--beta", "0.94"],
    ["spectrum", "--n", "40", "--p", "3", "--delta", "0.01", "--beta", "0.9", "--seed", "2"],
    *(
        ["rates", "--lambda=-0.004", "--alpha", "0.99", "--gamma", "0.01", "--iters", "3000", "--schedule", spec]
        for spec in ("constant:0.5,0.25", "polyak:0.1,2", "nesterov", "attouch:2", "toy")
    ),
    ["verify-tk", "--K", "5000"],
]


class TestJsonOutput:
    def test_every_schedule_kind_is_covered(self):
        assert {argv[-1].partition(":")[0] for argv in JSON_ARGV if argv[0] == "rates"} == set(SCHEDULE_KINDS)

    @pytest.mark.parametrize("argv", JSON_ARGV, ids=" ".join)
    def test_text_is_json_dumps_of_the_payload(self, capsys, monkeypatch, tmp_path, argv):
        payloads, chunks = [], cli._json_chunks

        def recording(value, *nested):
            if not nested:
                payloads.append(value)
            return chunks(value, *nested)

        monkeypatch.setattr(cli, "_json_chunks", recording)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        path = tmp_path / "out.json"
        assert run_cli(capsys, *argv, "--out", str(path))[0] == 0
        assert len(payloads) == 2
        texts = [json.dumps(payload, indent=2, default=plain) + "\n" for payload in payloads]
        assert out == texts[0]
        assert path.read_bytes() == out.encode("utf-8") == texts[1].encode("utf-8")


def echoed_config(err: str) -> dict:
    (line,) = [line for line in err.splitlines() if " config: " in line]
    return json.loads(line.partition(" config: ")[2])


def subparsers() -> dict:
    (action,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


ECHO_ARGV = [
    ["toy", "--iters", "5"],
    ["spectrum", "--lambda=-0.02", "--alpha", "3", "--beta", "0.94"],
    ["spectrum", "--n", "20", "--p", "2", "--delta", "0.01", "--beta", "0.9"],
    ["rates", "--lambda=-0.01", "--alpha", "0.5", "--iters", "100"],
    ["simulate", "--n", "30", "--iters", "10"],
    ["table", "--n", "30", "--delta", "0.02", "--trials", "2", "--iters", "5000"],
    ["verify-tk", "--K", "100"],
]


class TestConfigEcho:
    """The echo is the parsed arguments, with the values a command resolves in their place."""

    def test_every_subcommand_is_covered(self):
        assert {argv[0] for argv in ECHO_ARGV} == set(subparsers())

    @pytest.mark.parametrize("argv", ECHO_ARGV, ids=lambda argv: " ".join(argv[:2]))
    def test_keys_are_the_subparsers_dests(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0
        # a command with output flags has the dest ``format``, which it echoes resolved
        dests = {action.dest for action in subparsers()[argv[0]]._actions}
        assert set(echoed_config(err)) == dests - {"help", "out", "json"}

    def test_rates_echo(self, capsys):
        code, _, err = run_cli(capsys, "rates", "--lambda=-0.01", "--alpha", "0.5", "--iters", "100",
                               "--schedule", "toy", "--gamma", "0.1", "--format", "csv")
        assert code == 0
        assert err == (
            'saddlescape rates config: {"alpha": 0.5, "format": "csv", "gamma": 0.1, "iters": 100, '
            '"lambda": -0.01, "projection": 0.01, "schedule": {"alpha": 0.5, "delta": 0.01, '
            '"gamma_hat": 0.1, "kind": "toy"}, "threshold": 1.0}\n'
        )

    @pytest.mark.parametrize("argv, x0", [([], "[0.25, 0.01]"), (["--x0=-0.25,1e-300"], "[-0.25, 1e-300]")])
    def test_toy_echo(self, capsys, argv, x0):
        code, _, err = run_cli(capsys, "toy", "--iters", "10", *argv)
        assert code == 0
        assert err == (
            'saddlescape toy config: {"alpha": 0.75, "beta": 0.985, "delta": 0.02, "format": "csv", "iters": 10, '
            f'"thin": 1, "threshold": 1.0, "x0": {x0}}}\n'
        )

    def test_spectrum_single_block_echo(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--lambda=-0.02", "--alpha", "3", "--beta", "0.94")
        assert code == 0
        assert err == (
            'saddlescape spectrum config: {"alpha": 3.0, "beta": 0.94, "delta": null, "format": "json", '
            '"lambda": -0.02, "n": null, "p": null, "seed": null}\n'
        )

    def test_spectrum_problem_echo_shows_the_computed_alpha(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--n", "20", "--p", "2", "--delta", "0.01",
                               "--beta", "0.9", "--json")
        assert code == 0
        assert err == (
            'saddlescape spectrum config: {"alpha": 1.0213101468012853, "beta": 0.9, "delta": 0.01, '
            '"format": "json", "lambda": null, "n": 20, "p": 2, "seed": 0}\n'
        )


class TestCliContract:
    @pytest.mark.parametrize(
        "command",
        [["toy"], ["spectrum"], ["rates"], ["simulate"], ["table"], ["verify-tk"]],
    )
    def test_help_exits_zero(self, capsys, command):
        code, out, _ = run_cli(capsys, *command, "--help")
        assert code == 0
        assert "usage" in out

    @pytest.mark.parametrize(
        "command",
        [["toy"], ["spectrum"], ["rates", "--lambda=-0.01", "--alpha", "1"], ["simulate"], ["table"]],
    )
    def test_format_with_json_is_a_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "out"
        code, out, err = run_cli(capsys, *command, "--format", "csv", "--json", "--out", str(path))
        assert code == 1
        assert out == "" and not path.exists()
        assert "error: argument --json: not allowed with argument --format" in err

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "toy", "--bogus", "1")
        assert code == 1
        assert "error" in err

    def test_unknown_subcommand_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "dance")
        assert code == 1

    def test_missing_subcommand_exits_one(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_unwritable_output_path(self, capsys):
        code, _, err = run_cli(
            capsys, "verify-tk", "--K", "10", "--out", "/nonexistent-dir/report.json"
        )
        assert code == 1
        assert "error" in err

    def test_config_echo_includes_resolved_seed(self, capsys):
        _, _, err = run_cli(capsys, "simulate", "--n", "30", "--iters", "10")
        assert '"seed": 0' in err


# The CLI contract over argv drawn from edge values: for each subcommand, a subset of its options (a command's
# required options are always given) with values from these pools.  Two draws in three are ordinary values, so
# that most runs get past their other input checks to the edge, and sizes stay at most 50, so an example is fast.
EDGES = st.sampled_from(["0", "-0", "-1", "1e-320", "1e-300", "1e300", "1e308", "nan", "inf", "-inf"])
ORDINARY, ORDINARY_NEGATIVE = st.sampled_from(["0.5", "0.02", "-0.02"]), st.sampled_from(["-0.02", "-1"])
REALS = st.one_of(EDGES, ORDINARY, ORDINARY)  # one_of picks a branch uniformly
NEGATIVES = st.one_of(EDGES.map(lambda value: "-" + value.lstrip("-")), ORDINARY_NEGATIVE, ORDINARY_NEGATIVE)
SIZES = st.sampled_from(["-1", "0", "1", "2", "3", "50"])
SPECS = st.one_of(
    st.sampled_from(["nesterov", "toy", "bogus", "constant", "constant:1,2,3", "attouch:"]),
    st.builds("constant:{},{}".format, REALS, REALS),
    st.builds("polyak:{},{}".format, REALS, REALS),
    st.builds("attouch:{}".format, REALS),
    st.builds("toy:{}".format, REALS),
)
POINTS = st.one_of(
    st.sampled_from(["0.25,0.01", "1,2,3", "a,b", "", ",", "0.25"]), st.builds("{},{}".format, REALS, REALS)
)
FORMATS = st.sampled_from([["--json"], ["--format=csv"], ["--format=json"]])
# (command, required options, optional options); spectrum's two modes are drawn apart, with what each needs
CONTRACT_FORMS = [
    ("toy", {}, {"--delta": REALS, "--alpha": REALS, "--beta": REALS, "--x0": POINTS, "--iters": SIZES,
                 "--thin": SIZES, "--threshold": REALS}),
    ("spectrum", {"--lambda": REALS, "--alpha": REALS, "--beta": REALS}, {}),
    ("spectrum", {"--n": SIZES, "--p": SIZES, "--delta": REALS, "--beta": REALS}, {"--alpha": REALS, "--seed": SIZES}),
    ("rates", {"--lambda": NEGATIVES, "--alpha": REALS},  # a --lambda that is not negative fails its first check
     {"--gamma": REALS, "--schedule": SPECS, "--iters": SIZES, "--projection": REALS, "--threshold": REALS}),
    ("simulate", {}, {"--n": SIZES, "--p": SIZES, "--delta": REALS, "--seed": SIZES, "--iters": SIZES,
                      "--eps-perturb": REALS}),
    ("table", {}, {"--n": SIZES, "--delta": REALS, "--trials": SIZES, "--seed": SIZES, "--iters": SIZES,
                   "--threshold": REALS}),
    ("verify-tk", {}, {"--K": SIZES}),
]


@st.composite
def contract_argv(draw):
    command, required, optional = draw(st.sampled_from(CONTRACT_FORMS))
    options = draw(st.fixed_dictionaries(required, optional=optional))
    # ``--flag=value`` keeps a value such as -inf from reading as a flag
    argv = [command, *(f"{flag}={value}" for flag, value in options.items())]
    return argv if command == "verify-tk" else argv + draw(st.one_of(st.just([]), FORMATS))


def _no_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


class TestCliContractProperty:
    @settings(max_examples=500, deadline=5000, derandomize=True)
    @given(contract_argv())
    @example(["simulate", "--delta=0.5", "--json"])  # its predicted series passes the float range
    @example(["toy", "--alpha=1e308", "--x0=1e99,0", "--iters=3"])  # a step overflows
    @example(["toy", "--alpha=1e308", "--x0=1e99,0", "--iters=3", "--json"])
    @example(["simulate", "--eps-perturb=1e308"])  # the perturbed predecessor overflows
    @example(["rates", "--lambda=-1", "--alpha=1e308", "--schedule=constant:1,1", "--iters=3", "--format=csv"])
    @example(["spectrum", "--lambda=0", "--alpha=1", "--beta=0.9999999999999999"])  # lambda = 0's roots round to one
    def test_exit_code_error_line_and_json(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        assert caught == []
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2)
        assert sum("error: " in line for line in lines) == (code == 1), lines
        assert code != 1 or out.getvalue() == ""
        echoes = [json.loads(line.partition(" config: ")[2], parse_constant=_no_constant)
                  for line in lines if " config: " in line]
        if code != 1 and echoes[0].get("format", "json") == "json":  # verify-tk writes only JSON
            json.loads(out.getvalue(), parse_constant=_no_constant)
        # Only simulate's predicted column may still hold an inf cell at exit 0 (ROADMAP item 3)
        elif code == 0 and argv[0] != "simulate":
            cells = out.getvalue().replace("\n", ",").split(",")
            assert not {"inf", "-inf", "nan"} & set(cells), argv
