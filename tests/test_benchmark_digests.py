"""The benchmark's workloads: each seed-0 output has the sha256 recorded in
perfbench/digests.json, and perfbench/tracer.py runs each at toy sizes."""

import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from saddlescape import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# run_path, unlike an import, writes no bytecode cache into perfbench/
BUILDERS = runpy.run_path(str(PERFBENCH / "workloads.py"))
WORKLOADS = BUILDERS["WORKLOADS"]
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())
SEED = 0  # the seed digests.json records


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed_zero_output_matches_recorded_digest(name, tmp_path, capsys):
    workload = WORKLOADS[name]
    out = tmp_path / workload.output
    assert cli.main([*workload.argv(SEED), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]


# The sizes and seed of perfbench/selftest.py's TOY, each with the counters its traced run must report.
TOY_SEED = 1
TOY = {
    "escape-table": (BUILDERS["escape_table"](ns=(20,), deltas=("0.1",), trials=3), {"experiments.trials": 3}),
    "growth-trace": (BUILDERS["growth_trace"](n=50, iters=300), {}),
    "rate-series": (BUILDERS["rate_series"](iters=2000), {"rates.recurrence_steps": 2000}),
    "saddle-spectrum": (
        BUILDERS["saddle_spectrum"](n=60, p=3),
        {"spectral.blocks": 60, "spectral.unstable_vectors": 3},
    ),
}


@pytest.mark.parametrize("name", sorted(TOY))
def test_traced_run_reports_its_layers_and_counters(name, tmp_path):
    workload, counts = TOY[name]
    report, out = tmp_path / "report.json", tmp_path / workload.output
    # no bytecode: the child imports perfbench/workloads.py and must write nothing into perfbench/
    env = {**os.environ, "PYTHONPATH": str(PERFBENCH.parent / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), str(report), "--", *workload.argv(TOY_SEED), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert workload.check(out.read_bytes(), TOY_SEED) == []
    summary = json.loads(report.read_text())
    assert summary["exit_code"] == 0 and summary["spans"] > 0
    assert {"cli", "serialize"} <= set(summary["self_s"])
    assert {key: summary["counts"].get(key) for key in counts} == counts
