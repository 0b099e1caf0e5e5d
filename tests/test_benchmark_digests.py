"""Each benchmark workload's seed-0 output has the sha256 recorded in perfbench/digests.json."""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from saddlescape import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# run_path, unlike an import, writes no bytecode cache into perfbench/
WORKLOADS = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())
SEED = 0  # the seed digests.json records


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed_zero_output_matches_recorded_digest(name, tmp_path, capsys):
    workload = WORKLOADS[name]
    out = tmp_path / workload.output
    assert cli.main([*workload.argv(SEED), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]
