"""Seconds-long self-test of the benchmark harness at toy sizes.

    python3 perfbench/selftest.py

Runs every workload's argv and output check at toy sizes through the same
measurement code as ``run.py``, with tracing off and on, and asserts that:

* every metric ``BENCHMARK.json`` names is reported, with its unit, and the
  result line has exactly the keys the contract names;
* a deliberately wrong digest is reported as a failure, and each
  workload's check reports every invariant broken in its own good output
  (see ``MUTATIONS``);
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the harness exits nonzero without printing a result.

Exits 0 and prints ``selftest: ok`` when every assertion holds.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import escape_table, growth_trace, rate_series, saddle_spectrum

TOY = {
    "escape-table": escape_table(ns=(20,), deltas=("0.1",), trials=3),
    "growth-trace": growth_trace(n=50, iters=300),
    "rate-series": rate_series(iters=2000),
    "saddle-spectrum": saddle_spectrum(n=60, p=3),
}
SEED = 1


def _edit_csv(data: bytes, row: int, column: int, value) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    rows[row][column] = value(rows[row][column]) if callable(value) else value
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue().encode("utf-8")


def _edit_json(data: bytes, edit) -> bytes:
    payload = json.loads(data)
    edit(payload)
    return json.dumps(payload).encode("utf-8")


def _max_row(data: bytes) -> int:
    return next(k for k, row in enumerate(data.decode("utf-8").splitlines()) if ",max," in row)


def _flip_class(payload: dict) -> None:
    payload["blocks"][0]["class"] = "unstable" if payload["blocks"][0]["class"] == "stable" else "stable"


# One broken invariant per entry: (workload, what is broken, how, text the check must report).
MUTATIONS = [
    ("escape-table", "a max below its average", lambda d: _edit_csv(d, _max_row(d), 4, "1"), "average above max"),
    ("escape-table", "a count of 0", lambda d: _edit_csv(d, 1, 5, "0"), "outside [1,"),
    ("growth-trace", "a decreasing predictor", lambda d: _edit_csv(d, -1, 4, "0.5"), "predicted: incomplete or decreasing"),
    ("growth-trace", "non-geometric descent", lambda d: _edit_csv(d, 5, 1, lambda v: repr(float(v) * 1.01)),
     "does not grow geometrically"),
    ("rate-series", "a decreasing b", lambda d: _edit_csv(d, 500, 1, "0.0"), "b decreases"),
    ("saddle-spectrum", "a flipped class", lambda d: _edit_json(d, _flip_class), "expected stable"),
    ("saddle-spectrum", "unstable_dim != p", lambda d: _edit_json(d, lambda p: p.update(unstable_dim=p["unstable_dim"] + 1)),
     "dims"),
    ("saddle-spectrum", "roots off the Vieta relations",
     lambda d: _edit_json(d, lambda p: p["blocks"][0]["mu_hi"].update(re=p["blocks"][0]["mu_hi"]["re"] + 1e-6)), "Vieta"),
]
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: FAILED: {message}")


def check_line(line: dict, units: dict[str, str], context: str) -> None:
    require(list(line) == RESULT_KEYS, f"{context}: result keys {list(line)}")
    reported = {name: metric["unit"] for name, metric in line["metrics"].items()}
    require(reported == units, f"{context}: metrics {reported} != declared {units}")
    for name, metric in line["metrics"].items():
        value = metric["value"]
        require(isinstance(value, (int, float)) and math.isfinite(value), f"{context}: {name} = {value!r}")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    require(end_to_end == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end differs from the harness")
    require(per_layer == run.PER_LAYER_UNITS, "BENCHMARK.json per_layer differs from the harness")
    require({w["name"] for w in bench["workloads"]} == set(run.WORKLOADS) == set(TOY), "workload names differ")

    digests = {}
    for name, workload in TOY.items():
        for trace, units in ((False, end_to_end), (True, per_layer)):
            result = run.measure(workload, SEED, 0.0, trace, None)
            line = result.line()
            require(line["correct"] and line["attempted"] >= 1, f"{name} trace={trace}: {result.notes}")
            check_line(line, units, f"{name} trace={trace}")
            digests[name] = next(iter(result.digests))

    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=run.ROOT) as scratch:
        for name, broken, mutate, expected in MUTATIONS:
            workload = TOY[name]
            out = Path(scratch) / workload.output
            if not out.is_file():
                subprocess.run([sys.executable, "-m", "saddlescape", *workload.argv(SEED), "--out", str(out)],
                               env=run.child_env(), capture_output=True, check=True, timeout=60)
                require(workload.check(out.read_bytes(), SEED) == [], f"{name}: good output failed its check")
            problems = workload.check(mutate(out.read_bytes()), SEED)
            require(any(expected in p for p in problems), f"{name}: {broken} was not reported ({problems})")

    workload = TOY["escape-table"]
    good = run.measure(workload, SEED, 0.0, False, digests["escape-table"]).line()
    require(good["correct"], "the recorded digest was reported as a failure")
    bad = run.measure(workload, SEED, 0.0, False, "0" * 64).line()
    require(not bad["correct"] and bad["failed"] == 1, f"a wrong digest was not reported: {bad}")
    require(bad["metrics"]["ok_rate"]["value"] < 1.0, "ok_rate ignores a failed output check")

    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=run.ROOT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, Path(bare) / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "escape-table", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        require(proc.returncode != 0 and "{" not in proc.stdout, f"bare directory run: {proc.returncode} {proc.stdout!r}")

    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
