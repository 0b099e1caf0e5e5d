"""Benchmark harness for the saddlescape command line.

    python3 perfbench/run.py --workload escape-table --seed 0 --seconds 34 --trace 0

One workload runs as a sequence of ``python3 -m saddlescape ...`` child
processes, one at a time: a closed loop with a single client, so no two
children ever share the machine's cores.  Every child's output is checked:
against the sha256 recorded in ``digests.json`` at the default seed, and
against invariants that hold at every seed.  The harness prints each metric
by name with its unit; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of untraced children.  Each
workload child runs next to a ``reference.py`` child, whose fixed work times
the host's speed at that moment; the time metrics are divided by it (see
``scaled``), because this shared host's speed drifts by tens of percent over
minutes.  The raw times are printed in the notes.
``--trace 1`` alternates untraced children with traced ones (``tracer.py``
runs the same argv in-process with every layer boundary wrapped) and reports
the per-layer metrics, including the tracing overhead.

The program is run from the ``src/`` tree of the checkout that holds this
file; without it the harness exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import LAYERS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
# A run must end within 180 seconds; a child still running when this budget
# is spent is killed and counted as failed.
RUN_BUDGET_S = 165.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIB = 1024.0 * 1024.0
# The reference child's median wall time on the baseline machine (2-vCPU
# Intel Xeon, Python 3.11, numpy 2.4).  Time metrics are reported in seconds
# of a host on which the reference takes this long.
REFERENCE_S = 0.95

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ok_rate": "share",
}
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "import.self_s": "s",
    "experiments.trials": "count",
    "experiments.censored": "count",
    "experiments.escape_coord_steps": "count",
    "experiments.escape_coord_steps_per_s": "1/s",
    "optimizers.runs": "count",
    "optimizers.steps": "count",
    "optimizers.coord_steps_per_s": "1/s",
    "optimizers.diverged_runs": "count",
    "optimizers.trace_mb": "MiB",
    "problems.grad_rows": "count",
    "problems.grad_rows_per_step": "ratio",
    "schedules.terms": "count",
    "schedules.terms_per_step": "ratio",
    "rates.recurrence_steps": "count",
    "spectral.blocks": "count",
    "spectral.blocks_per_s": "1/s",
    "spectral.unstable_vectors": "count",
    "cli.bytes_out": "B",
    "trace.coverage": "ratio",
    "trace_overhead": "ratio",
}
# Counters read straight from the tracer report.
COUNTERS = (
    "experiments.trials",
    "experiments.censored",
    "experiments.escape_coord_steps",
    "optimizers.runs",
    "optimizers.steps",
    "optimizers.diverged_runs",
    "problems.grad_rows",
    "schedules.terms",
    "rates.recurrence_steps",
    "spectral.blocks",
    "spectral.unstable_vectors",
)


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = str(cpu_count())
    return env


def environment(seed: int) -> dict:
    """What a result depends on besides the code: machine, interpreter, libraries, inputs."""
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None  # outside a git checkout, src_sha256 identifies the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": commit,
        "src_sha256": source.hexdigest(),
        "seed": seed,
        "thread_pins": {var: str(cpu_count()) for var in THREAD_VARS},
    }


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problem: str | None  # why the run failed, or None


def spawn(cmd: list[str], workdir: Path, timeout: float) -> Child:
    """Run one child to completion through ``launch.py``, which measures it."""
    timeout = max(timeout, 1.0)
    with open(workdir / "stderr.txt", "wb") as stderr:
        launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), str(timeout), "--", *cmd],
            cwd=workdir, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=stderr,
            start_new_session=True,
        )
        try:
            out, _ = launcher.communicate(timeout=timeout + 5)
        except subprocess.TimeoutExpired:
            os.killpg(launcher.pid, signal.SIGKILL)
            launcher.wait()
            return Child(0.0, 0.0, 0.0, "the launcher did not return")
    try:
        usage = json.loads(out)
    except ValueError:
        return Child(0.0, 0.0, 0.0, f"the launcher exited {launcher.returncode} without a measurement")
    problem = None
    if usage["timed_out"]:
        problem = f"timed out after {timeout:.0f} s"
    elif usage["exit_code"] != 0:
        tail = (workdir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
        problem = f"exit code {usage['exit_code']}: {' '.join(tail)}"
    return Child(usage["wall_s"], usage["cpu_s"], usage["peak_rss_kib"] / 1024.0, problem)


class OutputChecker:
    """Checks each output; identical argv must give identical bytes every time."""

    def __init__(self, workload: Workload, seed: int, expected_digest: str | None):
        self.workload = workload
        self.seed = seed
        self.expected = expected_digest
        self.verdicts: dict[str, str | None] = {}
        self.bytes_out = 0

    def __call__(self, path: Path) -> str | None:
        if not path.is_file():
            return "no output file"
        data = path.read_bytes()
        self.bytes_out = len(data)
        digest = hashlib.sha256(data).hexdigest()
        if self.expected is not None and digest != self.expected:
            return f"output sha256 {digest} differs from the recorded {self.expected}"
        if digest not in self.verdicts:
            problems = self.workload.check(data, self.seed)
            self.verdicts[digest] = "; ".join(problems) if problems else None
        if len(self.verdicts) > 1:
            return "the same argv produced different outputs"
        return self.verdicts[digest]


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    digests: set[str] = field(default_factory=set)

    def record(self, child: Child, problem: str | None) -> bool:
        self.attempted += 1
        problem = child.problem or problem
        if problem:
            self.failed += 1
            self.notes.append(f"FAILED: {problem}")
        return problem is None

    def line(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()},
        }


def tail_note(name: str, values: list[float], unit: str) -> str:
    """Median, sample count and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    text = f"{name}: median {statistics.median(ordered):.6g} {unit} over n={len(ordered)}"
    if len(ordered) >= 11:
        share = (len(ordered) - 10) / len(ordered)
        text += f"; p{100 * share:.0f} = {ordered[len(ordered) - 11]:.6g} {unit}"
    else:
        text += "; no percentile has 10 samples beyond it (needs n >= 11)"
    return text + "; samples " + " ".join(f"{v:.4g}" for v in values)


def scaled(times: list[float], references: list[Child]) -> list[float]:
    """Each time divided by its round's host-speed factor, ``reference wall / REFERENCE_S``.

    A round whose reference child failed keeps its raw time; the failure is
    counted already.
    """
    return [t * REFERENCE_S / r.wall_s if r.problem is None and r.wall_s > 0 else t
            for t, r in zip(times, references)]


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    expected_digest: str | None,
) -> Result:
    """Run rounds of children until the next round would end past ``seconds``.

    A round is one ``--version`` child, one reference child and one workload
    child (``trace=False``), or one untraced and one traced workload child
    (``trace=True``).  At least one round runs.
    """
    result = Result()
    start = time.perf_counter()
    deadline = start + seconds
    argv = workload.argv(seed)
    result.notes.append(f"workload {workload.name}: saddlescape {' '.join(argv)}")
    check = OutputChecker(workload, seed, expected_digest)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        workdir = Path(scratch)
        out = workdir / workload.output
        version = [sys.executable, "-m", "saddlescape", "--version"]
        reference = [sys.executable, str(HERE / "reference.py")]
        plain = [sys.executable, "-m", "saddlescape", *argv, "--out", str(out)]

        def run(cmd, checked=True) -> tuple[Child, bool]:
            out.unlink(missing_ok=True)
            child = spawn(cmd, workdir, start + RUN_BUDGET_S - time.perf_counter())
            ok = result.record(child, check(out) if checked and child.problem is None else None)
            return child, ok

        def rounds(one_round):
            last = 0.0
            while last == 0.0 or time.perf_counter() + last <= deadline:
                started = time.perf_counter()
                one_round()
                last = time.perf_counter() - started

        # Untimed: compiles the package's bytecode and warms the file cache.
        spawn(version, workdir, RUN_BUDGET_S)
        if not trace:
            setup, references, samples = [], [], []

            def plain_round():
                setup.append(run(version, checked=False)[0])
                references.append(run(reference, checked=False)[0])
                samples.append(run(plain)[0])

            rounds(plain_round)
            raw = {
                "wall_s": [c.wall_s for c in samples],
                "cpu_s": [c.cpu_s for c in samples],
                "setup_s": [c.wall_s for c in setup],
            }
            series = {name: scaled(values, references) for name, values in raw.items()}
            series["peak_rss_mb"] = [c.peak_rss_mb for c in samples]
            for name in END_TO_END_UNITS:
                if name in series:
                    unit = END_TO_END_UNITS[name]
                    result.metrics[name] = (statistics.median(series[name]), unit)
                    result.notes.append(tail_note(name, series[name], unit))
            for name, values in raw.items():
                result.notes.append(tail_note(f"raw {name}", values, "s"))
            result.notes.append(tail_note("reference wall", [c.wall_s for c in references], "s"))
            result.metrics["ok_rate"] = (1.0 - result.failed / result.attempted, END_TO_END_UNITS["ok_rate"])
        else:
            report_path = workdir / "trace.json"
            traced = [sys.executable, str(HERE / "tracer.py"), str(report_path), "--", *argv, "--out", str(out)]
            untraced_walls, traced_walls, reports = [], [], []

            def traced_round():
                untraced_walls.append(run(plain)[0].wall_s)
                report_path.unlink(missing_ok=True)
                child, ok = run(traced)
                traced_walls.append(child.wall_s)
                if ok:
                    reports.append(json.loads(report_path.read_text()))

            rounds(traced_round)
            if reports:
                result.metrics.update(layer_metrics(reports, check.bytes_out))
                overhead = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
                result.metrics["trace_overhead"] = (overhead, PER_LAYER_UNITS["trace_overhead"])
                counts = [{name: r["counts"].get(name, 0) for name in COUNTERS} for r in reports]
                if any(c != counts[0] for c in counts):
                    result.failed += 1
                    result.notes.append("FAILED: counters differ between traced runs")
                result.notes.extend(top_functions(reports[0]))
                result.notes.append(tail_note("untraced wall", untraced_walls, "s"))
                result.notes.append(tail_note("traced wall", traced_walls, "s"))
            for name, unit in PER_LAYER_UNITS.items():
                if name in result.metrics:
                    result.notes.append(f"{name}: {result.metrics[name][0]:.6g} {unit}")
        result.digests = set(check.verdicts)
    return result


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(reports: list[dict], bytes_out: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: medians of the traced runs' times, exact counters."""

    def median_of(key: str, layer: str) -> float:
        return statistics.median(r[key].get(layer, 0.0) for r in reports)

    counts = reports[0]["counts"]
    metrics = {f"{layer}.self_s": median_of("self_s", layer) for layer in LAYERS}
    metrics["import.self_s"] = statistics.median(r["import_s"] for r in reports)
    metrics.update({name: counts.get(name, 0) for name in COUNTERS})
    steps = counts.get("optimizers.steps", 0)
    metrics["experiments.escape_coord_steps_per_s"] = _ratio(
        counts.get("experiments.escape_coord_steps", 0), metrics["experiments.self_s"]
    )
    metrics["optimizers.coord_steps_per_s"] = _ratio(
        counts.get("optimizers.coord_steps", 0), median_of("inclusive_s", "optimizers")
    )
    metrics["optimizers.trace_mb"] = counts.get("optimizers.trace_bytes", 0) / MIB
    metrics["problems.grad_rows_per_step"] = _ratio(counts.get("problems.grad_rows", 0), steps)
    metrics["schedules.terms_per_step"] = _ratio(counts.get("schedules.terms", 0), counts.get("scheduled_steps", 0))
    metrics["spectral.blocks_per_s"] = _ratio(counts.get("spectral.blocks", 0), median_of("inclusive_s", "spectral"))
    metrics["cli.bytes_out"] = bytes_out
    metrics["trace.coverage"] = statistics.median(
        (r["import_s"] + sum(r["self_s"].values())) / r["inprocess_s"] for r in reports
    )
    return {name: (value, PER_LAYER_UNITS[name]) for name, value in metrics.items()}


def top_functions(report: dict, limit: int = 8) -> list[str]:
    ranked = sorted(report["functions"].items(), key=lambda item: -item[1]["self_s"])[:limit]
    return [f"  {name}: {entry['self_s']:.4f} s self over {entry['calls']} calls" for name, entry in ranked]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "saddlescape" / "__init__.py").is_file():
        print(f"perfbench: no saddlescape package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    digests = json.loads(DIGESTS.read_text())
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    result = measure(
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        digests.get(args.workload) if args.seed == DEFAULT_SEED else None,
    )
    for note in result.notes:
        print(note)
    print(json.dumps(result.line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
