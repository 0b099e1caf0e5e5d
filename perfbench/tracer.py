"""Run one saddlescape CLI invocation in-process with every layer boundary traced.

    PYTHONPATH=src python3 perfbench/tracer.py REPORT.json -- table --n 100 ...

The public functions and methods each module of the package exports are
wrapped, and so are the names other modules imported from it, so calls made
through ``experiments`` or ``cli`` are seen too.  Private helpers are not
wrapped: their time counts as self time of the public call that runs them.
Spans stay in memory; at exit the report holds, per layer, the self time (a
span's duration minus the time its child spans cover), per-function totals and
the counters of ``OBSERVERS``, which read the arguments and result of the
outermost call of each layer.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from collections import Counter  # noqa: E402

from workloads import MODULE_LAYERS  # noqa: E402

# Every divergence-table problem has 5 negative eigenvalues (experiments.divergence_table).
TABLE_NEGATIVE_COORDS = 5


def layer_of(module_layer: str, name: str) -> str:
    """Serialization (CSV/JSON conversion) is its own layer, wherever it is defined."""
    return "serialize" if "csv" in name or "json_dict" in name else module_layer


def _rows(x) -> int:
    shape = getattr(x, "shape", None) or (len(x),)
    rows = 1
    for extent in shape[:-1]:
        rows *= extent
    return rows


def _count_run(counts, args, trace):
    counts["optimizers.runs"] += 1
    counts["optimizers.steps"] += trace.steps
    counts["optimizers.coord_steps"] += trace.steps * trace.dimension
    counts["optimizers.diverged_runs"] += int(trace.diverged)
    counts["optimizers.trace_bytes"] += sum(
        a.nbytes for a in (trace.points, trace.predecessor, trace.function_values, trace.gradient_norms)
    )


def _count_scheduled_run(counts, args, trace):
    _count_run(counts, args, trace)
    counts["scheduled_steps"] += trace.steps


def _count_rows(counts, args, result):
    counts["problems.grad_rows"] += _rows(args["x"])


def _count_terms(counts, args, result):
    counts["schedules.terms"] += args["count"]


def _count_table(counts, args, table):
    counts["experiments.trials"] += len(table.trials)
    counts["experiments.censored"] += sum(len(rec.censored) for rec in table.trials)
    escape_steps = sum(rec.steepest_descent + rec.accelerated_gradient for rec in table.trials)
    counts["experiments.escape_coord_steps"] += escape_steps * TABLE_NEGATIVE_COORDS
    counts["scheduled_steps"] += sum(rec.accelerated_gradient for rec in table.trials)


def _count_recurrence(counts, args, sequence):
    counts["rates.recurrence_steps"] += args["count"]
    counts["scheduled_steps"] += args["count"]


def _count_classification(counts, args, result):
    counts["spectral.blocks"] += len(result.pairs)
    counts["spectral.unstable_vectors"] += result.unstable_eigenvectors.shape[0]


OBSERVERS = {
    "optimizers.run_gradient_descent": _count_run,
    "optimizers.run_heavy_ball": _count_scheduled_run,
    "optimizers.run_accelerated": _count_scheduled_run,
    "optimizers.run": _count_scheduled_run,
    "problems.gradient": _count_rows,
    "problems.QuadraticProblem.gradient": _count_rows,
    "problems.QuadraticProblem.evaluate": _count_rows,
    "problems.FunctionOracle.gradient": _count_rows,
    "problems.FunctionOracle.evaluate": _count_rows,
    "schedules.params_array": _count_terms,
    "schedules.nesterov_t": _count_terms,
    "schedules.verify_tk_properties": _count_terms,
    "schedules.schedule_params": lambda counts, args, result: counts.update({"schedules.terms": 1}),
    "rates.rate_sequence": _count_recurrence,
    "spectral.classify_saddle_map": _count_classification,
    "spectral.block_eigenvalues": lambda counts, args, result: counts.update({"spectral.blocks": 1}),
    "spectral.unstable_eigenvector": lambda counts, args, result: counts.update(
        {"spectral.unstable_vectors": 1}
    ),
    "experiments.divergence_table": _count_table,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, name, start, end, parent index]
        self.stack = []
        self.counts = Counter()

    def wrap(self, layer: str, name: str, fn):
        observer = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observer else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [layer, name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if observer and (parent < 0 or spans[parent][0] != layer):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observer(self.counts, bound.arguments, result)
            return result

        return traced

    def install(self, package_name: str = "saddlescape") -> None:
        replaced = {}
        for module_layer in MODULE_LAYERS:
            module = importlib.import_module(f"{package_name}.{module_layer}")
            for name in module.__all__:
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped = self.wrap(layer_of(module_layer, name), f"{module_layer}.{name}", obj)
                    replaced[id(obj)] = (obj, wrapped)
                elif isinstance(obj, type) and not getattr(obj, "_is_protocol", False):
                    self._wrap_methods(module_layer, obj)
        # Modules that imported a function by name hold their own reference.
        for module_name, module in list(sys.modules.items()):
            if module_name == package_name or module_name.startswith(package_name + "."):
                for attr, value in list(vars(module).items()):
                    entry = replaced.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(module, attr, entry[1])

    def _wrap_methods(self, module_layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{module_layer}.{cls.__name__}.{attr}"
            layer = layer_of(module_layer, attr)
            if isinstance(member, types.FunctionType):
                setattr(cls, attr, self.wrap(layer, name, member))
            elif isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self.wrap(layer, name, member.__func__)))

    def summary(self) -> dict:
        """Self and inclusive time per layer, per-function totals and counters."""
        child_time = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = Counter()
        inclusive_s = Counter()
        functions = {}
        for (layer, name, start, end, parent), children in zip(self.spans, child_time):
            duration = end - start
            self_s[layer] += duration - children
            if parent < 0 or self.spans[parent][0] != layer:
                inclusive_s[layer] += duration
            entry = functions.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += duration - children
        return {
            "spans": len(self.spans),
            "self_s": dict(self_s),
            "inclusive_s": dict(inclusive_s),
            "functions": {name: {"calls": c, "self_s": s} for name, (c, s) in functions.items()},
            "counts": dict(self.counts),
        }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py REPORT.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    report_path, cli_args = argv[0], argv[2:]
    import_start = time.perf_counter()
    cli = importlib.import_module("saddlescape.cli")
    import_s = time.perf_counter() - import_start
    tracer = Tracer()
    tracer.install()
    code = cli.main(cli_args)
    end = time.perf_counter()
    report = tracer.summary()
    report["import_s"] = import_s
    report["inprocess_s"] = end - START
    report["exit_code"] = code
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
