"""Command-line front end: deterministic, file-based outputs for every operation.

Exit codes: 0 on success, 1 on usage or I/O errors, 2 when a property
verification (``verify-tk``) reports a violation.  Every run echoes its
effective configuration, including the resolved seed, to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import MISSING, fields
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .experiments import TABLE_METHODS, divergence_table, negspace_experiment, toy_figure
from .optimizers import MAX_TRACE_VALUES, EqualStart, PerturbedStart
from .problems import _positive, random_problem
from .rates import _CSV_CHUNK, MAX_STEPS, predicted_escape_iters, rate_limit, rate_sequence
from .schedules import SCHEDULE_KINDS, ToySchedule, verify_tk_properties
from .spectral import block_roots, blocks_csv, classify_saddle_map

__all__ = ["main", "console_entry", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


_SCHEDULE_SPECS = " | ".join(cls.spec for cls in SCHEDULE_KINDS.values())


def _parse_schedule_spec(text: str, alpha: float, delta: float, gamma_hat: float):
    """The schedule spelled ``text``, one of ``_SCHEDULE_SPECS``."""
    name, _, arg = text.partition(":")
    cls = SCHEDULE_KINDS.get(name)
    if cls is None:
        raise ValueError(f"unknown schedule {text!r}; expected {_SCHEDULE_SPECS}")
    if cls is ToySchedule and not arg:  # its arguments come from --alpha, --lambda and --gamma
        return ToySchedule(alpha, delta, gamma_hat)
    values = [float(part) for part in arg.split(",")] if arg else []
    least = sum(f.default is MISSING for f in fields(cls))
    if not least <= len(values) <= cls.spec.count(",") + (":" in cls.spec):
        raise ValueError(f"the {name} schedule is spelled {cls.spec!r}, got {text!r}")
    return cls(*values)


# Parsed names that pick the command or where its output goes, not how it runs.
_NOT_ECHOED = ("command", "func", "out", "json")


def _echo_config(args, **resolved) -> None:
    """Echo the run's settings: the parsed arguments, with the values the command resolved in their place."""
    config = {name: value for name, value in vars(args).items() if name not in _NOT_ECHOED}
    config.update(resolved)
    print(f"saddlescape {args.command} config: {json.dumps(config, sort_keys=True)}", file=sys.stderr)


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write ``text``, a string or an iterable of string chunks, to ``out`` (stdout when None).

    The only function that writes a command's output.  Output is computed
    as it is written: a CSV series as its rows are formatted, and JSON as
    :func:`_json_chunks` walks the payload.  A chunk may raise after others
    were written (JSON holds only finite numbers, so an infinite or NaN
    value raises ``ValueError``); the partly written ``out`` is then deleted.
    """
    chunks = (text,) if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(chunks)
        return
    handle = open(out, "w", encoding="utf-8", newline="")
    try:
        with handle:
            handle.writelines(chunks)
    except BaseException:
        if os.path.isfile(out) and not os.path.islink(out):  # never a device such as /dev/null
            os.remove(out)
        raise


def _emit_result(result, fmt: str, out: str | None) -> None:
    _emit(_json_chunks(result.to_json_dict()) if fmt == "json" else result.to_csv(), out)


def _json_chunks(value, indent: str = "", end: str = "\n") -> Iterator[str]:
    """The text of ``json.dumps(value, indent=2) + end`` at ``indent``, as chunks of at most ``_CSV_CHUNK`` array items.

    A dict is written key by key.  A non-empty ``ndarray`` is written as its
    ``tolist()``, its items filled into the one ``%`` template :func:`_columns`
    builds from its columns, one chunk of items at a time.  Anything else is
    one :func:`_leaf`.  A list or tuple, or a key that is not a string, raises
    ``TypeError``, and a non-finite float ``ValueError``.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value:
        head = "{\n"
        for key, item in value.items():
            yield head + inner + encode_basestring_ascii(key) + ": "
            yield from _json_chunks(item, inner, "")
            head = ",\n"
        yield "\n" + indent + "}" + end
    elif isinstance(value, np.ndarray) and len(value):
        columns, sep = [], ",\n" + inner
        template = _columns(value, columns, inner)
        for lo in range(0, len(value), _CSV_CHUNK):
            rows = min(_CSV_CHUNK, len(value) - lo)
            leaves = [None] * (rows * len(columns))
            for i, column in enumerate(columns):
                leaves[i :: len(columns)] = [_leaf(item) for item in column[lo : lo + rows].tolist()]
            yield (("[\n" + inner if lo == 0 else sep) + sep.join([template] * rows)) % tuple(leaves)
        yield "\n" + indent + "]" + end
    else:
        yield f"{_leaf(value)}{end}"


def _leaf(value):
    """What ``%s`` writes as the JSON text of ``value``: a scalar, or an empty dict or array.

    A float is returned as a ``float``, whose ``%s`` is ``float.__repr__`` as
    in ``json``; anything else as its JSON text.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"JSON output holds only finite numbers, got {float(value)!r}")
        return value if type(value) is float else float(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (dict, np.ndarray)) and not len(value):  # _json_chunks writes a non-empty one
        return "{}" if isinstance(value, dict) else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _columns(array: np.ndarray, columns: list, indent: str) -> str:
    """The ``indent=2`` JSON text at ``indent`` of an item of ``array``, with ``%s`` for each scalar.

    The 1-D arrays that hold those scalars are appended to ``columns``, in
    order: a structured array is split by field, and a plain one along its
    second axis, until each part is 1-D.
    """
    inner = indent + "  "
    if array.dtype.names is not None:
        keys = (encode_basestring_ascii(name).replace("%", "%%") for name in array.dtype.names)
        brackets, parts = "{}", [key + ": " + _columns(array[name], columns, inner)
                                 for key, name in zip(keys, array.dtype.names)]
    elif array.ndim > 1:
        brackets, parts = "[]", [_columns(array[:, i], columns, inner) for i in range(array.shape[1])]
    else:
        columns.append(array)
        return "%s"
    if not parts:
        return brackets
    return brackets[0] + "\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + brackets[1]


def _resolve_format(args, default: str) -> str:
    return "json" if args.json else args.format or default


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_toy(args) -> int:
    fmt = _resolve_format(args, "csv")
    figure = toy_figure(args.delta, args.alpha, args.beta, args.x0, args.iters, args.thin, args.threshold)
    _echo_config(args, format=fmt, x0=args.x0.tolist())
    _emit_result(figure, fmt, args.out)
    return 0


def _cmd_spectrum(args) -> int:
    fmt = _resolve_format(args, "json")
    lam, alpha, seed = getattr(args, "lambda"), args.alpha, args.seed  # ``lambda`` is a keyword
    if lam is not None:
        if mixed := [f"--{name}" for name in ("n", "p", "delta", "seed") if getattr(args, name) is not None]:
            raise ValueError(f"single-eigenvalue mode (--lambda) takes no {', '.join(mixed)}")
        if alpha is None or args.beta is None:
            raise ValueError("single-eigenvalue mode needs --lambda, --alpha and --beta")
        payload = {"blocks": block_roots([lam], alpha, args.beta)}
        if lam > 0 and alpha * lam >= (bound := 2.0 * (1.0 + args.beta)):  # the block would not contract
            raise ValueError(f"alpha*lambda must be below 2*(1 + beta) = {bound!r} if lambda > 0, got {alpha * lam!r}")
    else:
        if args.n is None or args.p is None or args.delta is None:
            raise ValueError("problem mode needs --n, --p and --delta (or use --lambda)")
        if args.beta is None:
            raise ValueError("--beta is required")
        seed = 0 if seed is None else seed
        problem = random_problem(args.n, args.p, args.delta, seed)
        if alpha is None:
            alpha = 1.0 / problem.lipschitz
        payload = classify_saddle_map(problem, alpha, args.beta).to_json_dict()
    blocks = payload["blocks"]
    # only lambda = 0 has a root of magnitude 1: a block of another lambda classed unit has a root that rounded to 1
    if (unit := (blocks["lambda"] != 0) & (blocks["class"] == "unit")).any():
        raise ValueError(f"the block of lambda = {float(blocks['lambda'][unit][0])!r} has a root that rounds to "
                         f"magnitude 1 (alpha = {alpha!r}, beta = {args.beta!r}): its class is not resolved")
    _echo_config(args, format=fmt, alpha=alpha, seed=seed)
    _emit(_json_chunks(payload) if fmt == "json" else blocks_csv(blocks), args.out)
    return 0


def _cmd_rates(args) -> int:
    fmt = _resolve_format(args, "json")
    lam = getattr(args, "lambda")
    # Only the toy schedule reads --gamma, but every schedule's echo shows it.
    if not (args.gamma >= 0 and math.isfinite(args.gamma)):
        raise ValueError(f"--gamma must be nonnegative and finite, got {args.gamma!r}")
    schedule = _parse_schedule_spec(args.schedule, args.alpha, abs(lam), args.gamma)
    # The sequence, the limit and the prediction check their inputs before
    # anything is echoed; the sequence itself runs as it is written.  The CSV
    # reads neither the limit nor the prediction, but the echo shows
    # --projection and --threshold either way.
    sequence = rate_sequence(lam, args.alpha, schedule, args.iters)
    for name in ("projection", "threshold"):
        _positive(f"--{name}", getattr(args, name))
    if fmt == "json":
        limit = rate_limit(lam, args.alpha, *schedule.limit())
        predicted = predicted_escape_iters(limit, args.projection, args.threshold)
    _echo_config(args, format=fmt, schedule=schedule.to_json_dict())
    if fmt == "json":
        payload = {
            "lambda": lam,
            "alpha": args.alpha,
            "schedule": schedule.to_json_dict(),
            "b_final": sequence.final,
            "b_limit": limit,
            "predicted_escape_iters": predicted,
        }
        _emit(_json_chunks(payload), args.out)
    else:
        _emit(sequence.to_csv(), args.out)
    return 0


def _cmd_simulate(args) -> int:
    fmt = _resolve_format(args, "csv")
    policy = EqualStart() if args.eps_perturb == 0 else PerturbedStart(args.eps_perturb, args.seed)
    series = negspace_experiment(args.n, args.p, args.delta, args.seed, args.iters, policy)
    _echo_config(args, format=fmt)
    _emit_result(series, fmt, args.out)
    return 0


def _cmd_table(args) -> int:
    fmt = _resolve_format(args, "csv")
    result = divergence_table(
        ns=args.n,
        deltas=args.delta,
        trials=args.trials,
        seed=args.seed,
        iteration_cap=args.iters,
        threshold=args.threshold,
    )
    censored = [f"{row.censored} of {result.trials_per_cell} {m} (n={cell.n}, delta={cell.delta:g})"
                for cell in result.cells() for m in TABLE_METHODS if (row := cell.methods[m]).censored]
    if censored:
        print(f"saddlescape: warning: trials that hit the iteration cap: {'; '.join(censored)}", file=sys.stderr)
    _echo_config(args, format=fmt)
    _emit_result(result, fmt, args.out)
    return 0


def _cmd_verify_tk(args) -> int:
    report = verify_tk_properties(args.K)
    _echo_config(args)
    _emit(_json_chunks(report.to_json_dict()), args.out)
    return 0 if report.passed else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="saddlescape", description=__doc__)
    parser.add_argument("--version", action="version", version=f"saddlescape {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p, default_format):
        p.add_argument("--out", help="output file path (default: stdout)")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--format", choices=("csv", "json"), default=None,
                         help=f"output format (default: {default_format})")
        fmt.add_argument("--json", action="store_true", help="shorthand for --format json")

    toy = sub.add_parser("toy", help="trace both methods on the 2-D toy saddle")
    toy.add_argument("--delta", type=float, default=0.02, help="negative curvature magnitude")
    toy.add_argument("--alpha", type=float, default=0.75, help="step size")
    toy.add_argument("--beta", type=float, default=0.985, help="heavy-ball momentum, in [0, 1)")
    toy.add_argument("--x0", type=_parse_point, default=np.array([0.25, 0.01]),
                     help="starting point as 'X1,X2'")
    toy.add_argument("--iters", type=int, default=500,
                     help=f"number of update steps, at most {MAX_TRACE_VALUES // 2 - 1}")
    toy.add_argument("--thin", type=int, default=1, help="keep every m-th iterate")
    toy.add_argument("--threshold", type=float, default=1.0, help="escape threshold on |x2|")
    add_output_flags(toy, "csv")
    toy.set_defaults(func=_cmd_toy)

    spectrum = sub.add_parser("spectrum", help="eigenvalues of the linearized iteration map")
    spectrum.add_argument("--lambda", type=float, default=None,
                          help="single Hessian eigenvalue; a positive one needs alpha*lambda < 2*(1 + beta)")
    spectrum.add_argument("--alpha", type=float, default=None, help="step size")
    spectrum.add_argument("--beta", type=float, default=None, help="momentum, in [0, 1)")
    spectrum.add_argument("--n", type=int, default=None, help="problem dimension (problem mode)")
    spectrum.add_argument("--p", type=int, default=None, help="negative eigenvalue count")
    spectrum.add_argument("--delta", type=float, default=None, help="negative eigenvalue scale")
    spectrum.add_argument("--seed", type=int, default=None, help="problem seed (default: 0)")
    add_output_flags(spectrum, "json")
    spectrum.set_defaults(func=_cmd_spectrum)

    rates = sub.add_parser("rates", help="divergence-rate recurrence and its limit")
    rates.add_argument("--lambda", type=float, required=True,
                       help="negative Hessian eigenvalue")
    rates.add_argument("--alpha", type=float, required=True, help="step size")
    rates.add_argument("--gamma", type=float, default=0.0,
                       help="slack term for the toy schedule (nonnegative and finite)")
    rates.add_argument("--schedule", default="nesterov",
                       help=f"{_SCHEDULE_SPECS}; constant:B,G allows B = 1")
    rates.add_argument("--iters", type=int, default=10000,
                       help=f"recurrence length, from 1 to {MAX_STEPS} (10^9)")
    rates.add_argument("--projection", type=float, default=1e-2,
                       help="starting projection norm for the prediction")
    rates.add_argument("--threshold", type=float, default=1.0,
                       help="escape threshold for the prediction")
    add_output_flags(rates, "json")
    rates.set_defaults(func=_cmd_rates)

    simulate = sub.add_parser("simulate", help="negative-eigenspace growth of all methods")
    simulate.add_argument("--n", type=int, default=100, help="problem dimension")
    simulate.add_argument("--p", type=int, default=1, help="negative eigenvalue count")
    simulate.add_argument("--delta", type=float, default=1e-2, help="negative eigenvalue scale")
    simulate.add_argument("--seed", type=int, default=0, help="master seed")
    simulate.add_argument("--iters", type=int, default=2000,
                          help=f"number of update steps, with (iters + 1) * p at most {MAX_TRACE_VALUES}")
    simulate.add_argument("--eps-perturb", type=float, default=0.0,
                          help="perturbation scale for the momentum predecessor (0 = none)")
    add_output_flags(simulate, "csv")
    simulate.set_defaults(func=_cmd_simulate)

    table = sub.add_parser("table", help="divergence table over seeded random trials")
    table.add_argument("--n", type=int, nargs="+", default=[100], help="problem dimensions, each at least 6")
    table.add_argument("--delta", type=float, nargs="+", default=[1e-2, 1e-3],
                       help="negative eigenvalue scales")
    table.add_argument("--trials", type=int, default=100, help="trials per cell")
    table.add_argument("--seed", type=int, default=0, help="master seed")
    table.add_argument("--iters", type=int, default=10**6,
                       help=f"per-trial iteration cap, at most {sys.float_info.max:.6g} (the largest float)")
    table.add_argument("--threshold", type=float, default=None,
                       help="escape threshold in (0, 1e100] (default: the dimension n); "
                       "a threshold at or below a start's projection counts 0 iterations")
    add_output_flags(table, "csv")
    table.set_defaults(func=_cmd_table)

    verify = sub.add_parser("verify-tk", help="check the t-sequence identities and bounds")
    verify.add_argument("--K", type=int, default=100000,
                        help=f"sequence length to check, from 2 to {MAX_STEPS} (10^9)")
    verify.add_argument("--out", help="output file path (default: stdout)")
    verify.set_defaults(func=_cmd_verify_tk)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help/usage errors itself
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"saddlescape: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a last resort: sizes no run can hold should be rejected before this
        print(f"saddlescape: error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


def console_entry() -> None:
    raise SystemExit(main())
