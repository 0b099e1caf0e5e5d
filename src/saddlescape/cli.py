"""Command-line front end: deterministic, file-based outputs for every operation.

Exit codes: 0 on success, 1 on usage or I/O errors, 2 when a property
verification (``verify-tk``) reports a violation.  Every run echoes its
effective configuration, including the resolved seed, to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from collections.abc import Iterable
from dataclasses import MISSING, fields

import numpy as np

from . import __version__
from .experiments import divergence_table, negspace_experiment, toy_figure
from .optimizers import EqualStart, PerturbedStart
from .problems import random_problem
from .rates import predicted_escape_iters, rate_limit, rate_sequence
from .schedules import SCHEDULE_KINDS, ScheduleError, ToySchedule, verify_tk_properties
from .spectral import ConditionError, block_eigenvalues, blocks_csv, classify_saddle_map

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


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"saddlescape: warning: {message}\n"


def _echo_config(command: str, config: dict) -> None:
    print(f"saddlescape {command} config: {json.dumps(config, sort_keys=True)}", file=sys.stderr)


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write ``text``, a string or an iterable of string chunks, to ``out`` (stdout when None).

    The only function that writes a command's output.
    """
    chunks = (text,) if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)


def _emit_result(result, fmt: str, out: str | None) -> None:
    _emit(_json_text(result.to_json_dict()) if fmt == "json" else result.to_csv(), out)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _resolve_format(args, default: str) -> str:
    if getattr(args, "json", False):
        return "json"
    return args.format or default


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_toy(args) -> int:
    fmt = _resolve_format(args, "csv")
    figure = toy_figure(args.delta, args.alpha, args.beta, args.x0, args.iters, args.thin, args.threshold)
    _echo_config(
        "toy",
        {
            "delta": args.delta,
            "alpha": args.alpha,
            "beta": args.beta,
            "x0": list(map(float, args.x0)),
            "iters": args.iters,
            "thin": args.thin,
            "threshold": args.threshold,
            "format": fmt,
        },
    )
    _emit_result(figure, fmt, args.out)
    return 0


def _cmd_spectrum(args) -> int:
    fmt = _resolve_format(args, "json")
    if args.lam is not None:
        if args.alpha is None or args.beta is None:
            raise ValueError("single-eigenvalue mode needs --lambda, --alpha and --beta")
        payload = {"blocks": [block_eigenvalues(args.lam, args.alpha, args.beta).to_json_dict()]}
        config = {"lambda": args.lam, "alpha": args.alpha, "beta": args.beta, "format": fmt}
    else:
        if args.n is None or args.p is None or args.delta is None:
            raise ValueError("problem mode needs --n, --p and --delta (or use --lambda)")
        if args.beta is None:
            raise ValueError("--beta is required")
        problem = random_problem(args.n, args.p, args.delta, args.seed)
        alpha = args.alpha if args.alpha is not None else 1.0 / problem.lipschitz
        # Only the blocks are written; the unstable eigenvectors are freed here,
        # before the text is built.
        payload = classify_saddle_map(problem, alpha, args.beta).to_json_dict()
        config = {
            "n": args.n,
            "p": args.p,
            "delta": args.delta,
            "seed": args.seed,
            "alpha": alpha,
            "beta": args.beta,
            "format": fmt,
        }
    _echo_config("spectrum", config)
    _emit(_json_text(payload) if fmt == "json" else blocks_csv(payload["blocks"]), args.out)
    return 0


def _cmd_rates(args) -> int:
    fmt = _resolve_format(args, "json")
    schedule = _parse_schedule_spec(args.schedule, args.alpha, abs(args.lam), args.gamma)
    # The sequence, the limit and the prediction check their inputs before
    # anything is echoed or written; the CSV reads neither the limit nor the
    # prediction, but the echo shows --projection and --threshold either way.
    sequence = rate_sequence(args.lam, args.alpha, schedule, args.iters)
    for name in ("projection", "threshold"):
        value = getattr(args, name)
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"--{name} must be positive and finite, got {value!r}")
    if fmt == "json":
        limit = rate_limit(args.lam, args.alpha, *schedule.limit())
        predicted = predicted_escape_iters(limit.value, args.projection, args.threshold)
    _echo_config(
        "rates",
        {
            "lambda": args.lam,
            "alpha": args.alpha,
            "schedule": schedule.to_json_dict(),
            "iters": args.iters,
            "projection": args.projection,
            "threshold": args.threshold,
            "format": fmt,
        },
    )
    if fmt == "json":
        payload = {
            "lambda": args.lam,
            "alpha": args.alpha,
            "schedule": schedule.to_json_dict(),
            "b_final": sequence.final,
            "b_limit": limit.value,
            "predicted_escape_iters": predicted,
        }
        _emit(_json_text(payload), args.out)
    else:
        _emit(sequence.to_csv(), args.out)
    return 0


def _cmd_simulate(args) -> int:
    fmt = _resolve_format(args, "csv")
    policy = EqualStart() if args.eps_perturb == 0 else PerturbedStart(args.eps_perturb, args.seed)
    series = negspace_experiment(args.n, args.p, args.delta, args.seed, args.iters, policy)
    _echo_config(
        "simulate",
        {
            "n": args.n,
            "p": args.p,
            "delta": args.delta,
            "seed": args.seed,
            "iters": args.iters,
            "eps_perturb": args.eps_perturb,
            "format": fmt,
        },
    )
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
    _echo_config(
        "table",
        {
            "n": args.n,
            "delta": args.delta,
            "trials": args.trials,
            "seed": args.seed,
            "iters": args.iters,
            "threshold": args.threshold,
            "format": fmt,
        },
    )
    _emit_result(result, fmt, args.out)
    return 0


def _cmd_verify_tk(args) -> int:
    report = verify_tk_properties(args.K)
    _echo_config("verify-tk", {"K": args.K})
    _emit(_json_text(report.to_json_dict()), args.out)
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
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help=f"output format (default: {default_format})")
        p.add_argument("--json", action="store_true", help="shorthand for --format json")

    toy = sub.add_parser("toy", help="trace both methods on the 2-D toy saddle")
    toy.add_argument("--delta", type=float, default=0.02, help="negative curvature magnitude")
    toy.add_argument("--alpha", type=float, default=0.75, help="step size")
    toy.add_argument("--beta", type=float, default=0.985, help="heavy-ball momentum")
    toy.add_argument("--x0", type=_parse_point, default=np.array([0.25, 0.01]),
                     help="starting point as 'X1,X2'")
    toy.add_argument("--iters", type=int, default=500, help="number of update steps")
    toy.add_argument("--thin", type=int, default=1, help="keep every m-th iterate")
    toy.add_argument("--threshold", type=float, default=1.0, help="escape threshold on |x2|")
    add_output_flags(toy, "csv")
    toy.set_defaults(func=_cmd_toy)

    spectrum = sub.add_parser("spectrum", help="eigenvalues of the linearized iteration map")
    spectrum.add_argument("--lambda", dest="lam", type=float, default=None,
                          help="single Hessian eigenvalue to analyze")
    spectrum.add_argument("--alpha", type=float, default=None, help="step size")
    spectrum.add_argument("--beta", type=float, default=None, help="momentum")
    spectrum.add_argument("--n", type=int, default=None, help="problem dimension (problem mode)")
    spectrum.add_argument("--p", type=int, default=None, help="negative eigenvalue count")
    spectrum.add_argument("--delta", type=float, default=None, help="negative eigenvalue scale")
    spectrum.add_argument("--seed", type=int, default=0, help="problem seed")
    add_output_flags(spectrum, "json")
    spectrum.set_defaults(func=_cmd_spectrum)

    rates = sub.add_parser("rates", help="divergence-rate recurrence and its limit")
    rates.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="negative Hessian eigenvalue")
    rates.add_argument("--alpha", type=float, required=True, help="step size")
    rates.add_argument("--gamma", type=float, default=0.0,
                       help="slack term for the toy schedule")
    rates.add_argument("--schedule", default="nesterov", help=_SCHEDULE_SPECS)
    rates.add_argument("--iters", type=int, default=10000, help="recurrence length")
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
    simulate.add_argument("--iters", type=int, default=2000, help="number of update steps")
    simulate.add_argument("--eps-perturb", type=float, default=0.0,
                          help="perturbation scale for the momentum predecessor (0 = none)")
    add_output_flags(simulate, "csv")
    simulate.set_defaults(func=_cmd_simulate)

    table = sub.add_parser("table", help="divergence table over seeded random trials")
    table.add_argument("--n", type=int, nargs="+", default=[100], help="problem dimensions")
    table.add_argument("--delta", type=float, nargs="+", default=[1e-2, 1e-3],
                       help="negative eigenvalue scales")
    table.add_argument("--trials", type=int, default=100, help="trials per cell")
    table.add_argument("--seed", type=int, default=0, help="master seed")
    table.add_argument("--iters", type=int, default=10**6, help="per-trial iteration cap")
    table.add_argument("--threshold", type=float, default=None,
                       help="escape threshold in (0, 1e100] (default: the dimension n); "
                       "a threshold at or below a start's projection counts 0 iterations")
    add_output_flags(table, "csv")
    table.set_defaults(func=_cmd_table)

    verify = sub.add_parser("verify-tk", help="check the t-sequence identities and bounds")
    verify.add_argument("--K", type=int, default=100000, help="sequence length to check")
    verify.add_argument("--out", help="output file path (default: stdout)")
    verify.set_defaults(func=_cmd_verify_tk)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help/usage errors itself
        return int(exc.code or 0)
    # Warnings still reach whatever records or filters them; only their
    # printed form becomes one line without a source location.
    previous, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return args.func(args)
    except (ValueError, ScheduleError, ConditionError, OSError) as exc:
        print(f"saddlescape: error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = previous


def console_entry() -> None:
    raise SystemExit(main())
