"""Spectral analysis of the heavy-ball iteration map at a critical point.

The method's iterate pairs evolve under the map

    T(z1, z2) = (z1 - alpha * grad f(z1) + beta * (z1 - z2), z1)

whose fixed points are exactly the pairs ``(x*, x*)`` at critical points of
``f``.  On a quadratic, its Jacobian splits into one 2x2 block per Hessian
eigenvalue ``lambda``, and the block's eigenvalues are the roots of

    mu^2 - (1 + beta - alpha*lambda) mu + beta = 0.

Positive ``lambda`` gives two roots of magnitude below one, ``lambda = 0``
gives {1, beta}, and negative ``lambda`` gives one root in (0, 1) and one
above 1, so the unstable dimension equals the number of negative Hessian
eigenvalues.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .problems import QuadraticProblem, _positive

__all__ = [
    "ConditionError",
    "EigenPair",
    "ParamCheck",
    "SpectrumClassification",
    "blocks_csv",
    "block_eigenvalues",
    "param_conditions",
    "classify_saddle_map",
    "apply_iteration_map",
    "invert_iteration_map",
    "unstable_eigenvector",
]


class ConditionError(ValueError):
    """The step size / momentum parameters violate the classification conditions."""


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues of one 2x2 block of the linearized iteration map.

    ``mu_hi`` is the root of larger magnitude; for complex pairs (equal
    magnitudes) it is the one with nonnegative imaginary part, which keeps
    the output deterministic.  The roots always satisfy
    ``mu_hi + mu_lo = 1 + beta - alpha*lambda`` and ``mu_hi * mu_lo = beta``.
    ``label`` classifies the block by the sign of ``lambda``: ``stable``,
    ``unit`` or ``unstable``.
    """

    mu_hi: complex
    mu_lo: complex
    is_real: bool
    lam: float

    @property
    def label(self) -> str:
        return "stable" if self.lam > 0 else ("unit" if self.lam == 0 else "unstable")

    def to_json_dict(self) -> dict:
        """The block as ``spectrum`` writes it, in JSON and, through :func:`blocks_csv`, in CSV."""
        return {
            "lambda": self.lam,
            "mu_hi": {"re": self.mu_hi.real, "im": self.mu_hi.imag},
            "mu_lo": {"re": self.mu_lo.real, "im": self.mu_lo.imag},
            "class": self.label,
        }


def blocks_csv(blocks: Iterable[dict]) -> Iterator[str]:
    """CSV text of blocks serialized by :meth:`EigenPair.to_json_dict`, one row per block."""
    yield "lambda,mu_hi_re,mu_hi_im,mu_lo_re,mu_lo_im,class\n"
    for block in blocks:
        hi, lo = block["mu_hi"], block["mu_lo"]
        yield (
            f"{block['lambda']:.12g},{hi['re']:.12g},{hi['im']:.12g},"
            f"{lo['re']:.12g},{lo['im']:.12g},{block['class']}\n"
        )


def block_eigenvalues(lam: float, alpha: float, beta: float) -> EigenPair:
    """Roots of ``mu^2 - (1 + beta - alpha*lambda) mu + beta = 0``."""
    _positive("alpha", alpha)
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta!r}")
    lam, alpha, beta = float(lam), float(alpha), float(beta)
    s = 1.0 + beta - alpha * lam
    # Expanded so lambda = 0 yields exactly (1 - beta)^2 instead of the
    # cancellation-prone (1 + beta)^2 - 4*beta.
    disc = (1.0 - beta) ** 2 + alpha * lam * (alpha * lam - 2.0 * (1.0 + beta))
    if not math.isfinite(disc):
        raise ValueError(f"alpha*lambda = {alpha * lam!r} is too large for finite roots")
    if disc >= 0.0:
        root = math.sqrt(disc)
        plus = 0.5 * (s + root)
        minus = 0.5 * (s - root)
        if abs(plus) >= abs(minus):
            hi, lo = plus, minus
        else:
            hi, lo = minus, plus
        return EigenPair(complex(hi), complex(lo), True, lam)
    imag = 0.5 * math.sqrt(-disc)
    return EigenPair(complex(0.5 * s, imag), complex(0.5 * s, -imag), False, lam)


@dataclass(frozen=True)
class ParamCheck:
    """Result of checking the classification conditions, with diagnostics."""

    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def param_conditions(alpha: float, beta: float, lambda1: float) -> ParamCheck:
    """Check ``0 < alpha < 4/lambda1`` and ``beta in (max(alpha*lambda1/2 - 1, 0), 1)``.

    ``lambda1`` is the largest (positive) Hessian eigenvalue.  Both intervals
    are open.  Returns a diagnostic result rather than raising.
    """
    _positive("lambda1", lambda1)
    failures = []
    if not 0.0 < alpha < 4.0 / lambda1:
        failures.append(f"alpha must satisfy 0 < alpha < 4/lambda1 = {4.0 / lambda1:.6g}")
    # A non-finite alpha is reported above; it must not garble the beta interval.
    lower = max(alpha * lambda1 / 2.0 - 1.0, 0.0) if math.isfinite(alpha) else 0.0
    if not lower < beta < 1.0:
        failures.append(f"beta must lie in the open interval ({lower:.6g}, 1)")
    return ParamCheck(ok=not failures, failures=tuple(failures))


@dataclass(frozen=True)
class SpectrumClassification:
    """Block-by-block spectrum of the linearized iteration map.

    ``basis`` is the problem's eigenvector matrix (None if diagonal); the rest
    is derived when read.  ``stable_dim`` counts eigenvalues of magnitude at
    most one and ``unstable_dim`` those beyond one, one per negative Hessian
    eigenvalue.  ``unstable_eigenvectors`` holds one row ``(v, v / mu_hi)`` per
    negative eigenvalue, ``v`` its unit vector or basis column; the rows are
    mutually orthogonal.
    """

    pairs: tuple[EigenPair, ...]
    basis: np.ndarray | None = None

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(pair.label for pair in self.pairs)

    @property
    def unstable_dim(self) -> int:
        return sum(pair.lam < 0 for pair in self.pairs)

    @property
    def stable_dim(self) -> int:
        return 2 * len(self.pairs) - self.unstable_dim

    @property
    def unstable_eigenvectors(self) -> np.ndarray:
        n = len(self.pairs)
        unstable = [(i, pair.mu_hi.real) for i, pair in enumerate(self.pairs) if pair.lam < 0]
        rows = np.empty((len(unstable), 2 * n))
        for row, (i, mu_hi) in zip(rows, unstable):
            v = np.eye(1, n, i)[0] if self.basis is None else self.basis[:, i]
            row[:n], row[n:] = v, v / mu_hi
        return rows

    def to_json_dict(self) -> dict:
        return {
            "stable_dim": self.stable_dim,
            "unstable_dim": self.unstable_dim,
            "blocks": [pair.to_json_dict() for pair in self.pairs],
        }


def classify_saddle_map(problem: QuadraticProblem, alpha: float, beta: float) -> SpectrumClassification:
    """Classify the full 2n-dimensional spectrum of the map at the critical point.

    Requires the parameter conditions for the problem's largest eigenvalue;
    a violation raises :class:`ConditionError` naming the failed inequality.
    """
    lambda1 = float(problem.eigenvalues[0])
    if lambda1 <= 0:
        raise ConditionError("classification requires a positive largest eigenvalue")
    check = param_conditions(alpha, beta, lambda1)
    if not check:
        raise ConditionError("; ".join(check.failures))
    pairs = tuple(block_eigenvalues(lam, alpha, beta) for lam in problem.eigenvalues)
    # beta < 1 keeps a zero eigenvalue's roots {1, beta} distinct, so its block
    # is diagonalizable; guard the assumption at runtime.
    if any(pair.lam == 0 and pair.mu_hi == pair.mu_lo for pair in pairs):
        raise ArithmeticError("zero-eigenvalue block produced a repeated root")
    return SpectrumClassification(pairs, problem.basis)


def _check_pair(problem: QuadraticProblem, z1: np.ndarray, z2: np.ndarray):
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    if z1.shape != (problem.n,) or z2.shape != (problem.n,):
        raise ValueError(f"both points must have dimension {problem.n}")
    return z1, z2


def apply_iteration_map(
    problem: QuadraticProblem, alpha: float, beta: float, z1: np.ndarray, z2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One application of the pair map: ``(z1 - alpha*grad f(z1) + beta*(z1 - z2), z1)``.

    On a quadratic the map is linear, so a heavy-ball step from the pair
    ``(x^k, x^{k-1})`` coincides with it exactly.
    """
    z1, z2 = _check_pair(problem, z1, z2)
    first = z1 - alpha * problem.gradient(z1) + beta * (z1 - z2)
    return first, z1.copy()


def invert_iteration_map(
    problem: QuadraticProblem, alpha: float, beta: float, y1: np.ndarray, y2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Explicit inverse of the pair map; requires ``beta > 0``.

    Returns ``(y2, (y2 - y1 - alpha*grad f(y2))/beta + y2)``, so composing
    with :func:`apply_iteration_map` gives the identity.
    """
    if beta == 0:
        raise ValueError("the pair map is not invertible for beta = 0")
    y1, y2 = _check_pair(problem, y1, y2)
    second = (y2 - y1 - alpha * problem.gradient(y2)) / beta + y2
    return y2.copy(), second


def unstable_eigenvector(lam: float, alpha: float, beta: float, v: np.ndarray) -> np.ndarray:
    """Eigenvector ``(v, v / mu_hi)`` of the linearized map for ``lambda < 0``.

    ``v`` must be the (unit) Hessian eigenvector for ``lambda``; the returned
    2n-vector is repelled from the fixed point at rate ``mu_hi > 1``.
    """
    if lam >= 0:
        raise ValueError(f"lambda must be negative, got {lam!r}")
    v = np.asarray(v, dtype=float)
    pair = block_eigenvalues(lam, alpha, beta)
    mu_hi = pair.mu_hi.real
    return np.concatenate([v, v / mu_hi])
