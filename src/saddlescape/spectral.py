"""Spectral analysis of the heavy-ball iteration map at a critical point.

The method's iterate pairs evolve under the map

    T(z1, z2) = (z1 - alpha * grad f(z1) + beta * (z1 - z2), z1)

whose fixed points are exactly the pairs ``(x*, x*)`` at critical points of
``f``.  On a quadratic, its Jacobian splits into one 2x2 block per Hessian
eigenvalue ``lambda``, and the block's eigenvalues are the roots of

    mu^2 - (1 + beta - alpha*lambda) mu + beta = 0.

Positive ``lambda`` with ``alpha*lambda < 2*(1 + beta)`` gives two roots of
magnitude below one, ``lambda = 0`` gives {1, beta}, and negative ``lambda``
gives one root in (0, 1) and one above 1, so the unstable dimension equals
the number of negative Hessian eigenvalues.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .problems import QuadraticProblem, _positive
from .rates import _csv_rows

__all__ = [
    "ConditionError",
    "EigenPair",
    "SpectrumClassification",
    "blocks_csv",
    "block_eigenvalues",
    "block_roots",
    "param_conditions",
    "classify_saddle_map",
    "apply_iteration_map",
    "invert_iteration_map",
]


class ConditionError(ValueError):
    """The step size / momentum parameters violate the classification conditions."""


# One record per Hessian eigenvalue: its block's roots and class, as ``spectrum`` writes them.
_COMPLEX = [("re", float), ("im", float)]
BLOCK_DTYPE = np.dtype([("lambda", float), ("mu_hi", _COMPLEX), ("mu_lo", _COMPLEX), ("class", "U8")])
_CLASSES = np.array(["unstable", "unit", "stable"])  # indexed by sign(1 - |mu_hi|) + 1


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues of one 2x2 block of the linearized iteration map: one record of :func:`block_roots`.

    The roots always satisfy ``mu_hi + mu_lo = 1 + beta - alpha*lambda`` and
    ``mu_hi * mu_lo = beta``.
    """

    mu_hi: complex
    mu_lo: complex
    lam: float

    @property
    def is_real(self) -> bool:
        return self.mu_hi.imag == 0.0  # a complex pair's imaginary part, 0.5*sqrt(-disc), is positive


def blocks_csv(blocks: np.ndarray) -> Iterator[str]:
    """CSV text of ``BLOCK_DTYPE`` records, one row per block, written from their columns by :func:`_csv_rows`."""
    yield "lambda,mu_hi_re,mu_hi_im,mu_lo_re,mu_lo_im,class\n"
    hi, lo = blocks["mu_hi"], blocks["mu_lo"]
    columns = [blocks["lambda"], hi["re"], hi["im"], lo["re"], lo["im"], blocks["class"]]
    yield from _csv_rows("%.12g,%.12g,%.12g,%.12g,%.12g,%s\n", columns)


def block_roots(lams, alpha: float, beta: float) -> np.ndarray:
    """The roots of ``mu^2 - (1 + beta - alpha*lambda) mu + beta = 0``, one ``BLOCK_DTYPE`` record per ``lambda``.

    ``mu_hi`` is the root of larger magnitude, or in a complex pair the one with positive imaginary part.
    ``class`` is ``unstable``, ``unit`` or ``stable`` as ``|mu_hi|`` lies above, at or below one.
    """
    _positive("alpha", alpha)
    lams = np.asarray(lams, dtype=float)
    if not np.isfinite(lams).all():
        raise ValueError(f"lambda must be finite, got {float(lams[~np.isfinite(lams)][0])!r}")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = alpha * lams
        s = 1.0 + beta - scaled
        # Expanded so lambda = 0 yields exactly (1 - beta)^2 instead of the
        # cancellation-prone (1 + beta)^2 - 4*beta.
        disc = (1.0 - beta) ** 2 + scaled * (scaled - 2.0 * (1.0 + beta))
    if not np.isfinite(disc).all():
        raise ValueError(f"alpha*lambda = {float(scaled[~np.isfinite(disc)][0])!r} is too large for finite roots")
    real, root = disc >= 0.0, np.sqrt(np.abs(disc))
    plus, minus = 0.5 * (s + root), 0.5 * (s - root)
    blocks = np.empty(lams.shape, BLOCK_DTYPE)
    blocks["lambda"] = lams
    real_roots = np.where(np.abs(plus) >= np.abs(minus), [plus, minus], [minus, plus])  # (hi, lo)
    blocks["mu_hi"]["re"], blocks["mu_lo"]["re"] = np.where(real, real_roots, 0.5 * s)
    blocks["mu_hi"]["im"], blocks["mu_lo"]["im"] = np.where(real, 0.0, [0.5 * root, -0.5 * root])
    hi = blocks["mu_hi"]
    blocks["class"] = _CLASSES[np.sign(1.0 - np.hypot(hi["re"], hi["im"])).astype(np.intp) + 1]
    # beta < 1 keeps a zero eigenvalue's roots {1, beta} distinct, so its block is diagonalizable; but
    # 1 + beta rounds to 2 at the largest beta below 1, and both computed roots to 1.
    if (real & (plus == minus) & (lams == 0)).any():
        raise ValueError(f"beta = {beta!r} rounds the zero-eigenvalue block's roots 1 and beta to one root")
    return blocks


def block_eigenvalues(lam: float, alpha: float, beta: float) -> EigenPair:
    """The roots of one block: the one-row case of :func:`block_roots`."""
    return SpectrumClassification(block_roots([lam], alpha, beta)).pairs[0]


def param_conditions(alpha: float, beta: float, lambda1: float) -> None:
    """Check ``0 < alpha < 4/lambda1`` and ``beta in (max(alpha*lambda1/2 - 1, 0), 1)``.

    ``lambda1`` is the largest (positive) Hessian eigenvalue.  Both intervals
    are open.  A violation raises :class:`ConditionError` naming every failed
    inequality, joined by ``"; "``.
    """
    _positive("lambda1", lambda1)
    failures = []
    if not 0.0 < alpha < 4.0 / lambda1:
        failures.append(f"alpha must satisfy 0 < alpha < 4/lambda1 = {4.0 / lambda1:.6g}")
    # A non-finite alpha is reported above; it must not garble the beta interval.
    lower = max(alpha * lambda1 / 2.0 - 1.0, 0.0) if math.isfinite(alpha) else 0.0
    if not lower < beta < 1.0:
        failures.append(f"beta must lie in the open interval ({lower:.6g}, 1)")
    if failures:
        raise ConditionError("; ".join(failures))


@dataclass(frozen=True)
class SpectrumClassification:
    """Block-by-block spectrum of the linearized iteration map.

    ``blocks`` holds one ``BLOCK_DTYPE`` record per eigenvalue and ``basis`` the problem's eigenvector
    matrix (None if diagonal); the rest, such as ``pairs``, is derived when read.  ``stable_dim`` counts
    eigenvalues of magnitude at most one and ``unstable_dim`` those beyond one, one per negative Hessian
    eigenvalue.  ``unstable_eigenvectors`` holds one row ``(v, v / mu_hi)`` per negative eigenvalue,
    ``v`` its unit vector or basis column; the rows are mutually orthogonal.
    """

    blocks: np.ndarray
    basis: np.ndarray | None = None

    @property
    def pairs(self) -> tuple[EigenPair, ...]:
        return tuple(EigenPair(complex(*hi), complex(*lo), lam) for lam, hi, lo, _ in self.blocks.tolist())

    @property
    def unstable_dim(self) -> int:
        return int(np.count_nonzero(self.blocks["lambda"] < 0))

    @property
    def stable_dim(self) -> int:
        return 2 * len(self.blocks) - self.unstable_dim

    @property
    def unstable_eigenvectors(self) -> np.ndarray:
        (index,) = np.nonzero(self.blocks["lambda"] < 0)
        n = len(self.blocks)
        v = (index[:, None] == np.arange(n)).astype(float) if self.basis is None else self.basis[:, index].T
        return np.hstack([v, v / self.blocks["mu_hi"]["re"][index, None]])

    def to_json_dict(self) -> dict:
        return {"stable_dim": self.stable_dim, "unstable_dim": self.unstable_dim, "blocks": self.blocks}


def classify_saddle_map(problem: QuadraticProblem, alpha: float, beta: float) -> SpectrumClassification:
    """Classify the full 2n-dimensional spectrum of the map at the critical point.

    Requires the parameter conditions for the problem's largest eigenvalue;
    a violation raises :class:`ConditionError` naming the failed inequality.
    """
    lambda1 = float(problem.eigenvalues[0])
    if lambda1 <= 0:
        raise ConditionError("classification requires a positive largest eigenvalue")
    param_conditions(alpha, beta, lambda1)
    return SpectrumClassification(block_roots(problem.eigenvalues, alpha, beta), problem.basis)


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

