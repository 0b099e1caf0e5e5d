"""Quadratic test problems with known spectra, and the seeded random streams that draw them."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BASIS_TOLERANCE",
    "QuadraticProblem",
    "rng_from",
    "toy_problem",
    "random_problem",
    "random_orthogonal",
    "sample_unit_ball",
]

BASIS_TOLERANCE = 1e-10


def _positive(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _delta(delta: float) -> float:
    """``delta`` if it is a normal float with ``2*delta`` finite: a subnormal one would fail in a derived step size."""
    if not sys.float_info.min <= delta <= sys.float_info.max / 2:
        raise ValueError(f"delta must lie in [{sys.float_info.min!r}, {sys.float_info.max / 2!r}], got {delta!r}")
    return delta


def rng_from(seed: int, *stream: int) -> np.random.Generator:
    """Return the counter-based Philox generator for the stream keyed by ``(seed, *stream)``.

    Streams with distinct keys are independent and each one is reproducible
    bit-for-bit from its key alone, so trial-level streams can be created in
    any order, or in parallel, without changing the numbers any of them draw.
    """
    if int(seed) < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    key = np.random.SeedSequence(int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(key))


@dataclass(frozen=True)
class QuadraticProblem:
    """The quadratic objective ``f(x) = x^T V diag(eigenvalues) V^T x / 2``.

    ``eigenvalues`` must be sorted nonincreasing.  ``basis`` is an optional
    orthogonal matrix whose columns are the eigenvectors; when absent the
    Hessian is diagonal.  Instances are immutable after construction and safe
    to share across threads.

    Attributes
    ----------
    eigenvalues : ndarray
        Hessian spectrum, nonincreasing.
    basis : ndarray or None
        Orthogonal eigenvector matrix, identity when None.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self) -> None:
        ev = np.array(self.eigenvalues, dtype=float)
        if ev.ndim != 1 or ev.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-D array")
        if not np.isfinite(ev).all():
            raise ValueError("eigenvalues must be finite")
        if np.any(np.diff(ev) > 0):
            raise ValueError("eigenvalues must be sorted nonincreasing")
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        if self.basis is not None:
            v = np.array(self.basis, dtype=float)
            if v.shape != (ev.size, ev.size):
                raise ValueError(f"basis must be {ev.size}x{ev.size}, got {v.shape}")
            err = np.abs(v.T @ v - np.eye(ev.size)).max()
            if err > BASIS_TOLERANCE:
                raise ValueError(f"basis is not orthogonal (max |V'V - I| = {err:.3e})")
            v.setflags(write=False)
            object.__setattr__(self, "basis", v)

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @property
    def lipschitz(self) -> float:
        """Gradient Lipschitz constant, ``max(largest, -smallest)`` eigenvalue."""
        return float(max(self.eigenvalues[0], -self.eigenvalues[-1]))

    def _coords(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n,):
            raise ValueError(f"point has dimension {x.shape[-1] if x.ndim else 0}, expected {self.n}")
        return x

    def value(self, x: np.ndarray) -> np.ndarray:
        x = self._coords(x)
        z = x if self.basis is None else x @ self.basis
        return 0.5 * np.sum(self.eigenvalues * z * z, axis=-1)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._coords(x)
        if self.basis is None:
            return self.eigenvalues * x
        return (self.eigenvalues * (x @ self.basis)) @ self.basis.T

    def rotated(self, seed: int) -> "QuadraticProblem":
        """Same spectrum expressed in a seeded random orthogonal basis."""
        return QuadraticProblem(self.eigenvalues, basis=random_orthogonal(self.n, seed))

    def negative_projector(self) -> np.ndarray:
        """Orthogonal projector onto the span of negative-eigenvalue eigenvectors."""
        mask = self.eigenvalues < 0
        if self.basis is None:
            return np.diag(mask.astype(float))
        vneg = self.basis[:, mask]
        return vneg @ vneg.T


def toy_problem(delta: float) -> QuadraticProblem:
    """Two-dimensional saddle ``f(x) = (x1^2 - delta*x2^2)/2`` with ``0 < delta < 1``.

    The origin is a strict saddle point; the gradient Lipschitz constant is 1.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return QuadraticProblem(np.array([1.0, -float(delta)]))


def random_problem(
    n: int,
    p: int,
    delta: float,
    seed: int | np.random.Generator,
) -> QuadraticProblem:
    """Random diagonal quadratic with ``p`` negative eigenvalues.

    The ``n - p`` nonnegative eigenvalues are i.i.d. uniform on [0, 1] (the
    largest is bumped up to ``delta`` in the measure-zero event that every
    draw lands below it, so the Lipschitz constant comes from the positive
    side); the ``p`` negative eigenvalues are i.i.d. uniform on
    ``[-2*delta, -delta]``, except that a single one (``p = 1``) is exactly
    ``-delta`` and draws nothing.  Deterministic given the seed.  ``seed``
    may also be a Generator when the caller manages its own streams.
    """
    if not 1 <= p < n:
        raise ValueError(f"p must satisfy 1 <= p < n, got p={p}, n={n}")
    _delta(delta)
    rng = seed if isinstance(seed, np.random.Generator) else rng_from(seed)
    nonneg = rng.uniform(0.0, 1.0, size=n - p)
    if nonneg.max() < delta:
        nonneg[np.argmax(nonneg)] = delta
    negative = [-float(delta)] if p == 1 else rng.uniform(-2.0 * delta, -delta, size=p)
    ev = np.sort(np.concatenate([nonneg, negative]))[::-1]
    return QuadraticProblem(ev)


def random_orthogonal(n: int, seed: int) -> np.ndarray:
    """Seeded random orthogonal matrix (QR of a Gaussian matrix, signs fixed)."""
    a = rng_from(seed).standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def sample_unit_ball(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the unit ball: normalized Gaussian scaled by U^(1/n)."""
    g = rng.standard_normal(n)
    radius = rng.random() ** (1.0 / n)
    return radius * g / np.linalg.norm(g)
