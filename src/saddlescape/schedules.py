"""Per-iteration momentum parameter rules for the accelerated framework.

A schedule produces the pair ``(beta_k, gamma_k)`` used at iteration ``k``:
``gamma_k`` shifts the gradient evaluation point and ``beta_k`` weights the
momentum step.  All schedules must emit values in [0, 1].  Each schedule
class carries its own rule, its limit and its JSON form, and registers itself
in ``SCHEDULE_KINDS`` under its ``kind`` tag.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import ClassVar

import numpy as np

__all__ = [
    "ScheduleError",
    "MomentumSchedule",
    "ConstantSchedule",
    "PolyakSchedule",
    "NesterovSchedule",
    "AttouchSchedule",
    "ToySchedule",
    "SCHEDULE_KINDS",
    "polyak_params",
    "TkPropertyReport",
    "verify_tk_properties",
]


class ScheduleError(ValueError):
    """A schedule was configured with, or emitted, parameters outside [0, 1]."""


def _unit_interval(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ScheduleError(f"{name} must lie in [0, 1], got {value!r}")
    return value


SCHEDULE_KINDS: dict[str, type[MomentumSchedule]] = {}


class MomentumSchedule:
    """A rule for ``(beta_k, gamma_k)``, tagged with its ``kind`` and CLI ``spec``.

    A subclass names its spec, e.g. ``class PolyakSchedule(MomentumSchedule,
    spec="polyak:M,L")``; the kind is the spec up to the colon.  The base rule
    is constant momentum ``(self.beta, self.gamma)``; schedules whose momentum
    varies with ``k`` override ``_windows`` and ``limit``.
    """

    kind: ClassVar[str]
    spec: ClassVar[str]

    def __init_subclass__(cls, spec: str, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.spec, cls.kind = spec, spec.partition(":")[0]
        SCHEDULE_KINDS[cls.kind] = cls

    def windows(self, count: int, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``betas, gammas`` for iterations ``1..count``, in consecutive windows of at most ``size`` terms.

        Raises :class:`ScheduleError` at the first window with a term outside [0, 1].
        """
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count!r}")
        if size < 1:
            raise ValueError(f"size must be positive, got {size!r}")
        for betas, gammas in self._windows(count, size):
            for terms in (betas, gammas):
                if not (terms.min() >= 0.0 and terms.max() <= 1.0):  # NaN fails both
                    raise ScheduleError("schedule emitted parameters outside [0, 1]")
            yield betas, gammas

    def _windows(self, count: int, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for _, n in _spans(count, size):
            yield np.full(n, self.beta), np.full(n, self.gamma)

    def limit(self) -> tuple[float, float]:
        """Limits ``(beta, gamma)`` of the emitted sequences as ``k`` grows."""
        return self.beta, self.gamma

    def to_json_dict(self) -> dict:
        """``{"kind": ..., **fields}``, as ``rates`` writes the schedule."""
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class ConstantSchedule(MomentumSchedule, spec="constant:B,G"):
    """Fixed ``(beta, gamma)`` at every iteration.

    ``ConstantSchedule(0, 0)`` reduces the framework to gradient descent and
    ``ConstantSchedule(beta, 0)`` to the heavy-ball method.
    """

    beta: float
    gamma: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _unit_interval("beta", self.beta))
        object.__setattr__(self, "gamma", _unit_interval("gamma", self.gamma))


@dataclass(frozen=True)
class PolyakSchedule(MomentumSchedule, spec="polyak:M,L"):
    """Classical heavy-ball momentum for a strongly convex spectrum in [m, L]."""

    gamma = 0.0
    m: float
    L: float

    def __post_init__(self) -> None:
        polyak_params(self.m, self.L)  # raises unless 0 < m <= L < inf

    @property
    def beta(self) -> float:
        return polyak_params(self.m, self.L)[1]


@dataclass(frozen=True)
class NesterovSchedule(MomentumSchedule, spec="nesterov"):
    """``beta_k = gamma_k = (t_{k-1} - 1) / t_k`` driven by the t-sequence."""

    def _windows(self, count: int, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for t in _t_windows(count, size):
            betas = (t[:-1] - 1.0) / t[1:]
            yield betas, betas

    def limit(self) -> tuple[float, float]:
        return 1.0, 1.0


@dataclass(frozen=True)
class AttouchSchedule(MomentumSchedule, spec="attouch:ETA"):
    """``beta_k = gamma_k = (k - 1) / (k + eta + 1)`` for a fixed finite ``eta >= 0``."""

    eta: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta < math.inf:
            raise ValueError(f"eta must be nonnegative and finite, got {self.eta!r}")

    def _windows(self, count: int, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for start, n in _spans(count, size):
            k = np.arange(start, start + n, dtype=float)
            betas = (k - 1.0) / (k + self.eta + 1.0)
            yield betas, betas

    def limit(self) -> tuple[float, float]:
        return 1.0, 1.0


@dataclass(frozen=True)
class ToySchedule(MomentumSchedule, spec="toy"):
    """Heavy-ball momentum tuned to a known negative-curvature magnitude.

    Emits ``gamma_k = 0`` and ``beta_k = 1 - alpha*delta - gamma_hat``; the
    slack ``gamma_hat`` trades momentum for stability margin.
    """

    gamma = 0.0
    alpha: float
    delta: float
    gamma_hat: float = 0.0

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if not self.gamma_hat >= 0:
            raise ValueError(f"gamma_hat must be nonnegative, got {self.gamma_hat!r}")
        _unit_interval("beta = 1 - alpha*delta - gamma_hat", self.beta)

    @property
    def beta(self) -> float:
        return 1.0 - self.alpha * self.delta - self.gamma_hat


# The most terms ``rate_sequence`` and :func:`verify_tk_properties` read: a
# billion take minutes, and the sequence kept whole needs 8 GB.
MAX_STEPS = 10**9
# Terms per window that a long reader holds at once: :func:`verify_tk_properties`
# and the rate recurrence of ``rates``, whose values are bounded by it too.
_CHUNK = 1 << 16


def _spans(count: int, size: int) -> Iterator[tuple[int, int]]:
    """``(start, n)`` of consecutive windows ``[start, start + n)`` covering ``1..count``, ``n <= size``."""
    for start in range(1, count + 1, size):
        yield start, min(size, count + 1 - start)


def _t_windows(count: int, size: int) -> Iterator[np.ndarray]:
    """``t_{start-1}..t_{start+n-1}`` for each window of :func:`_spans`; ``t_{start-1}`` is carried over.

    The terms are appended to an ``array("d")``, which keeps no float object
    per term.
    """
    sqrt, prev = math.sqrt, 1.0
    for _, n in _spans(count, size):
        t = array("d", (prev,))
        append = t.append
        for _ in repeat(None, n):
            prev = (sqrt(4.0 * prev * prev + 1.0) + 1.0) / 2.0
            append(prev)
        yield np.frombuffer(t)


def polyak_params(m: float, L: float) -> tuple[float, float]:
    """Classical heavy-ball tuning for eigenvalues in ``[m, L]``, ``0 < m <= L``.

    Returns ``alpha = 4 / (sqrt(L) + sqrt(m))^2`` and
    ``beta = (sqrt(L) - sqrt(m)) / (sqrt(L) + sqrt(m))``.
    """
    if not 0.0 < m <= L < math.inf:
        raise ValueError(f"need 0 < m <= L < inf, got m={m!r}, L={L!r}")
    sl, sm = math.sqrt(L), math.sqrt(m)
    return 4.0 / (sl + sm) ** 2, (sl - sm) / (sl + sm)


@dataclass(frozen=True)
class TkPropertyReport:
    """Outcome of numerically checking the t-sequence identities and bounds.

    ``identity_max_err`` is the worst relative error of
    ``t_k^2 - t_k = t_{k-1}^2`` (relative because the terms grow like k^2);
    ``bound_ok`` confirms ``t_k >= (k + 1)/2``; ``ratio_monotone`` confirms
    the momentum ratios are nonnegative and nondecreasing; ``ratio_gap`` is
    the largest violation of ``1 - 2/(t_{k-1} + 1) <= ratio <= 1`` (zero when
    every ratio respects its bounds).
    """

    count: int
    identity_max_err: float
    bound_ok: bool
    ratio_monotone: bool
    ratio_gap: float
    final_ratio: float

    @property
    def passed(self) -> bool:
        return (
            self.identity_max_err <= 1e-9
            and self.bound_ok
            and self.ratio_monotone
            and self.ratio_gap <= 1e-12
        )

    def to_json_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def verify_tk_properties(count: int) -> TkPropertyReport:
    """Check the t-sequence properties numerically up to ``t_count``.

    The terms are read one window of :func:`_t_windows` at a time, and each
    window's ratios are compared with the last ratio of the window before.
    Violations are reported, not raised, so callers can surface them as a
    structured result.
    """
    if count < 2:
        raise ValueError(f"count must be at least 2, got {count!r}")
    if count > MAX_STEPS:
        raise ValueError(f"count must be at most {MAX_STEPS}, got {count!r}")
    identity_err, bound_ok, monotone, gap, last = 0.0, True, True, 0.0, -math.inf  # no ratio before the first
    for (start, _), t in zip(_spans(count, _CHUNK), _t_windows(count, _CHUNK)):
        prev, cur = t[:-1], t[1:]  # t_{k-1} and t_k for k = start, start + 1, ...
        identity_err = max(identity_err, float(np.max(np.abs(cur * cur - cur - prev * prev) / (cur * cur))))
        k = np.arange(start - 1, start + cur.size, dtype=float)
        bound_ok = bound_ok and bool(np.all(t >= (k + 1.0) / 2.0))
        ratios = (prev - 1.0) / cur
        monotone = monotone and bool(np.all(np.diff(ratios, prepend=last) >= 0.0)) and bool(np.all(ratios >= 0.0))
        lower = 1.0 - 2.0 / (prev + 1.0)
        gap = max(gap, float(np.max(lower - ratios)), float(np.max(ratios - 1.0)))
        last = ratios[-1]
    return TkPropertyReport(
        count=int(count),
        identity_max_err=identity_err,
        bound_ok=bound_ok,
        ratio_monotone=monotone,
        ratio_gap=gap,
        final_ratio=float(last),
    )

