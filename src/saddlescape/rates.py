"""Per-iteration divergence rates along negative-curvature directions.

For a coordinate with Hessian eigenvalue ``lambda < 0``, the accelerated
framework's iterates satisfy the product form

    x^{k+1} = x^0 * prod_{m=0..k} (1 + b_m)

where ``b_0 = 0`` and

    b_k = (beta_k + gamma_k * alpha*|lambda|) * (1 - 1/(1 + b_{k-1})) + alpha*|lambda|.

For nondecreasing schedules the sequence is nondecreasing and converges to a
limit characterized by a quadratic fixed-point equation; the limit is the
asymptotic per-iteration growth factor of the escaping coordinate.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .optimizers import row_norms
from .problems import _positive
from .schedules import _CHUNK, MAX_STEPS, MomentumSchedule

__all__ = [
    "MAX_STEPS",
    "RateSequence",
    "rate_sequence",
    "rate_limit",
    "product_reconstruction",
    "predicted_escape_iters",
    "first_crossings",
]


@dataclass(frozen=True)
class RateSequence:
    """Growth factors ``b_0..b_count`` for ``a = alpha*|lambda|`` under one schedule.

    The recurrence runs one ``_CHUNK``-step window at a time each time the
    sequence is read: ``final`` and ``to_csv`` hold one window, and
    ``values`` builds the whole array on first use.
    """

    a: float
    schedule: MomentumSchedule
    count: int

    def _windows(self) -> Iterator[tuple[int, array]]:
        """``(start, b_start..)`` for consecutive windows covering ``b_1..b_count``.

        Each window is an ``array("d")``, which keeps no float object per value.
        """
        a, b, start = self.a, 0.0, 1
        for betas, gammas in self.schedule.windows(self.count, _CHUNK):
            block = array("d")
            append = block.append
            for c in array("d", (betas + gammas * a).tobytes()):  # c_k = beta_k + gamma_k*a
                b = c * (1.0 - 1.0 / (1.0 + b)) + a
                append(b)
            yield start, block
            start += len(block)

    @cached_property
    def values(self) -> np.ndarray:
        """Read-only ``b_0..b_count``, ``b_0 = 0``."""
        values = np.empty(self.count + 1)
        values[0] = 0.0
        for start, block in self._windows():
            values[start : start + len(block)] = block
        values.setflags(write=False)
        return values

    @property
    def final(self) -> float:
        """``b_count``, from a pass that holds one window at a time."""
        for _, block in self._windows():
            pass
        return block[-1]

    def to_csv(self) -> Iterator[str]:
        """CSV rows ``iter,b``, yielded by :func:`_series_rows` as text chunks of at most ``_CSV_CHUNK`` rows each."""
        yield "iter,b\n"
        yield from _series_rows("", range(1), [[0.0]])
        for start, block in self._windows():
            yield from _series_rows("", range(start, start + len(block)), [block])


# Rows per formatted chunk of a series CSV: bounds the text and the cell tuple held at once.
_CSV_CHUNK = 2048
_MAX_COUNT = 2**63 - 2  # the bisection's upper bound: its gap to -1 still fits an int64


def _series_rows(lead: str, iters: range, columns) -> Iterator[str]:
    """CSV rows ``<lead><iters[k]>,<columns[0][k]>,...``, yielded in chunks of at most ``_CSV_CHUNK`` rows.

    ``lead`` holds no ``%``.  A column shorter than ``iters`` leaves its cells
    empty from its end on.  Each run of rows with the same filled columns is
    formatted with one ``%`` operation per chunk; ``%.12g`` formats a float as
    ``f"{value:.12g}"`` does.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    start = 0
    for end in sorted({len(iters), *(c.size for c in columns if c.size < len(iters))}):
        live = [c for c in columns if c.size >= end]
        row = lead + "%d" + "".join(",%.12g" if c.size >= end else "," for c in columns) + "\n"
        width = 1 + len(live)
        for lo in range(start, end, _CSV_CHUNK):
            hi = min(lo + _CSV_CHUNK, end)
            cells = [None] * ((hi - lo) * width)
            cells[0::width] = iters[lo:hi]
            for i, column in enumerate(live, 1):
                cells[i::width] = column[lo:hi].tolist()
            yield (row * (hi - lo)) % tuple(cells)
        start = end


def _step_curvature(lam: float, alpha: float) -> float:
    """The normal, finite ``a = alpha*|lambda|`` of a negative ``lambda`` and a positive ``alpha``, both finite.

    A subnormal ``a`` keeps only a few significant bits, so it is rejected as one that underflows to 0 is.
    """
    if not (lam < 0 and math.isfinite(lam)):
        raise ValueError(f"lambda must be negative and finite, got {lam!r}")
    _positive("alpha", alpha)
    a = float(alpha) * abs(float(lam))
    if not sys.float_info.min <= a < math.inf:
        fault = "overflows" if a == math.inf else "underflows to 0" if a == 0 else "is subnormal"
        raise ValueError(f"alpha*|lambda| {fault} for alpha={alpha!r}, lambda={lam!r}")
    return a


def rate_sequence(lam: float, alpha: float, schedule: MomentumSchedule, count: int) -> RateSequence:
    """The growth recurrence for ``count`` steps (``b_0`` through ``b_count``), run as it is read."""
    a = _step_curvature(lam, alpha)
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count!r}")
    if count > MAX_STEPS:
        raise ValueError(f"count must be at most {MAX_STEPS}, got {count!r}")
    return RateSequence(a, schedule, count)


def product_reconstruction(x0_i: float, rate: RateSequence, k: int) -> float:
    """Coordinate value after ``k`` steps, ``x0_i * prod_{m=0..k} (1 + b_m)``."""
    if not 0 <= k <= rate.values.size - 1:
        raise ValueError(f"k must lie in [0, {rate.values.size - 1}], got {k!r}")
    return float(x0_i * np.prod(1.0 + rate.values[: k + 1]))


def rate_limit(lam: float, alpha: float, beta_limit: float, gamma_limit: float) -> float:
    """Limiting growth factor for schedule limits ``(beta_limit, gamma_limit)``.

    The nonnegative root of the limiting fixed-point quadratic
    ``b^2 - (beta - 1 + a*(1 + gamma)) b - a = 0``, equivalently of the
    growth-factor balance ``a + (1 + a + beta + gamma*a) b = 2b + b^2``, with
    ``a = alpha*|lambda|``.  Notable special cases: limits (1, 1) give
    ``a + sqrt(a)*sqrt(1 + a)``; heavy-ball tuning ``(1 - a, 0)`` gives
    ``sqrt(a)``; and (0, 0) recovers the gradient-descent factor ``a``.
    """
    a = _step_curvature(lam, alpha)
    if not 0.0 <= beta_limit <= 1.0 or not 0.0 <= gamma_limit <= 1.0:
        raise ValueError("schedule limits must lie in [0, 1]")
    half_trace = beta_limit - 1.0 + a * (1.0 + gamma_limit)
    root = math.sqrt(half_trace * half_trace + 4.0 * a)
    if half_trace >= 0:
        value = 0.5 * half_trace + 0.5 * root
    else:  # the same root, without the cancellation of half_trace + root
        value = 2.0 * a / (root - half_trace)
    if not math.isfinite(value):
        raise ValueError(f"the closed form of the limit overflows for alpha*|lambda| = {a!r}")
    return value


def first_crossings(growth, starts, threshold: float, cap: int) -> np.ndarray:
    """Each row's first ``k <= cap`` with ``||starts * growth**k|| >= threshold``, or -1; all rows searched at once.

    ``growth`` (finite, at least 1) and ``starts`` (finite) broadcast to one 2-D shape; a zero start stays 0.  Where
    the start is small enough for the product to fall short of the threshold, a power past the float range is split
    in integer halves of ``k``, and each half once more (a quarter power cannot overflow then).  The norm is
    :func:`row_norms`.
    """
    growth, starts = np.broadcast_arrays(np.asarray(growth, dtype=float), np.asarray(starts, dtype=float))
    if not (np.all(growth >= 1) and np.all(growth < math.inf)):
        raise ValueError("growth must be finite and at least 1")
    if not np.isfinite(starts).all():
        raise ValueError("starts must be finite")
    _positive("threshold", threshold)
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap!r}")
    zero = starts == 0
    # Only below this start can an overflowed power leave the product short of the threshold (4 covers rounding)
    small = ~zero & (np.abs(starts) < threshold / np.finfo(float).max * 4)
    splits = small.any()

    def reached(k):
        power = growth ** k[:, None]
        x = np.where(zero, 0.0, starts * power)  # a zero stays 0, not 0 * inf
        if splits and (split := small & np.isinf(power)).any():
            g, m = growth[split], np.broadcast_to(k[:, None], split.shape)[split]
            x[split] = _times_power(_times_power(starts[split], g, m // 2), g, m - m // 2)
        return row_norms(x) >= threshold

    # -1 is before the start; a start >= 5e-324 with a factor >= 1 + 2**-52 crosses any float before _MAX_COUNT
    cap = min(cap, _MAX_COUNT)
    lo, hi = np.full(len(starts), -1), np.full(len(starts), min(cap, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        # Double each row's hi until it crosses or reaches the cap, then bisect what is left of (lo, hi]
        while (short := ~(crossed := reached(hi)) & (hi < cap)).any():
            lo, hi = np.where(short, hi, lo), np.where(short, hi + np.minimum(hi, cap - hi), hi)
        while (gap := crossed & (hi - lo > 1)).any():
            hit = reached(mid := lo + (hi - lo) // 2)
            hi, lo = np.where(gap & hit, mid, hi), np.where(gap & ~hit, mid, lo)
    return np.where(crossed, hi, -1)


def _times_power(x: np.ndarray, growth: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``x * growth**k``, with a power past the float range split once, in integer halves of ``k``."""
    power = growth**k
    return np.where(np.isinf(power), x * growth ** (k // 2) * growth ** (k - k // 2), x * power)


def predicted_escape_iters(bar_b: float, initial_projection: float, threshold: float) -> int:
    """Smallest ``k`` with ``initial_projection * (1 + bar_b)^k >= threshold``: :func:`first_crossings` of one row."""
    _positive("bar_b", bar_b)
    _positive("initial_projection", initial_projection)
    _positive("threshold", threshold)
    if 1.0 + bar_b > 1.0:
        return int(first_crossings(1.0 + bar_b, [[initial_projection]], threshold, _MAX_COUNT)[0])
    # (1 + bar_b)**k rounds to 1 for every k: only the log1p estimate means anything, and it can pass int64
    if initial_projection >= threshold:
        return 0
    ratio = math.log(threshold / initial_projection)
    if ratio == math.inf:  # the quotient overflowed
        ratio = math.log(threshold) - math.log(initial_projection)
    estimate = ratio / math.log1p(bar_b)
    if estimate == math.inf:
        raise ValueError(f"bar_b = {bar_b!r} is too small: the escape count overflows")
    return math.ceil(estimate)
