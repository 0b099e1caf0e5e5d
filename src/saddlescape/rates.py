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
import os
import signal
import sys
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, cached_property

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
    ``values`` builds the whole array on first use.  Where a second CPU is
    free, ``to_csv`` reads the windows from a forked child, and runs inline
    whatever the child did not send.
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
        values = np.zeros(self.count + 1)
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

    def _forked_windows(self) -> Iterator[tuple[int, np.ndarray]]:
        """:meth:`_windows`, run in a forked child while the caller formats the windows already received.

        The child writes only the float64 values ``b_1..b_count``; the caller
        reads them ``_CHUNK`` at a time.  A short read means that the child
        raised or died: the rest of the sequence then runs inline, so an error
        is the inline one.
        """
        read, write = os.pipe()
        if (pid := os.fork()) == 0:  # the child makes no BLAS call, whose threads fork does not copy
            try:  # the child leaves only through os._exit, so no inherited buffer or exit hook runs twice
                os.close(read)
                with open(write, "wb") as pipe:
                    for _, block in self._windows():
                        pipe.write(block)
            finally:
                os._exit(0)
        os.close(write)
        start = 1
        try:
            with open(read, "rb") as pipe:
                while start <= self.count:
                    size = min(_CHUNK, self.count + 1 - start)
                    if len(data := pipe.read(8 * size)) < 8 * size:
                        break
                    yield start, np.frombuffer(data)
                    start += size
        finally:  # a child still running when the reader stops early is killed; one that exited ignores it
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if start <= self.count:  # the inline run repeats the received windows without yielding them
            yield from ((begin, block) for begin, block in self._windows() if begin >= start)

    def to_csv(self) -> Iterator[str]:
        """CSV rows ``iter,b``, ``_CSV_CHUNK`` at most to a chunk, from :func:`_fixed_rows` or :func:`_series_rows`."""
        yield "iter,b\n0,0\n"
        for start, block in self._forked_windows() if _spare_cpu() else self._windows():
            for lo in range(start, start + len(block), _CSV_CHUNK):
                run = np.frombuffer(block)[lo - start : lo - start + _CSV_CHUNK]
                if (text := _fixed_rows(lo, run)) is None:
                    yield from _series_rows("", range(lo, lo + len(run)), [run])
                else:
                    yield text


def _spare_cpu() -> bool:
    """Whether this process can fork and may run on more than one CPU."""
    return hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


# Rows per formatted chunk of a series CSV: bounds the text and the cell tuple held at once.
_CSV_CHUNK = 2048
_MAX_COUNT = 2**63 - 2  # the bisection's upper bound: its gap to -1 still fits an int64


def _csv_rows(template: str, columns) -> Iterator[str]:
    """``template % row`` for each row of ``columns`` (sequences of one length), ``_CSV_CHUNK`` rows at most to a chunk.

    Every CSV row but :func:`_fixed_rows`' is written here: one chunk of each column (an array's through ``tolist()``)
    is interleaved into a cell list, which fills ``template * rows`` with one ``%`` operation.
    """
    width, count = len(columns), len(columns[0])
    for lo in range(0, count, _CSV_CHUNK):
        hi = min(lo + _CSV_CHUNK, count)
        cells = [None] * ((hi - lo) * width)
        for i, column in enumerate(columns):
            cells[i::width] = column[lo:hi].tolist() if isinstance(column, np.ndarray) else column[lo:hi]
        yield (template * (hi - lo)) % tuple(cells)


def _series_rows(lead: str, iters: range, columns) -> Iterator[str]:
    """CSV rows ``<lead><iters[k]>,<columns[0][k]>,...``, yielded by :func:`_csv_rows`.

    ``lead`` holds no ``%``.  A column shorter than ``iters`` leaves its cells
    empty from its end on, so each run of rows with the same filled columns
    has its own template; ``%.12g`` formats a float as ``f"{value:.12g}"`` does.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    start = 0
    for end in sorted({len(iters), *(c.size for c in columns if c.size < len(iters))}):
        row = lead + "%d" + "".join(",%.12g" if c.size >= end else "," for c in columns) + "\n"
        yield from _csv_rows(row, [iters[start:end], *(c[start:end] for c in columns if c.size >= end)])
        start = end


@cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Each 4-digit group ``0..9999`` as its ASCII digits in one uint32, and its count of trailing zeros (4 for 0)."""
    digit, chars, zeros = np.arange(10, dtype=np.uint8), np.empty((10, 10, 10, 10, 4), np.uint8), 0
    for i in range(4):  # the thousands first; broadcast one axis per digit, so no temporary outgrows the tables
        axis = digit.reshape([10 if j == i else 1 for j in range(4)])
        chars[..., i] = axis + ord("0")
        zeros = (axis == 0) * (1 + zeros)
    return chars.reshape(-1).view(np.uint32), zeros.reshape(-1)


def _ascii(numbers: np.ndarray, width: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The ``(n, width)`` zero-padded ASCII digits of integers in ``[0, 10**12)``, and their 4-digit groups."""
    groups = [numbers // 10 ** (4 * i) % 10**4 for i in range(2, -1, -1)]
    return np.stack([_digit_tables()[0][group] for group in groups], axis=1).view(np.uint8)[:, 12 - width :], groups


def _fixed_rows(start: int, values: np.ndarray) -> str | None:
    """The text of ``_series_rows("", range(start, start + len(values)), [values])``, or None outside its domain.

    The domain: values that ``%.12g`` all prints in fixed notation with one decimal exponent in [-4, 0), at iteration
    numbers of one digit count.  The 12 digits are ``rint(value * 10**(11 - exponent))`` where that product lies in
    the exponent's decade and at least 1e-3 from a tie (its rounding error is below 1e-4), and those of ``%.11e``
    elsewhere.  The rows are one uint8 matrix from which a mask drops trailing zeros.
    """
    head, lead = "%.11e" % values[0], len(str(start))
    exponent = int(head[14:]) if len(head) == 17 else 0  # 17 characters: positive, finite, a 2-digit exponent
    if not (-4 <= exponent < 0 and 0 < values.min() and values.max() < 1) or len(str(start + len(values) - 1)) != lead:
        return None
    scaled = values * float(10 ** (11 - exponent))
    digits = np.rint(scaled)
    # %.12g rounds a value below the decade one digit further, so %.11e tells whether it carries into the decade
    exact = (np.abs(scaled - digits) < 0.499) & (scaled >= 1e11)
    if (exact & (digits >= 1e12)).any():  # it rounds into the next decade
        return None
    for i in np.flatnonzero(~exact):
        if (text := "%.11e" % values[i])[13:] != head[13:]:
            return None
        digits[i] = int(text[0] + text[2:13])
    chars, (high, middle, low) = _ascii(digits.astype(np.int64), 12)
    zeros = _digit_tables()[1]
    trailing = np.where(low > 0, zeros[low], np.where(middle > 0, 4 + zeros[middle], 8 + zeros[high]))
    prefix = np.frombuffer(f",0.{'0' * (-1 - exponent)}".encode(), np.uint8)
    rows = np.empty((len(values), lead + len(prefix) + 13), np.uint8)
    rows[:, :lead] = _ascii(np.arange(start, start + len(values)), lead)[0]
    rows[:, lead:-13], rows[:, -13:-1], rows[:, -1] = prefix, chars, ord("\n")
    keep = np.ones(rows.shape, bool)
    keep[:, -13:-1] = np.arange(12) < 12 - trailing[:, None]
    return rows[keep].tobytes().decode("ascii")


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
