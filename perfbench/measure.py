"""Pure measurement helpers: percentiles, arrival schedules, FIFO batches.

Everything here is a function of its arguments, so the unit tests in
``perfbench/tests`` pin the rules the benchmark reports by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

#: The tail percentile is the highest one with at least this many
#: samples beyond it.
TAIL_BEYOND = 10

Interval = Tuple[float, float]


@dataclass(frozen=True)
class Tail:
    """A tail statistic: its value, the percentile it sits at, the sample size."""

    value: float
    percentile: float
    samples: int


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """The highest percentile with at least ``beyond`` samples above it.

    With ``n`` sorted samples the value at 1-based rank ``k = n - beyond``
    has exactly ``beyond`` samples after it, so it is reported as the
    ``100 * k / n`` percentile.  A fixed sample count therefore always
    gives the same percentile, whichever commit is measured.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = int(ordered.size)
    if n <= beyond:
        raise ValueError(
            f"a tail needs more than {beyond} samples, got {n}")
    rank = n - beyond
    return Tail(value=float(ordered[rank - 1]),
                percentile=100.0 * rank / n, samples=n)


def _windows(values: Sequence[float], window: int) -> List[Sequence[float]]:
    """Consecutive ``window``-sample windows; a short tail is dropped.

    Fewer than ``window`` samples make one window of all of them.
    """
    starts = range(0, max(1, len(values) - window + 1), window)
    return [values[i:i + window] for i in starts]


def windowed_tail(values: Sequence[float], window: int) -> Tuple[float, Tail]:
    """Median over consecutive ``window``-sample windows of their tails.

    Returns the median tail value and the first window's :class:`Tail`
    (which states the percentile and window size).
    """
    tails = [tail(part) for part in _windows(values, window)]
    return median(t.value for t in tails), tails[0]


def windowed_median(values: Sequence[float], window: int) -> float:
    """Mean over consecutive ``window``-sample windows of their medians.

    Request latency follows the host's speed, which can shift between a
    fast and a slow level every few seconds.  One median over a whole
    phase jumps from one level to the other as their shares of the phase
    cross one half; this mean moves in proportion to the shares instead.
    """
    return float(np.mean([median(part) for part in _windows(values,
                                                            window)]))


def interquartile_mean(values: Iterable[float]) -> float:
    """Mean of ``values`` without their lowest and highest quarter.

    Set-up times follow the host's speed, which can shift between a fast
    and a slow level every few seconds.  A median of a few set-ups jumps
    from one level to the other as their shares cross one half; this
    mean moves in proportion to the shares, and still ignores a stray
    slow or fast set-up.
    """
    data = np.sort(np.asarray(list(values), dtype=np.float64))
    if data.size == 0:
        raise ValueError("interquartile mean of no values")
    cut = data.size // 4
    return float(data[cut:data.size - cut].mean())


def median(values: Iterable[float]) -> float:
    """Median of ``values`` as a float (ValueError when empty)."""
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        raise ValueError("median of no values")
    return float(np.median(data))


def poisson_offsets(seed: int, rate: float, count: int) -> np.ndarray:
    """Send times (seconds from phase start) of a Poisson open loop.

    ``count`` arrivals at mean ``rate`` per second, drawn from a stream
    that depends only on ``seed``.
    """
    if rate <= 0 or count <= 0:
        raise ValueError("rate and count must be positive")
    rng = np.random.default_rng([int(seed), 0x0A7E])
    return np.cumsum(rng.exponential(1.0 / rate, size=int(count)))


def fifo_batches(request_rows: Sequence[int],
                 batch_rows: Sequence[int]) -> List[int]:
    """Assign FIFO-ordered requests to fused batches by row counts.

    ``request_rows`` lists the rows of each admitted request in submit
    order and ``batch_rows`` the rows of each fused batch in dispatch
    order.  Requests are atomic and served first in, first out, so batch
    ``b`` carries the next requests whose rows add up to
    ``batch_rows[b]``.  Returns the batch index of every request;
    ValueError when the counts cannot be split that way (a request was
    shed after admission, or the trace is incomplete).
    """
    owners: List[int] = []
    request = 0
    for batch, rows in enumerate(batch_rows):
        filled = 0
        while filled < rows:
            if request >= len(request_rows):
                raise ValueError(
                    f"batch {batch} needs {rows - filled} more rows than "
                    f"the submitted requests provide")
            filled += int(request_rows[request])
            owners.append(batch)
            request += 1
        if filled != rows:
            raise ValueError(
                f"batch {batch} holds {rows} rows but its requests add "
                f"up to {filled}")
    if request != len(request_rows):
        raise ValueError(
            f"{len(request_rows) - request} submitted requests were never "
            f"batched")
    return owners


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_time(span: Interval, children: Iterable[Interval]) -> float:
    """A span's duration minus the part of it its children cover.

    Children are clipped to the span first, so a child that started
    before or ended after it only removes the overlapping part.
    """
    lo, hi = span
    clipped = [(max(lo, a), min(hi, b)) for a, b in children
               if min(hi, b) > max(lo, a)]
    return (hi - lo) - union_length(clipped)


def overlap(intervals: Iterable[Interval], window: Interval) -> float:
    """Summed overlap of (disjoint) ``intervals`` with ``window``."""
    lo, hi = window
    return sum(max(0.0, min(hi, b) - max(lo, a)) for a, b in intervals)

