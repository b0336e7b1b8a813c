"""Statistics for simulation output: streaming monitors and output analysis.

The experiments report means, rates, and distributions of measured
quantities (per-query latency, per-update throughput, reaction times).
The streaming monitors are deliberately tiny and allocation-free on the
hot path — a `record()` is a few float ops — because a single benchmark
run can record hundreds of thousands of samples.

* :class:`Counter`      — monotone event count.
* :class:`Tally`        — streaming mean/variance/min/max (Welford).
* :class:`TimeWeighted` — time-averaged value of a piecewise-constant signal
  (queue lengths, outstanding credits).
* :class:`Histogram`    — fixed-bin histogram over a known range.
* :class:`SeriesRecorder` — raw ``(time, value)`` pairs for plotting.

Classic DES output statistics, used by the harness and available to
users:

* :class:`BatchMeans` — confidence intervals for a steady-state mean
  from one long run, via the method of nonoverlapping batch means;
* :func:`trim_warmup` — drop an initial transient from a time series;
* :func:`mser5` — the MSER-5 truncation heuristic for picking the
  warmup length automatically (White 1997);
* :class:`Summary` — five-number roll-up of a finished series (the
  benchmark harness uses it for per-layer trace accounting);
* :func:`percentile` — exact nearest-rank percentile of a finished
  sample (the serving suite's p50/p99 SLO metrics; unlike
  ``Histogram.percentile`` there is no binning error, so the values
  are reproducible bit-for-bit).

scipy is imported inside :meth:`BatchMeans.interval`, its only user, so
importing the simulator does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

__all__ = [
    "Counter",
    "Tally",
    "TimeWeighted",
    "Histogram",
    "SeriesRecorder",
    "BatchMeans",
    "Summary",
    "percentile",
    "trim_warmup",
    "mser5",
]


class Counter:
    """A named monotone counter."""

    __slots__ = ("name", "count")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0

    def increment(self, n: int = 1) -> None:
        """Add *n* (default 1) to the count."""
        self.count += n

    def reset(self) -> None:
        """Zero the counter."""
        self.count = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name!r} {self.count}>"


class Tally:
    """Streaming sample statistics via Welford's algorithm.

    Numerically stable for long runs; O(1) memory.
    """

    __slots__ = ("name", "count", "_mean", "_m2", "min", "max", "total")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def record(self, x: float) -> None:
        """Add one sample."""
        self.count += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        """Sample mean (NaN with no samples)."""
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (NaN with <2 samples)."""
        return self._m2 / (self.count - 1) if self.count > 1 else math.nan

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        v = self.variance
        return math.sqrt(v) if v == v else math.nan

    def merge(self, other: "Tally") -> None:
        """Fold *other*'s samples into this tally (parallel Welford merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            self.total = other.total
            return
        n1, n2 = self.count, other.count
        delta = other._mean - self._mean
        total_n = n1 + n2
        self._mean += delta * n2 / total_n
        self._m2 += other._m2 + delta * delta * n1 * n2 / total_n
        self.count = total_n
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Tally {self.name!r} n={self.count} mean={self.mean:.6g}>"


class TimeWeighted:
    """Time-average of a piecewise-constant signal.

    Call :meth:`set` whenever the signal changes; the mean weights each
    value by how long it was held.
    """

    __slots__ = ("name", "sim", "_value", "_last_t", "_area", "_start_t")

    def __init__(self, sim: "Simulator", initial: float = 0.0, name: str = "") -> None:
        self.name = name
        self.sim = sim
        self._value = float(initial)
        self._last_t = sim.now
        self._start_t = sim.now
        self._area = 0.0

    @property
    def value(self) -> float:
        """Current level of the signal."""
        return self._value

    def set(self, value: float) -> None:
        """Change the signal level at the current simulated time."""
        now = self.sim.now
        self._area += self._value * (now - self._last_t)
        self._last_t = now
        self._value = float(value)

    def add(self, delta: float) -> None:
        """Shift the level by *delta* (e.g. +1/-1 for a queue)."""
        self.set(self._value + delta)

    @property
    def mean(self) -> float:
        """Time-averaged level from creation to the current time."""
        now = self.sim.now
        span = now - self._start_t
        if span <= 0:
            return self._value
        return (self._area + self._value * (now - self._last_t)) / span

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TimeWeighted {self.name!r} value={self._value} mean={self.mean:.6g}>"


class Histogram:
    """Fixed-bin histogram over ``[low, high)`` with under/overflow bins."""

    def __init__(self, low: float, high: float, nbins: int, name: str = "") -> None:
        if not (high > low and nbins >= 1):
            raise ValueError("need high > low and nbins >= 1")
        self.name = name
        self.low = float(low)
        self.high = float(high)
        self.nbins = int(nbins)
        self._width = (self.high - self.low) / self.nbins
        self.bins = np.zeros(nbins, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0
        self.tally = Tally(name)

    def record(self, x: float) -> None:
        """Add one sample."""
        self.tally.record(x)
        if x < self.low:
            self.underflow += 1
        elif x >= self.high:
            self.overflow += 1
        else:
            self.bins[int((x - self.low) / self._width)] += 1

    @property
    def count(self) -> int:
        """Total samples including under/overflow."""
        return self.tally.count

    def bin_edges(self) -> np.ndarray:
        """The ``nbins + 1`` bin edges."""
        return np.linspace(self.low, self.high, self.nbins + 1)

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (0..100) from bin midpoints."""
        if self.count == 0:
            return math.nan
        target = self.count * q / 100.0
        run = self.underflow
        if run >= target:
            return self.low
        for i in range(self.nbins):
            run += int(self.bins[i])
            if run >= target:
                return self.low + (i + 0.5) * self._width
        return self.high

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Histogram {self.name!r} n={self.count}>"


class SeriesRecorder:
    """Accumulates raw ``(time, value)`` samples for later analysis."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, t: float, value: float) -> None:
        """Append one sample."""
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(times, values)`` as float arrays."""
        return np.asarray(self.times, float), np.asarray(self.values, float)

    def rate(self, window: Optional[Tuple[float, float]] = None) -> float:
        """Samples per unit time over *window* (default: observed span)."""
        if not self.times:
            return 0.0
        t = np.asarray(self.times, float)
        if window is None:
            lo, hi = float(t[0]), float(t[-1])
        else:
            lo, hi = window
        span = hi - lo
        if span <= 0:
            return math.nan
        n = int(np.count_nonzero((t >= lo) & (t <= hi)))
        return n / span

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SeriesRecorder {self.name!r} n={len(self.times)}>"


def percentile(values: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile: the smallest sample such that at
    least ``q`` percent of the sample set is <= it.

    No interpolation — the result is always an observed sample, which
    is the standard SLO reading of "p99 latency" and keeps the value
    deterministic under float round-off.

    Examples
    --------
    >>> percentile([3.0, 1.0, 2.0, 4.0], 50)
    2.0
    >>> percentile([3.0, 1.0, 2.0, 4.0], 99)
    4.0
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q={q!r} outside [0, 100]")
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if q == 0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


@dataclass(frozen=True)
class Summary:
    """Count/total/mean/min/max of a finished sample series.

    A cheap, JSON-friendly roll-up for reporting — complements the
    streaming monitors (:class:`Tally` and friends) when the series is
    already in hand.

    Examples
    --------
    >>> Summary.of([2.0, 4.0]).mean
    3.0
    >>> Summary.of([]).count
    0
    """

    count: int
    total: float
    mean: float
    lo: float
    hi: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        """Summarize *values* (NaN-safe only in that [] gives zeros)."""
        vals = [float(v) for v in values]
        if not vals:
            return cls(0, 0.0, 0.0, 0.0, 0.0)
        total = math.fsum(vals)
        return cls(len(vals), total, total / len(vals), min(vals), max(vals))


class BatchMeans:
    """Confidence interval for a steady-state mean via batch means.

    Samples stream in through :meth:`record`; :meth:`interval` splits
    them into ``n_batches`` equal batches, treats batch averages as
    (approximately) independent normals, and returns a Student-t
    confidence interval.

    Examples
    --------
    >>> bm = BatchMeans()
    >>> for x in range(1000):
    ...     bm.record((x % 10) + 0.5)
    >>> lo, hi = bm.interval()
    >>> lo < 5.5 < hi
    True
    """

    def __init__(self, n_batches: int = 10) -> None:
        if n_batches < 2:
            raise ValueError("need at least 2 batches")
        self.n_batches = n_batches
        self._samples: List[float] = []

    def record(self, x: float) -> None:
        """Add one sample."""
        self._samples.append(float(x))

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        """Grand mean over all samples."""
        if not self._samples:
            return math.nan
        return float(np.mean(self._samples))

    def batch_means(self) -> np.ndarray:
        """The per-batch averages (equal batches; remainder dropped)."""
        n = len(self._samples)
        if n < self.n_batches:
            raise ValueError(
                f"{n} samples cannot fill {self.n_batches} batches"
            )
        size = n // self.n_batches
        used = np.asarray(self._samples[: size * self.n_batches])
        return used.reshape(self.n_batches, size).mean(axis=1)

    def interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Two-sided confidence interval for the steady-state mean."""
        means = self.batch_means()
        k = len(means)
        center = float(means.mean())
        s = float(means.std(ddof=1))
        if s == 0.0:
            return (center, center)
        from scipy import stats as sp_stats

        half = sp_stats.t.ppf(0.5 + confidence / 2.0, k - 1) * s / math.sqrt(k)
        return (center - half, center + half)

    def relative_half_width(self, confidence: float = 0.95) -> float:
        """Half-width of the CI divided by the mean (run-length control)."""
        lo, hi = self.interval(confidence)
        center = (lo + hi) / 2.0
        if center == 0:
            return math.inf
        return (hi - lo) / 2.0 / abs(center)


def trim_warmup(values: Sequence[float], fraction: float = 0.1) -> List[float]:
    """Drop the first *fraction* of the series (simple transient cut)."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    start = int(len(values) * fraction)
    return list(values[start:])


def mser5(values: Sequence[float]) -> int:
    """MSER-5 warmup truncation point (index into *values*).

    Groups the series into batches of 5, then picks the truncation
    minimizing the standard error of the remaining batch means.
    Returns the sample index at which the steady state is deemed to
    begin (0 when the series is too short to judge).
    """
    batch = 5
    arr = np.asarray(values, dtype=float)
    n_batches = len(arr) // batch
    if n_batches < 4:
        return 0
    means = arr[: n_batches * batch].reshape(n_batches, batch).mean(axis=1)
    best_d, best_score = 0, math.inf
    # Standard MSER rule: do not consider cutting more than half the run.
    for d in range(0, n_batches // 2):
        rest = means[d:]
        k = len(rest)
        score = float(rest.var(ddof=0)) / k
        if score < best_score:
            best_score = score
            best_d = d
    return best_d * batch
