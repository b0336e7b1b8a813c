"""A program-independent gauge of how fast the host runs Python right now.

On a shared host the interpreter's speed moves in phases of minutes, by
up to ~1.6x, and a run that lands in a slow phase is slow throughout, so
no statistic over one run's samples removes the phase.  :func:`probe` is
a small discrete-event loop in the simulator's style (a heap of timed
events, generator processes resumed through callbacks), written here so
that no change to the program can move it.  Timings are reported in
*reference seconds*: host seconds × ``REFERENCE_PROBE_S`` ÷ the run's
median probe time.

Measured on the 2-CPU VM the benchmark was defined on: over 14 fresh
processes, each timing the ``tails`` ops for 10 s, the per-process
minimum op time and the median probe time correlated at 0.90, and
scaling by the probe cut the interquartile spread of the op time across
processes from 16% to 9% of its median.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

#: Median probe time on the defining host; sets the scale of reference
#: seconds (≈ host seconds there).
REFERENCE_PROBE_S = 0.018
_EVENTS = 10_000
_PROCESSES = 32


class _Event:
    __slots__ = ("callbacks", "value")

    def __init__(self, value) -> None:
        self.callbacks: list = []
        self.value = value


class _Kernel:
    def __init__(self) -> None:
        self.now = 0.0
        self.heap: list = []
        self.seq = 0

    def timeout(self, delay: float, value=None) -> _Event:
        event = _Event(value)
        self.seq += 1
        heappush(self.heap, (self.now + delay, self.seq, event))
        return event

    def run(self, n: int) -> None:
        heap = self.heap
        for _ in range(n):
            self.now, _, event = heappop(heap)
            for callback in event.callbacks:
                callback(event)


class _Process:
    __slots__ = ("gen",)

    def __init__(self, gen) -> None:
        self.gen = gen
        gen.send(None).callbacks.append(self.resume)

    def resume(self, event: _Event) -> None:
        self.gen.send(event.value).callbacks.append(self.resume)


def _ticker(kernel: _Kernel, period: float, tally: dict, key: str):
    sent = 0
    while True:
        value = yield kernel.timeout(period, (key, sent))
        sent += 1
        tally[value[0]] = tally.get(value[0], 0) + len(value)


def probe() -> float:
    """Host seconds for a fixed run of the small event loop."""
    start = time.perf_counter()
    kernel = _Kernel()
    tally: dict = {}
    for i in range(_PROCESSES):
        _Process(_ticker(kernel, 1.0 + i / 13.0, tally, f"p{i}"))
    kernel.run(_EVENTS)
    return time.perf_counter() - start


def to_reference(seconds: float, probe_seconds: float) -> float:
    """*seconds* measured while :func:`probe` took *probe_seconds*, in
    reference seconds."""
    return seconds * REFERENCE_PROBE_S / probe_seconds
