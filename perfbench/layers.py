"""Per-layer instrumentation for the traced run.

Three sources, all active only in the traced pass:

* ``cProfile`` self time, attributed to the module that defines each
  function (:func:`layer_of_file`).  Layer entry points are generators,
  so timing a wrapped *call* would measure nothing; the profiler charges
  every resumed frame to its own code.
* A counting subscriber on the program's trace points
  (:class:`TraceCounter`): exact work counts per layer.
* The kernel's public counters (``events_processed``, ``heap_peak``,
  ``pool_hits``, ``compactions``) read off every
  :class:`~repro.sim.core.Simulator` built during an op
  (:func:`simulator_census`).
"""

from __future__ import annotations

import cProfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List

import repro
from repro.sim.core import Simulator

__all__ = [
    "SELF_TIME_LAYERS",
    "layer_of_file",
    "self_seconds",
    "TraceCounter",
    "simulator_census",
]

_HERE = Path(__file__).resolve().parent
_REPRO = Path(repro.__file__).resolve().parent

#: Kernel modules reported on their own; the rest of ``repro.sim`` is
#: ``sim.other``.
_SIM_MODULES = ("core", "process", "resources", "events", "trace")
#: ``repro`` packages reported on their own; the rest is ``repro.other``.
_PACKAGES = ("cluster", "via", "sockets", "transport", "net", "tcp",
             "datacutter", "apps", "faults")

#: Every self-time bucket, in report order.  ``harness`` is this
#: benchmark's own code inside the profiled region (the counting
#: subscriber, the op closures); ``python`` is everything outside
#: ``repro`` (stdlib, numpy, builtins such as ``heapq``).
SELF_TIME_LAYERS = (
    [f"sim.{m}" for m in _SIM_MODULES] + ["sim.other"] + list(_PACKAGES)
    + ["repro.other", "harness", "python"]
)


def layer_of_file(filename: str) -> str:
    """The self-time bucket of a function defined in *filename*."""
    path = Path(filename)
    if not path.is_absolute():  # builtins report "~"; frozen modules "<...>"
        return "python"
    path = path.resolve()
    if path.is_relative_to(_HERE):
        return "harness"
    if not path.is_relative_to(_REPRO):
        return "python"
    parts = path.relative_to(_REPRO).with_suffix("").parts
    if parts[0] == "sim":
        return f"sim.{parts[1]}" if parts[1] in _SIM_MODULES else "sim.other"
    return parts[0] if parts[0] in _PACKAGES else "repro.other"


def self_seconds(profile: cProfile.Profile) -> Dict[str, float]:
    """Profiled self time per bucket of :data:`SELF_TIME_LAYERS`."""
    out = dict.fromkeys(SELF_TIME_LAYERS, 0.0)
    files: Dict[str, str] = {}
    profile.create_stats()  # an empty profile (every op failed) gives zeros
    for (filename, _line, _func), row in profile.stats.items():
        layer = files.get(filename)
        if layer is None:
            layer = files[filename] = layer_of_file(filename)
        out[layer] += row[2]  # tottime: time in the function itself
    return out


class TraceCounter:
    """Match-all trace subscriber keeping exact per-kind counts.

    ``sizes`` sums the ``size`` field of the kinds whose bytes are
    reported; ``uows`` counts completed DataCutter units of work.
    """

    SIZED = ("cluster.link", "sockets.recv")

    def __init__(self) -> None:
        self.kinds: Counter = Counter()
        self.sizes: Counter = Counter()
        self.uows = 0

    def __call__(self, rec) -> None:
        kind = rec.kind
        self.kinds[kind] += 1
        if kind in self.SIZED:
            self.sizes[kind] += rec.fields["size"]
        elif kind == "datacutter.uow" and rec.fields["phase"] == "complete":
            self.uows += 1

    def prefixed(self, prefix: str) -> int:
        """Records whose kind starts with *prefix* (e.g. ``"faults."``)."""
        return sum(n for kind, n in self.kinds.items() if kind.startswith(prefix))


@contextmanager
def simulator_census() -> Iterator[List[Simulator]]:
    """Collect every :class:`Simulator` constructed inside the block.

    The program's entry points build their simulators internally; this
    wraps the constructor so their public counters can be read after
    the run.  Used only in the traced pass.
    """
    sims: List[Simulator] = []
    original = Simulator.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        sims.append(self)

    Simulator.__init__ = init
    try:
        yield sims
    finally:
        Simulator.__init__ = original
