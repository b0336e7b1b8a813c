"""Open-loop multi-tenant traffic generation (docs/SERVING.md).

Every figure driver in this repo is *closed-loop*: one simulated client
issues a query, waits for the answer, then issues the next, so the
offered load automatically tracks the server's speed and overload is
impossible by construction.  A serving system faces the opposite
regime — thousands of independent clients submit on their own clocks,
and the arrival process does not slow down because the server fell
behind.  This module generates that open-loop traffic.

The generator is strictly *schedule-first*: :func:`build_schedule`
draws every arrival time, tenant client, and query kind from named
:class:`~repro.sim.rng.RandomStreams` **before** the simulation starts,
and the simulation merely replays the resulting time-sorted list.  That
single design decision buys three guarantees at once:

* **open-loop by construction** — completion times cannot influence
  arrivals because arrivals exist before the first event runs;
* **bit-identical determinism** — the schedule is a pure function of
  ``(tenants, horizon, seed)``, so serial and ``--jobs N`` executions
  (and packet vs fluid simulation modes) replay the same offered load;
* **cheap fingerprinting** — :meth:`OpenLoopSchedule.fingerprint`
  hashes the canonical arrival list, which the determinism tests
  compare directly.

Two arrival processes are provided, both with the same mean rate so
they are interchangeable on the load axis:

* :class:`PoissonProcess` — exponential i.i.d. interarrivals;
* :class:`MMPPProcess` — a 2-state Markov-modulated Poisson process
  (on/off): exponential sojourns in an *on* state that emits at a
  burst rate and an *off* state that emits nothing, with the burst
  rate scaled so the long-run mean equals ``rate``.  Same average
  load, much burstier — queues see clumps.

Query kinds follow the Fig 9 mix (complete / partial / zoom updates of
the Virtual Microscope client), weighted per tenant by
:class:`QueryMix`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, TYPE_CHECKING

from repro.errors import WorkloadError
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = [
    "QueryMix",
    "ArrivalProcess",
    "PoissonProcess",
    "MMPPProcess",
    "TenantSpec",
    "Arrival",
    "OpenLoopSchedule",
    "build_schedule",
    "uniform_tenants",
    "FIG9_SERVING_MIX",
    "QUERY_KINDS",
]

#: Query kinds, in mix order (matches repro.apps.queries constructors).
QUERY_KINDS = ("complete", "partial", "zoom")


@dataclass(frozen=True)
class QueryMix:
    """Relative weights of the Fig 9 query kinds in one tenant's load."""

    complete: float = 0.2
    partial: float = 0.5
    zoom: float = 0.3

    def __post_init__(self) -> None:
        weights = (self.complete, self.partial, self.zoom)
        if any(w < 0 for w in weights):
            raise WorkloadError(f"negative mix weight in {weights}")
        if sum(weights) <= 0:
            raise WorkloadError("query mix must have positive total weight")

    @property
    def total(self) -> float:
        return self.complete + self.partial + self.zoom

    def kind_for(self, u: float) -> str:
        """Map a uniform draw ``u in [0, 1)`` to a query kind."""
        x = u * self.total
        if x < self.complete:
            return "complete"
        if x < self.complete + self.partial:
            return "partial"
        return "zoom"


#: The serving default: mostly incremental updates, a fair share of
#: zooms, occasional full-image refreshes (Fig 9's interactive client).
FIG9_SERVING_MIX = QueryMix()


class ArrivalProcess:
    """Interface: draw arrival times in ``[0, horizon)`` from *rng*."""

    def arrival_times(self, rng: np.random.Generator,
                      horizon: float) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate`` per second."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise WorkloadError(f"arrival rate must be > 0, got {self.rate}")

    def arrival_times(self, rng: np.random.Generator,
                      horizon: float) -> np.ndarray:
        import numpy as np

        times: List[np.ndarray] = []
        t = 0.0
        # Draw interarrival gaps in batches sized to overshoot the
        # horizon slightly; loop only on unlucky tails.
        batch = max(16, int(self.rate * horizon * 1.2) + 16)
        while t < horizon:
            gaps = rng.exponential(1.0 / self.rate, size=batch)
            cum = t + np.cumsum(gaps)
            times.append(cum[cum < horizon])
            t = float(cum[-1])
        if not times:
            return np.empty(0)
        return np.concatenate(times)


@dataclass(frozen=True)
class MMPPProcess(ArrivalProcess):
    """2-state MMPP (on/off) with long-run mean rate ``rate``.

    Sojourn times in both states are exponential (``mean_on`` /
    ``mean_off`` seconds).  While *on*, arrivals are Poisson at
    ``rate / duty`` where ``duty = mean_on / (mean_on + mean_off)``;
    while *off*, silence.  The initial state is drawn with the
    stationary probability ``duty``, so the process starts in steady
    state and the mean offered load equals a PoissonProcess of the
    same ``rate``.
    """

    rate: float
    mean_on: float = 0.02
    mean_off: float = 0.08

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise WorkloadError(f"arrival rate must be > 0, got {self.rate}")
        if self.mean_on <= 0 or self.mean_off <= 0:
            raise WorkloadError("MMPP sojourn means must be > 0")

    @property
    def duty(self) -> float:
        return self.mean_on / (self.mean_on + self.mean_off)

    @property
    def burst_rate(self) -> float:
        """Arrival rate while the source is on."""
        return self.rate / self.duty

    def arrival_times(self, rng: np.random.Generator,
                      horizon: float) -> np.ndarray:
        times: List[float] = []
        t = 0.0
        on = bool(rng.random() < self.duty)
        while t < horizon:
            if on:
                end = t + float(rng.exponential(self.mean_on))
                tick = t + float(rng.exponential(1.0 / self.burst_rate))
                while tick < min(end, horizon):
                    times.append(tick)
                    tick += float(rng.exponential(1.0 / self.burst_rate))
                t = end
            else:
                t += float(rng.exponential(self.mean_off))
            on = not on
        import numpy as np

        return np.asarray(times)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: an aggregate arrival rate spread over a simulated
    client population, with its own query mix and arrival process."""

    name: str
    rate: float                    #: aggregate queries/second
    clients: int = 64              #: simulated concurrent client population
    mix: QueryMix = FIG9_SERVING_MIX
    arrival: str = "poisson"       #: ``"poisson"`` or ``"bursty"``
    burst_on: float = 0.02         #: MMPP mean on-sojourn (seconds)
    burst_off: float = 0.08        #: MMPP mean off-sojourn (seconds)

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise WorkloadError(f"tenant {self.name!r} needs >= 1 client")
        if self.arrival not in ("poisson", "bursty"):
            raise WorkloadError(
                f"tenant {self.name!r}: unknown arrival process "
                f"{self.arrival!r} (have poisson, bursty)"
            )

    def process(self) -> ArrivalProcess:
        if self.arrival == "bursty":
            return MMPPProcess(self.rate, self.burst_on, self.burst_off)
        return PoissonProcess(self.rate)


@dataclass(frozen=True)
class Arrival:
    """One query arrival, fully determined before the simulation runs."""

    at: float           #: offset from the schedule start (seconds)
    tenant: str
    tenant_index: int   #: position of the tenant in the spec list
    client: int         #: which of the tenant's clients submitted
    kind: str           #: complete | partial | zoom
    seq: int            #: global order after the time sort


@dataclass
class OpenLoopSchedule:
    """A time-sorted arrival list plus the inputs that produced it."""

    arrivals: List[Arrival]
    horizon: float
    tenants: Tuple[TenantSpec, ...]
    seed: int
    _counts: Dict[str, int] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def offered_rate(self) -> float:
        """Realized aggregate arrival rate over the horizon."""
        return len(self.arrivals) / self.horizon

    def counts_by_kind(self) -> Dict[str, int]:
        if not self._counts:
            counts = {kind: 0 for kind in QUERY_KINDS}
            for arrival in self.arrivals:
                counts[arrival.kind] += 1
            self._counts = counts
        return dict(self._counts)

    def fingerprint(self) -> str:
        """SHA-256 over the canonical arrival list.

        Two schedules with equal fingerprints are bit-identical: the
        hash covers every field that influences the simulation.
        """
        digest = hashlib.sha256()
        digest.update(f"{self.horizon!r}|{self.seed}".encode())
        for a in self.arrivals:
            digest.update(
                f"{a.at!r}|{a.tenant}|{a.client}|{a.kind}".encode()
            )
        return digest.hexdigest()


def build_schedule(
    tenants: Sequence[TenantSpec],
    horizon: float,
    seed: int,
) -> OpenLoopSchedule:
    """Draw the full arrival schedule for *tenants* over *horizon*.

    Pure function of its arguments: every draw comes from a named
    substream of ``RandomStreams(seed)`` keyed by tenant name, so
    adding a tenant never perturbs another tenant's arrivals, and the
    same inputs always produce the same schedule (the open-loop and
    determinism guarantees in the module docstring).
    """
    if horizon <= 0:
        raise WorkloadError(f"horizon must be > 0, got {horizon}")
    if not tenants:
        raise WorkloadError("need at least one tenant")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise WorkloadError(f"duplicate tenant names in {names}")

    streams = RandomStreams(seed)
    raw: List[Arrival] = []
    for tenant_index, tenant in enumerate(tenants):
        rng_arrivals = streams.fresh_stream(f"workload.{tenant.name}.arrivals")
        rng_mix = streams.fresh_stream(f"workload.{tenant.name}.mix")
        rng_client = streams.fresh_stream(f"workload.{tenant.name}.clients")
        for at in tenant.process().arrival_times(rng_arrivals, horizon):
            raw.append(Arrival(
                at=float(at),
                tenant=tenant.name,
                tenant_index=tenant_index,
                client=int(rng_client.integers(tenant.clients)),
                kind=tenant.mix.kind_for(float(rng_mix.random())),
                seq=0,
            ))
    # Stable sort on (time, tenant) gives a total deterministic order:
    # within one tenant times are already strictly increasing (ties
    # across tenants break by spec position).
    raw.sort(key=lambda a: (a.at, a.tenant_index))
    arrivals = [
        Arrival(a.at, a.tenant, a.tenant_index, a.client, a.kind, seq)
        for seq, a in enumerate(raw)
    ]
    return OpenLoopSchedule(
        arrivals=arrivals,
        horizon=horizon,
        tenants=tuple(tenants),
        seed=seed,
    )


def uniform_tenants(
    n: int,
    rate_per_tenant: float,
    clients: int = 64,
    mix: QueryMix = FIG9_SERVING_MIX,
    arrival: str = "poisson",
) -> List[TenantSpec]:
    """*n* identically-shaped tenants named ``t0000`` .. — the serving
    suite's standard population (one tenant per shard)."""
    if n < 1:
        raise WorkloadError("need at least one tenant")
    return [
        TenantSpec(
            name=f"t{i:04d}",
            rate=rate_per_tenant,
            clients=clients,
            mix=mix,
            arrival=arrival,
        )
        for i in range(n)
    ]
