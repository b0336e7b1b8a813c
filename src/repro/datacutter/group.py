"""Filter groups: the application's processing structure.

A :class:`FilterGroup` declares filters (with transparent-copy counts),
the logical streams connecting them, and optionally a placement of
copies onto hosts.  Validation catches malformed graphs before any
simulation runs: unknown endpoints, cycles (streams form an acyclic
data flow, Section 2), filters with no role, duplicate names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import FilterGraphError, PlacementError

__all__ = ["FilterSpec", "StreamSpec", "Placement", "FilterGroup"]


@dataclass
class FilterSpec:
    """One declared filter: a factory plus its transparent-copy count."""

    name: str
    factory: Callable[[], "object"]
    copies: int = 1
    #: Optional scheduling policy override for this filter's *output*
    #: streams ("rr" or "dd"); None inherits the group default.
    policy: Optional[str] = None

    def __post_init__(self) -> None:
        if self.copies < 1:
            raise FilterGraphError(f"filter {self.name!r} needs >= 1 copy")


@dataclass
class StreamSpec:
    """A logical stream: uni-directional producer -> consumer."""

    name: str
    producer: str
    consumer: str


@dataclass
class Placement:
    """Maps (filter, copy index) -> host name."""

    assignments: Dict[Tuple[str, int], str] = field(default_factory=dict)

    def host_for(self, filter_name: str, copy: int) -> str:
        try:
            return self.assignments[(filter_name, copy)]
        except KeyError:
            raise PlacementError(
                f"no host assigned for {filter_name!r} copy {copy}"
            ) from None


class FilterGroup:
    """Builder + validator for one application's filter graph.

    Example (the paper's visualization pipeline)::

        group = FilterGroup("vizserver", default_policy="dd")
        group.add_filter("reader", ReaderFilter, copies=3)
        group.add_filter("clip", ClipFilter, copies=3)
        group.add_filter("subsample", SubsampleFilter, copies=3)
        group.add_filter("viz", VizFilter)
        group.connect("raw", "reader", "clip")
        group.connect("clipped", "clip", "subsample")
        group.connect("pixels", "subsample", "viz")
    """

    def __init__(self, name: str, default_policy: str = "dd") -> None:
        self.name = name
        self.default_policy = default_policy
        self.filters: Dict[str, FilterSpec] = {}
        self.streams: List[StreamSpec] = []

    # -- construction ----------------------------------------------------------------

    def add_filter(
        self,
        name: str,
        factory: Callable[[], "object"],
        copies: int = 1,
        policy: Optional[str] = None,
    ) -> FilterSpec:
        """Declare a filter; *factory* is called once per copy."""
        if name in self.filters:
            raise FilterGraphError(f"duplicate filter {name!r}")
        spec = FilterSpec(name=name, factory=factory, copies=copies, policy=policy)
        self.filters[name] = spec
        return spec

    def connect(self, stream_name: str, producer: str, consumer: str) -> StreamSpec:
        """Declare a logical stream from *producer* to *consumer*."""
        for endpoint in (producer, consumer):
            if endpoint not in self.filters:
                raise FilterGraphError(
                    f"stream {stream_name!r} references unknown filter "
                    f"{endpoint!r}"
                )
        if any(s.name == stream_name for s in self.streams):
            raise FilterGraphError(f"duplicate stream {stream_name!r}")
        spec = StreamSpec(stream_name, producer, consumer)
        self.streams.append(spec)
        return spec

    # -- queries ----------------------------------------------------------------------

    def inputs_of(self, filter_name: str) -> List[StreamSpec]:
        """Streams whose consumer is *filter_name*."""
        return [s for s in self.streams if s.consumer == filter_name]

    def outputs_of(self, filter_name: str) -> List[StreamSpec]:
        """Streams whose producer is *filter_name*."""
        return [s for s in self.streams if s.producer == filter_name]

    def sources(self) -> List[str]:
        """Filters with no input streams (data producers)."""
        return [f for f in self.filters if not self.inputs_of(f)]

    def sinks(self) -> List[str]:
        """Filters with no output streams."""
        return [f for f in self.filters if not self.outputs_of(f)]

    def policy_for(self, filter_name: str) -> str:
        spec = self.filters[filter_name]
        return spec.policy or self.default_policy

    # -- validation ----------------------------------------------------------------------

    def topological_order(self) -> List[str]:
        """Filters in data-flow order; raises :class:`FilterGraphError` on a cycle.

        Kahn's algorithm, generation by generation: first the filters
        with no inputs in declaration order, then each filter in the
        order its last input producer is visited, walking producers in
        order and each producer's consumers in first-stream order.
        Streams repeating a producer -> consumer pair count once, as in
        a simple digraph.  :func:`~repro.datacutter.placement_opt.plan_placement`
        assigns copies in this order, so it must stay stable.
        """
        consumers: Dict[str, Dict[str, None]] = {f: {} for f in self.filters}
        for s in self.streams:
            consumers[s.producer][s.consumer] = None
        indegree = dict.fromkeys(self.filters, 0)
        for children in consumers.values():
            for child in children:
                indegree[child] += 1
        order = [f for f, d in indegree.items() if d == 0]
        i = 0
        while i < len(order):
            for child in consumers[order[i]]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    order.append(child)
            i += 1
        if len(order) < len(self.filters):
            raise FilterGraphError(
                f"filter graph has a cycle: {' -> '.join(self._find_cycle(order))}"
            )
        return order

    def _find_cycle(self, ordered: List[str]) -> List[str]:
        """One cycle among the filters Kahn's pass could not order.

        Every such filter keeps an unordered producer, so walking
        producers backwards from one of them must revisit a filter.
        Returns the cycle in stream direction, closed (first == last).
        """
        done = set(ordered)
        node = next(f for f in self.filters if f not in done)
        path: List[str] = []
        seen: Dict[str, int] = {}
        while node not in seen:
            seen[node] = len(path)
            path.append(node)
            node = next(
                s.producer for s in self.streams
                if s.consumer == node and s.producer not in done
            )
        cycle = path[seen[node]:][::-1]
        return cycle + cycle[:1]

    def validate(self) -> None:
        """Raise :class:`FilterGraphError` on structural problems."""
        if not self.filters:
            raise FilterGraphError("empty filter group")
        self.topological_order()
        if len(self.filters) > 1:
            linked = {s.producer for s in self.streams}
            linked.update(s.consumer for s in self.streams)
            isolated = [f for f in self.filters if f not in linked]
            if isolated:
                raise FilterGraphError(
                    f"filters not connected to any stream: {isolated}"
                )
        if not self.sources():
            raise FilterGraphError("filter group has no source filter")

    # -- placement -------------------------------------------------------------------------

    def place_round_robin(self, hosts: Sequence[str]) -> Placement:
        """Assign copies to *hosts* in declaration order, round-robin.

        The paper places each copy on a different node; give this as
        many hosts as there are copies for that effect.
        """
        if not hosts:
            raise PlacementError("no hosts to place on")
        placement = Placement()
        i = 0
        for spec in self.filters.values():
            for copy in range(spec.copies):
                placement.assignments[(spec.name, copy)] = hosts[i % len(hosts)]
                i += 1
        return placement

    def place(self, mapping: Dict[str, Sequence[str]]) -> Placement:
        """Explicit placement: filter name -> list of hosts (one per copy)."""
        placement = Placement()
        for spec in self.filters.values():
            try:
                host_list = mapping[spec.name]
            except KeyError:
                raise PlacementError(f"no hosts given for {spec.name!r}") from None
            if len(host_list) != spec.copies:
                raise PlacementError(
                    f"{spec.name!r} has {spec.copies} copies but "
                    f"{len(host_list)} hosts were given"
                )
            for copy, host in enumerate(host_list):
                placement.assignments[(spec.name, copy)] = host
        return placement

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FilterGroup {self.name!r} filters={list(self.filters)} "
            f"streams={[s.name for s in self.streams]}>"
        )
