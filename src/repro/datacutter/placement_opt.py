"""Placement planning for filter groups.

"Placement of components onto computational resources represents an
important degree of flexibility in optimizing application performance"
(paper Section 1, quoting the component-framework motivation).  This
module turns that flexibility into an algorithm: given a filter group,
candidate hosts, a transport cost model and per-filter compute rates,
it predicts each host's per-byte load and greedily assigns copies to
minimize the bottleneck.

Model
-----
For one byte flowing through a filter copy, its host pays

* ``host_recv_time`` per input stream byte (amortized per-chunk costs
  are ignored: this is a placement heuristic, not a simulator),
* ``host_send_time`` per output stream byte,
* the filter's compute seconds per byte (scaled by any static host
  slowdown).

Stream rates default to 1.0 (uniform relative flow) and can be given
per stream when the application shrinks or amplifies data between
stages.  The load a copy adds is its filter's per-byte cost times its
share (rate / copies) of each adjacent stream.

The planner is greedy in topological order with two tie-breakers that
encode DataCutter practice: copies of one filter spread across distinct
hosts first (they would otherwise serialize on one CPU), and producers
avoid their consumers' hosts when alternatives are no worse.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.datacutter.group import FilterGroup, Placement
from repro.errors import PlacementError
from repro.net.model import ProtocolCostModel

__all__ = ["predict_host_loads", "plan_placement"]

#: Chunk size used to amortize per-message costs into per-byte costs.
_REFERENCE_CHUNK = 8 * 1024


def _per_byte_cost(model: ProtocolCostModel, direction: str) -> float:
    """Host cost per byte moved, at the reference chunk size."""
    if direction == "recv":
        return model.host_recv_time(_REFERENCE_CHUNK) / _REFERENCE_CHUNK
    return model.host_send_time(_REFERENCE_CHUNK) / _REFERENCE_CHUNK


def _copy_load(
    group: FilterGroup,
    filter_name: str,
    model: ProtocolCostModel,
    compute_ns: Dict[str, float],
    stream_rates: Dict[str, float],
) -> float:
    """Per-byte-second load one copy of *filter_name* puts on its host."""
    spec = group.filters[filter_name]
    load = 0.0
    for stream in group.inputs_of(filter_name):
        rate = stream_rates.get(stream.name, 1.0) / spec.copies
        load += rate * _per_byte_cost(model, "recv")
    for stream in group.outputs_of(filter_name):
        rate = stream_rates.get(stream.name, 1.0) / spec.copies
        load += rate * _per_byte_cost(model, "send")
    # Compute rides every input byte (sources compute over their output).
    inputs = group.inputs_of(filter_name)
    streams = inputs if inputs else group.outputs_of(filter_name)
    ns = compute_ns.get(filter_name, 0.0)
    for stream in streams:
        rate = stream_rates.get(stream.name, 1.0) / spec.copies
        load += rate * ns * 1e-9
    return load


def predict_host_loads(
    group: FilterGroup,
    placement: Placement,
    model: ProtocolCostModel,
    compute_ns: Optional[Dict[str, float]] = None,
    stream_rates: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-host predicted load (seconds of host work per byte of flow)
    for an existing placement — the quantity the planner minimizes."""
    compute_ns = compute_ns or {}
    stream_rates = stream_rates or {}
    loads: Dict[str, float] = {}
    for (fname, copy), host in placement.assignments.items():
        loads[host] = loads.get(host, 0.0) + _copy_load(
            group, fname, model, compute_ns, stream_rates
        )
    return loads


def plan_placement(
    group: FilterGroup,
    hosts: Sequence[str],
    model: ProtocolCostModel,
    compute_ns: Optional[Dict[str, float]] = None,
    stream_rates: Optional[Dict[str, float]] = None,
) -> Placement:
    """Greedy bottleneck-minimizing placement of all copies onto *hosts*.

    Copies are assigned in topological filter order; each copy goes to
    the host with the smallest projected load, preferring hosts not yet
    carrying a copy of the same filter.  Raises
    :class:`~repro.errors.PlacementError` when any filter has more
    copies than there are hosts (copies must not co-locate with
    themselves: they would serialize on one CPU and stop being
    transparent performance-wise).
    """
    group.validate()
    if not hosts:
        raise PlacementError("no hosts to place on")
    compute_ns = compute_ns or {}
    stream_rates = stream_rates or {}

    loads: Dict[str, float] = {h: 0.0 for h in hosts}
    placement = Placement()
    for fname in group.topological_order():
        spec = group.filters[fname]
        if spec.copies > len(hosts):
            raise PlacementError(
                f"{fname!r} has {spec.copies} copies but only "
                f"{len(hosts)} hosts are available"
            )
        delta = _copy_load(group, fname, model, compute_ns, stream_rates)
        used_by_this_filter: set = set()
        for copy in range(spec.copies):
            candidates = [h for h in hosts if h not in used_by_this_filter]
            # Least-loaded first; stable order breaks ties by host name
            # order in the input sequence (deterministic).
            best = min(candidates, key=lambda h: loads[h])
            placement.assignments[(fname, copy)] = best
            loads[best] += delta
            used_by_this_filter.add(best)
    return placement
