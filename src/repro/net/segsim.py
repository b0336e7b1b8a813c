"""Segment-level flow-shop validation of the cost models.

The analytic :meth:`~repro.net.model.ProtocolCostModel.message_latency`
claims a message's segments pipeline through three stages (sender host,
wire, receiver host) with the first segment paying the full path and
later segments hiding behind the bottleneck stage.  This module checks
that claim by *simulating the segments exactly*: a deterministic
3-machine flow shop (identical job order, no overtaking — precisely the
semantics of a FIFO network path) computed with the classic recurrence

    C[i][j] = max(C[i-1][j], C[i][j-1]) + t[i][j]

where ``C[i][j]`` is the completion time of segment *i* on stage *j*.

Used by tests (the analytic formula must match the exact makespan to
within one bottleneck slot) and available to users as a ground-truth
reference when they fit their own cost models.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, TYPE_CHECKING

from repro.net.model import ProtocolCostModel

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = [
    "flow_shop_completion_times",
    "segment_message_latency",
    "segment_stream_time",
]


def flow_shop_completion_times(times: Sequence[Sequence[float]]) -> np.ndarray:
    """Completion-time matrix for a permutation flow shop.

    Parameters
    ----------
    times:
        ``times[i][j]`` = service time of job *i* on machine *j* (jobs
        processed in order on every machine, FIFO).

    Returns
    -------
    ``C`` with ``C[i, j]`` the completion time of job *i* on machine
    *j*; the makespan is ``C[-1, -1]``.
    """
    import numpy as np

    t = np.asarray(times, dtype=float)
    if t.ndim != 2 or t.size == 0:
        raise ValueError("need a non-empty 2-D job x machine matrix")
    n, m = t.shape
    c = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            prev_job = c[i - 1, j] if i > 0 else 0.0
            prev_machine = c[i, j - 1] if j > 0 else 0.0
            c[i, j] = max(prev_job, prev_machine) + t[i, j]
    return c


def _segment_list(model: ProtocolCostModel, nbytes: int) -> List[int]:
    n_full, full, last = model.segment_sizes(nbytes)
    return [full] * n_full + [last]


def _stage_times(model: ProtocolCostModel, s: int) -> List[float]:
    """Per-segment stage times with costs placed where they run:
    host-based protocols do segment work on the host stages, offloaded
    ones do it on the NIC in line with the wire."""
    if model.host_cpu_protocol:
        return [
            model.o_send_seg + model.c_send * s,
            model.o_wire_seg + model.g_wire * s,
            model.o_recv_seg + model.c_recv * s,
        ]
    return [
        model.c_send * s,
        model.o_send_seg + model.o_wire_seg + model.g_wire * s + model.o_recv_seg,
        model.c_recv * s,
    ]


def segment_message_latency(model: ProtocolCostModel, nbytes: int) -> float:
    """Exact one-way message latency at segment fidelity.

    Segments flow through (sender host, wire, receiver host); the
    per-message fixed costs bracket the pipeline and propagation adds a
    constant.  This is the ground truth the analytic
    :meth:`ProtocolCostModel.message_latency` approximates.
    """
    segments = _segment_list(model, nbytes)
    times = [_stage_times(model, s) for s in segments]
    makespan = flow_shop_completion_times(times)[-1, -1]
    return model.o_send_msg + makespan + model.l_wire + model.o_recv_msg


def segment_stream_time(
    model: ProtocolCostModel, nbytes: int, n_messages: int
) -> Tuple[float, float]:
    """Exact time to stream *n_messages* back-to-back at segment
    fidelity; returns ``(total_time, steady_per_message)``.

    Per-message fixed costs are charged on the sender and receiver
    stages of each message's first/last segment respectively.
    """
    if n_messages < 2:
        raise ValueError("need >= 2 messages for a steady-state estimate")
    segments = _segment_list(model, nbytes)
    times = []
    for k in range(n_messages):
        for idx, s in enumerate(segments):
            snd, wire, rcv = _stage_times(model, s)
            if idx == 0:
                snd += model.o_send_msg
            if idx == len(segments) - 1:
                rcv += model.o_recv_msg
            times.append([snd, wire, rcv])
    c = flow_shop_completion_times(times)
    total = c[-1, -1] + model.l_wire
    per_message = (c[-1, -1] - c[len(segments) - 1, -1]) / (n_messages - 1)
    return total, per_message
