"""Per-figure experiment drivers.

One function per table/figure in the paper's evaluation (Section 5),
each returning an :class:`~repro.bench.records.ExperimentTable` whose
rows/series mirror what the paper plots.  The benchmark suite under
``benchmarks/`` calls these; so can users, directly::

    from repro.bench import figures
    print(figures.fig4a_latency().render())

Every driver accepts scale parameters so CI can run a quick variant;
the defaults regenerate the full figures.  All runs are deterministic.

Sweep decomposition
-------------------
Each figure is a sweep of *independent* simulation points, so next to
every serial driver lives a ``*_points()`` decomposition returning a
:class:`~repro.bench.executor.PointPlan`: a list of pure
:class:`~repro.bench.executor.Point` work items (the entries of
:data:`POINT_FNS`, invoked by name so they pickle across a process
pool and key a content-addressed result cache) plus a merge that
reassembles the figure table **row-for-row identical** to the serial
loop.  Table titles, columns, and notes are built by shared helpers so
the two paths cannot drift; ``tests/test_bench_executor.py`` holds
every plan to bit-identity against its serial driver.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.apps.dataset import PAPER_IMAGE_BYTES
from repro.apps.loadbalance import (
    LoadBalanceConfig,
    paper_block_size,
    run_loadbalance,
)
from repro.apps.planning import (
    PipelinePlan,
    plan_block_for_latency,
    plan_block_for_rate,
)
from repro.apps.queries import mixed_query_workload, steady_rate_workload
from repro.apps.vizserver import (
    VizServerConfig,
    measure_max_update_rate,
    run_vizserver,
)
from repro.bench.executor import Point, PointPlan
from repro.bench.microbench import (
    ping_pong_latency,
    streaming_bandwidth,
    via_ping_pong_latency,
    via_streaming_bandwidth,
)
from repro.bench.records import ExperimentTable, ratio
from repro.bench.servebench import serve_cell, serve_scale_cell
from repro.sim.partition import serve_shard_cell
from repro.bench.tailsbench import tails_cell
from repro.bench.wancachebench import wcb_cell, wcq_cell
from repro.cluster.hetero import RandomSlowdown, StaticSlowdown
from repro.net.calibration import get_model
from repro.sim.units import bytes_per_sec_to_mbps, to_usec, usec

__all__ = [
    "fig2_message_size_economics",
    "fig4a_latency",
    "fig4b_bandwidth",
    "fig7_update_rate_guarantee",
    "fig8_latency_guarantee",
    "fig9_query_mix",
    "fig10_rr_reaction",
    "fig11_dd_heterogeneity",
    "chaos8_update_rate",
    "chaos11_crash_recovery",
    "fig2_points",
    "fig4a_points",
    "fig4b_points",
    "fig7_points",
    "fig8_points",
    "fig9_points",
    "fig10_points",
    "fig11_points",
    "chaos8_points",
    "chaos11_points",
    "POINT_FNS",
    "MICRO_SIZES_LATENCY",
    "MICRO_SIZES_BANDWIDTH",
    "FIG7_RATES",
    "FIG8_BOUNDS_US",
    "FIG9_FRACTIONS",
    "FIG10_FACTORS",
    "FIG11_PROBABILITIES",
    "FIG11_FACTORS",
    "CHAOS8_BOUNDS_US",
    "CHAOS11_PROBABILITIES",
    "CHAOS11_FACTOR",
]

#: Figure 4(a) x-axis: 4 bytes .. 4 KB.
MICRO_SIZES_LATENCY = [4, 16, 64, 256, 1024, 2048, 4096]
#: Figure 4(b) x-axis: 4 bytes .. 64 KB.
MICRO_SIZES_BANDWIDTH = [64, 256, 1024, 2048, 4096, 8192, 16384, 32768, 65536]
#: Figure 7 x-axis (updates per second).
FIG7_RATES = [4.0, 3.75, 3.5, 3.25, 3.0, 2.75, 2.5, 2.25, 2.0]
#: Figure 8 x-axis (partial-update latency guarantee, microseconds).
FIG8_BOUNDS_US = [1000, 900, 800, 700, 600, 500, 400, 300, 200, 100]
#: Figure 9 x-axis (fraction of complete-update queries).
FIG9_FRACTIONS = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
#: Figure 10 x-axis (factor of heterogeneity).
FIG10_FACTORS = [2, 4, 10]
#: Figure 11 axes.
FIG11_PROBABILITIES = [0.1, 0.3, 0.5, 0.7, 0.9]
FIG11_FACTORS = [2, 4, 8]

#: The slow worker both load-balance figures perturb.
_SLOW_INDEX = 2


# ---------------------------------------------------------------------------
# Figure 2: the message-size economics behind data repartitioning
# ---------------------------------------------------------------------------


_FIG2_ROW_LABELS = [
    "U1 (kernel sockets size for B, bytes)",
    "U2 (high-perf substrate size for B, bytes)",
    "L1 = kernel latency at U1 (us)",
    "L2 = substrate latency at U1 (us)",
    "L3 = substrate latency at U2 (us)",
]

_FIG2_NOTE = (
    "direct improvement L1->L2 (faster wire at the same chunking), "
    "indirect improvement L2->L3 (repartitioning to U2)"
)


def _fig2_table(required_bandwidth_mbps: float) -> ExperimentTable:
    return ExperimentTable(
        "fig2",
        f"Message-size economics at required bandwidth B = "
        f"{required_bandwidth_mbps:.0f} Mbps",
        ["quantity", "value"],
    )


def fig2_economics(required_bandwidth_mbps: float) -> List[float]:
    """Point: the five Figure-2 quantities ``[U1, U2, L1, L2, L3]``."""
    from repro.sim.units import mbps_to_bytes_per_sec

    tcp = get_model("tcp")
    sv = get_model("socketvia")
    target = mbps_to_bytes_per_sec(required_bandwidth_mbps)
    u1 = tcp.size_for_bandwidth(target)
    u2 = sv.size_for_bandwidth(target)
    return [
        int(u1),
        int(u2),
        float(to_usec(tcp.des_message_latency(u1))),
        float(to_usec(sv.des_message_latency(u1))),
        float(to_usec(sv.des_message_latency(u2))),
    ]


def _fig2_merge(required_bandwidth_mbps: float, values: List[float]) -> ExperimentTable:
    table = _fig2_table(required_bandwidth_mbps)
    for label, value in zip(_FIG2_ROW_LABELS, values):
        table.add_row(label, value)
    table.add_note(_FIG2_NOTE)
    return table


def fig2_message_size_economics(required_bandwidth_mbps: float = 450.0) -> ExperimentTable:
    """Figure 2 (conceptual, here with calibrated numbers): the message
    sizes U1 (kernel sockets) and U2 (high-performance substrate) at
    which each transport attains a required bandwidth B, and the
    latency improvements L1 -> L2 (same size, faster substrate) -> L3
    (substrate at its own smaller size).

    A closed-form model evaluation with no sweep axes, so there is no
    quick variant: quick and full runs are the same table (see the
    exemption note in ``repro.bench.suites``).
    """
    return _fig2_merge(required_bandwidth_mbps,
                       fig2_economics(required_bandwidth_mbps))


def fig2_points(required_bandwidth_mbps: float = 450.0) -> PointPlan:
    """Figure 2 as a single-point plan (one model evaluation)."""
    points = [Point("2", "fig2_economics",
                    {"required_bandwidth_mbps": float(required_bandwidth_mbps)})]
    return PointPlan(
        "2", points,
        lambda values: _fig2_merge(required_bandwidth_mbps, values[0]))


# ---------------------------------------------------------------------------
# Figure 4: micro-benchmarks
# ---------------------------------------------------------------------------


_FIG4A_NOTE = "paper: SocketVIA 9.5 us, ~5x below TCP"
_FIG4B_NOTE = "paper peaks: VIA 795, SocketVIA 763, TCP 510 Mbps"


def _fig4a_table() -> ExperimentTable:
    return ExperimentTable(
        "fig4a",
        "Micro-benchmark latency (us) vs message size",
        ["msg_bytes", "VIA", "SocketVIA", "TCP"],
    )


def _fig4b_table() -> ExperimentTable:
    return ExperimentTable(
        "fig4b",
        "Micro-benchmark bandwidth (Mbps) vs message size",
        ["msg_bytes", "VIA", "SocketVIA", "TCP"],
    )


def fig4a_size(size: int) -> List[float]:
    """Point: one-way latency (us) of the three transports at *size*."""
    return [
        float(to_usec(via_ping_pong_latency(size))),
        float(to_usec(ping_pong_latency("socketvia", size))),
        float(to_usec(ping_pong_latency("tcp", size))),
    ]


def fig4b_size(size: int) -> List[float]:
    """Point: streaming bandwidth (Mbps) of the three transports."""
    return [
        float(bytes_per_sec_to_mbps(via_streaming_bandwidth(size))),
        float(bytes_per_sec_to_mbps(streaming_bandwidth("socketvia", size))),
        float(bytes_per_sec_to_mbps(streaming_bandwidth("tcp", size))),
    ]


def fig4a_latency(sizes=None) -> ExperimentTable:
    """Figure 4(a): one-way latency vs message size, three transports."""
    sizes = sizes or MICRO_SIZES_LATENCY
    table = _fig4a_table()
    for size in sizes:
        table.add_row(size, *fig4a_size(size))
    table.add_note(_FIG4A_NOTE)
    return table


def fig4b_bandwidth(sizes=None) -> ExperimentTable:
    """Figure 4(b): streaming bandwidth (Mbps) vs message size."""
    sizes = sizes or MICRO_SIZES_BANDWIDTH
    table = _fig4b_table()
    for size in sizes:
        table.add_row(size, *fig4b_size(size))
    table.add_note(_FIG4B_NOTE)
    return table


def _fig4_points(figure: str, fn: str, sizes, table_fn, note) -> PointPlan:
    sizes = [int(s) for s in sizes]
    points = [Point(figure, fn, {"size": s}) for s in sizes]

    def merge(values: List[Any]) -> ExperimentTable:
        table = table_fn()
        for size, cells in zip(sizes, values):
            table.add_row(size, *cells)
        table.add_note(note)
        return table

    return PointPlan(figure, points, merge)


def fig4a_points(sizes=None) -> PointPlan:
    """Figure 4(a) as one point per message size."""
    return _fig4_points("4a", "fig4a_size", sizes or MICRO_SIZES_LATENCY,
                        _fig4a_table, _FIG4A_NOTE)


def fig4b_points(sizes=None) -> PointPlan:
    """Figure 4(b) as one point per message size."""
    return _fig4_points("4b", "fig4b_size", sizes or MICRO_SIZES_BANDWIDTH,
                        _fig4b_table, _FIG4B_NOTE)


# ---------------------------------------------------------------------------
# Figure 7: average partial-update latency under update-rate guarantees
# ---------------------------------------------------------------------------


def _fig7_point(protocol: str, block: int, rate: float, compute: float, frames: int):
    cfg = VizServerConfig(
        protocol=protocol, block_bytes=block, compute_ns_per_byte=compute
    )
    workload = steady_rate_workload(
        cfg.dataset(), rate=rate, duration=frames / rate + 1e-3, partial_every=1
    )
    res = run_vizserver(cfg, workload)
    return (
        to_usec(res.latency("partial").mean),
        res.achieved_update_rate,
    )


def _fig7_table(compute_ns_per_byte: float) -> ExperimentTable:
    variant = "b (18 ns/B compute)" if compute_ns_per_byte else "a (no compute)"
    return ExperimentTable(
        f"fig7{'b' if compute_ns_per_byte else 'a'}",
        f"Avg partial-update latency (us) with update/s guarantees — {variant}",
        ["updates_per_sec", "tcp_block", "TCP", "SocketVIA", "dr_block",
         "SocketVIA_DR", "tcp_rate_achieved", "dr_rate_achieved"],
    )


def _fig7_add_notes(table: ExperimentTable) -> ExperimentTable:
    improvements = [
        (ratio(t, s), ratio(t, d))
        for t, s, d in zip(table.column("TCP"), table.column("SocketVIA"),
                           table.column("SocketVIA_DR"))
        if t is not None
    ]
    if improvements:
        best_no_dr = max((r for r, _ in improvements if r), default=None)
        best_dr = max((r for _, r in improvements if r), default=None)
        table.add_note(
            f"best improvement: {best_no_dr:.1f}x without repartitioning, "
            f"{best_dr:.1f}x with (paper: >3.5x / >10x for (a), >4x / >12x for (b))"
        )
    table.add_note("'--' = no block size meets the guarantee (drop-out)")
    return table


def fig7_rate(rate: float, compute_ns_per_byte: float, frames: int) -> List[Any]:
    """Point: one Figure-7 row (both transports + repartitioning) at *rate*."""
    tcp_plan = PipelinePlan(model=get_model("tcp"),
                            compute_ns_per_byte=compute_ns_per_byte)
    sv_plan = PipelinePlan(model=get_model("socketvia"),
                           compute_ns_per_byte=compute_ns_per_byte)
    b_tcp = plan_block_for_rate(tcp_plan, rate)
    b_sv = plan_block_for_rate(sv_plan, rate)
    tcp_lat = sv_lat = dr_lat = tcp_rate = dr_rate = None
    if b_tcp is not None:
        tcp_lat, tcp_rate = _fig7_point("tcp", b_tcp, rate,
                                        compute_ns_per_byte, frames)
        sv_lat, _ = _fig7_point("socketvia", b_tcp, rate,
                                compute_ns_per_byte, frames)
    if b_sv is not None:
        dr_lat, dr_rate = _fig7_point("socketvia", b_sv, rate,
                                      compute_ns_per_byte, frames)

    def _f(x):
        return None if x is None else float(x)

    return [b_tcp, _f(tcp_lat), _f(sv_lat), b_sv, _f(dr_lat),
            _f(tcp_rate), _f(dr_rate)]


def fig7_update_rate_guarantee(
    compute_ns_per_byte: float = 0.0,
    rates=None,
    frames: int = 3,
) -> ExperimentTable:
    """Figure 7: partial-update latency while guaranteeing a full-update
    rate.  Series: TCP (blocks planned for TCP), SocketVIA at TCP's
    blocks, SocketVIA with Data Repartitioning (its own blocks).

    ``compute_ns_per_byte=0`` reproduces 7(a); 18.0 reproduces 7(b).
    """
    rates = rates or FIG7_RATES
    table = _fig7_table(compute_ns_per_byte)
    for rate in rates:
        table.add_row(rate, *fig7_rate(rate, compute_ns_per_byte, frames))
    return _fig7_add_notes(table)


def fig7_points(
    compute_ns_per_byte: float = 0.0,
    rates=None,
    frames: int = 3,
) -> PointPlan:
    """Figure 7 as one point per guaranteed update rate."""
    rates = [float(r) for r in (rates or FIG7_RATES)]
    figure = "7b" if compute_ns_per_byte else "7a"
    points = [
        Point(figure, "fig7_rate",
              {"rate": rate, "compute_ns_per_byte": float(compute_ns_per_byte),
               "frames": int(frames)})
        for rate in rates
    ]

    def merge(values: List[Any]) -> ExperimentTable:
        table = _fig7_table(compute_ns_per_byte)
        for rate, cells in zip(rates, values):
            table.add_row(rate, *cells)
        return _fig7_add_notes(table)

    return PointPlan(figure, points, merge)


# ---------------------------------------------------------------------------
# Figure 8: updates/s under partial-update latency guarantees
# ---------------------------------------------------------------------------


_FIG8_NOTE = (
    "paper: TCP drops out at the 100 us guarantee; SocketVIA stays near peak"
)


def _fig8_table(compute_ns_per_byte: float) -> ExperimentTable:
    variant = "b (18 ns/B compute)" if compute_ns_per_byte else "a (no compute)"
    return ExperimentTable(
        f"fig8{'b' if compute_ns_per_byte else 'a'}",
        f"Updates/s with latency guarantees — {variant}",
        ["latency_us", "tcp_block", "TCP", "SocketVIA", "dr_block", "SocketVIA_DR"],
    )


def _fig8_blocks(compute_ns_per_byte: float, bounds_us) -> List[tuple]:
    """Per-bound planned blocks ``(bound, b_tcp, b_sv)`` — analytic."""
    tcp_plan = PipelinePlan(model=get_model("tcp"),
                            compute_ns_per_byte=compute_ns_per_byte)
    sv_plan = PipelinePlan(model=get_model("socketvia"),
                           compute_ns_per_byte=compute_ns_per_byte)
    return [
        (bound,
         plan_block_for_latency(tcp_plan, usec(bound)),
         plan_block_for_latency(sv_plan, usec(bound)))
        for bound in bounds_us
    ]


def fig8_rate(protocol: str, block: int, compute_ns_per_byte: float,
              frames: int) -> float:
    """Point: max sustainable update rate of *protocol* at *block*."""
    cfg = VizServerConfig(
        protocol=protocol, block_bytes=block,
        compute_ns_per_byte=compute_ns_per_byte,
    )
    return float(measure_max_update_rate(cfg, frames=frames))


def fig8_latency_guarantee(
    compute_ns_per_byte: float = 0.0,
    bounds_us=None,
    frames: int = 3,
) -> ExperimentTable:
    """Figure 8: maximum full updates/s while a partial-update chunk
    fetch stays under the latency guarantee.  Series as Figure 7."""
    bounds_us = bounds_us or FIG8_BOUNDS_US
    table = _fig8_table(compute_ns_per_byte)

    cache = {}

    def rate_for(protocol, block):
        key = (protocol, block)
        if key not in cache:
            cache[key] = fig8_rate(protocol, block, compute_ns_per_byte, frames)
        return cache[key]

    for bound, b_tcp, b_sv in _fig8_blocks(compute_ns_per_byte, bounds_us):
        tcp_rate = rate_for("tcp", b_tcp) if b_tcp else None
        sv_rate = rate_for("socketvia", b_tcp) if b_tcp else None
        dr_rate = rate_for("socketvia", b_sv) if b_sv else None
        table.add_row(bound, b_tcp, tcp_rate, sv_rate, b_sv, dr_rate)
    table.add_note(_FIG8_NOTE)
    return table


def fig8_points(
    compute_ns_per_byte: float = 0.0,
    bounds_us=None,
    frames: int = 3,
) -> PointPlan:
    """Figure 8 as one point per **unique** (protocol, block) pair.

    Planning is analytic and happens here; different latency bounds
    that plan the same block share one measurement point — the same
    memoization the serial driver's ``rate_for`` cache performs.
    """
    bounds_us = [int(b) for b in (bounds_us or FIG8_BOUNDS_US)]
    figure = "8b" if compute_ns_per_byte else "8a"
    blocks = _fig8_blocks(compute_ns_per_byte, bounds_us)
    pairs: List[tuple] = []
    for _, b_tcp, b_sv in blocks:
        for protocol, block in (("tcp", b_tcp), ("socketvia", b_tcp),
                                ("socketvia", b_sv)):
            if block and (protocol, block) not in pairs:
                pairs.append((protocol, block))
    points = [
        Point(figure, "fig8_rate",
              {"protocol": protocol, "block": int(block),
               "compute_ns_per_byte": float(compute_ns_per_byte),
               "frames": int(frames)})
        for protocol, block in pairs
    ]

    def merge(values: List[Any]) -> ExperimentTable:
        rate = dict(zip(pairs, values))
        table = _fig8_table(compute_ns_per_byte)
        for bound, b_tcp, b_sv in blocks:
            table.add_row(
                bound, b_tcp,
                rate[("tcp", b_tcp)] if b_tcp else None,
                rate[("socketvia", b_tcp)] if b_tcp else None,
                b_sv,
                rate[("socketvia", b_sv)] if b_sv else None)
        table.add_note(_FIG8_NOTE)
        return table

    return PointPlan(figure, points, merge)


# ---------------------------------------------------------------------------
# Figure 9: mixed query types vs average response time
# ---------------------------------------------------------------------------


_FIG9_NOTE = (
    "paper (150 ms budget, 64 partitions): TCP tolerates ~60% complete "
    "queries, SocketVIA ~90%"
)


def _fig9_table(compute_ns_per_byte: float, partitions) -> ExperimentTable:
    variant = "b (18 ns/B compute)" if compute_ns_per_byte else "a (no compute)"
    columns = ["fraction_complete"]
    for proto in ("SocketVIA", "TCP"):
        for parts in partitions:
            label = "none" if parts == 1 else str(parts)
            columns.append(f"{proto}_p{label}")
    return ExperimentTable(
        f"fig9{'b' if compute_ns_per_byte else 'a'}",
        f"Avg response time (ms) vs fraction of complete updates — {variant}",
        columns,
    )


def fig9_cell(fraction: float, protocol: str, partitions: int,
              compute_ns_per_byte: float, n_queries: int, seed: int) -> float:
    """Point: mean response time (ms) of one (mix, protocol, partitioning)."""
    import numpy as np

    block = PAPER_IMAGE_BYTES // partitions
    cfg = VizServerConfig(
        protocol=protocol,
        block_bytes=block,
        compute_ns_per_byte=compute_ns_per_byte,
        closed_loop=True,
    )
    rng = np.random.default_rng(seed)
    workload = mixed_query_workload(
        cfg.dataset(), n_queries, fraction, rng, exact=True
    )
    res = run_vizserver(cfg, workload)
    return float(res.latency("any").mean * 1e3)


def fig9_query_mix(
    compute_ns_per_byte: float = 0.0,
    fractions=None,
    partitions=(1, 8, 64),
    n_queries: int = 10,
    seed: int = 31,
) -> ExperimentTable:
    """Figure 9: average query response time (ms) vs the fraction of
    complete-update queries, for several dataset partitionings.

    Partitioning 1 = "No Partitions" (every query fetches the whole
    16 MB image); zoom queries need 4 chunks when partitioned.
    """
    fractions = fractions or FIG9_FRACTIONS
    table = _fig9_table(compute_ns_per_byte, partitions)
    for frac in fractions:
        row = [frac]
        for proto in ("socketvia", "tcp"):
            for parts in partitions:
                row.append(fig9_cell(frac, proto, parts,
                                     compute_ns_per_byte, n_queries, seed))
        table.add_row(*row)
    table.add_note(_FIG9_NOTE)
    return table


def fig9_points(
    compute_ns_per_byte: float = 0.0,
    fractions=None,
    partitions=(1, 8, 64),
    n_queries: int = 10,
    seed: int = 31,
) -> PointPlan:
    """Figure 9 as one point per (mix fraction, protocol, partitioning)."""
    fractions = [float(f) for f in (fractions or FIG9_FRACTIONS)]
    partitions = tuple(int(p) for p in partitions)
    figure = "9b" if compute_ns_per_byte else "9a"
    points = [
        Point(figure, "fig9_cell",
              {"fraction": frac, "protocol": proto, "partitions": parts,
               "compute_ns_per_byte": float(compute_ns_per_byte),
               "n_queries": int(n_queries), "seed": int(seed)})
        for frac in fractions
        for proto in ("socketvia", "tcp")
        for parts in partitions
    ]
    per_row = 2 * len(partitions)

    def merge(values: List[Any]) -> ExperimentTable:
        table = _fig9_table(compute_ns_per_byte, partitions)
        for i, frac in enumerate(fractions):
            table.add_row(frac, *values[i * per_row:(i + 1) * per_row])
        table.add_note(_FIG9_NOTE)
        return table

    return PointPlan(figure, points, merge)


# ---------------------------------------------------------------------------
# Figure 10: round-robin reaction time vs heterogeneity factor
# ---------------------------------------------------------------------------


_FIG10_NOTE = "paper: SocketVIA reacts ~8x faster (16 KB vs 2 KB blocks)"


def _fig10_table() -> ExperimentTable:
    return ExperimentTable(
        "fig10",
        "Load-balancer reaction time (us) to heterogeneity — Round-Robin",
        ["factor", "SocketVIA", "TCP", "ratio_tcp_over_sv"],
    )


def fig10_cell(factor: int, protocol: str, total_bytes: int,
               compute_ns_per_byte: float) -> float:
    """Point: RR reaction time (us) of one (factor, protocol) pair."""
    cfg = LoadBalanceConfig(
        protocol=protocol,
        policy="rr",
        block_bytes=paper_block_size(protocol),
        total_bytes=total_bytes,
        compute_ns_per_byte=compute_ns_per_byte,
        slow_workers={_SLOW_INDEX: StaticSlowdown(factor)},
    )
    res = run_loadbalance(cfg)
    return float(to_usec(res.reaction_time(_SLOW_INDEX)))


def fig10_rr_reaction(
    factors=None,
    total_bytes: int = PAPER_IMAGE_BYTES // 2,
    compute_ns_per_byte: float = 90.0,
) -> ExperimentTable:
    """Figure 10: how long the RR balancer stays committed to a slow
    node, vs the factor of heterogeneity.  Blocks: 16 KB (TCP) / 2 KB
    (SocketVIA) — the perfect-pipelining sizes.

    Worker computation defaults to 90 ns/byte (the Figure 10/11 workers
    process each block several times — also the paper's slowdown
    emulation mechanism) so that both transports are compute-bound and
    the reaction time reflects block processing, not the balancer's own
    send path.
    """
    factors = factors or FIG10_FACTORS
    table = _fig10_table()
    for factor in factors:
        reactions = {
            proto: fig10_cell(factor, proto, total_bytes, compute_ns_per_byte)
            for proto in ("socketvia", "tcp")
        }
        table.add_row(
            factor,
            reactions["socketvia"],
            reactions["tcp"],
            ratio(reactions["tcp"], reactions["socketvia"]),
        )
    table.add_note(_FIG10_NOTE)
    return table


def fig10_points(
    factors=None,
    total_bytes: int = PAPER_IMAGE_BYTES // 2,
    compute_ns_per_byte: float = 90.0,
) -> PointPlan:
    """Figure 10 as one point per (factor, protocol) pair."""
    factors = [int(f) for f in (factors or FIG10_FACTORS)]
    points = [
        Point("10", "fig10_cell",
              {"factor": factor, "protocol": proto,
               "total_bytes": int(total_bytes),
               "compute_ns_per_byte": float(compute_ns_per_byte)})
        for factor in factors
        for proto in ("socketvia", "tcp")
    ]

    def merge(values: List[Any]) -> ExperimentTable:
        table = _fig10_table()
        for i, factor in enumerate(factors):
            sv, tcp = values[2 * i], values[2 * i + 1]
            table.add_row(factor, sv, tcp, ratio(tcp, sv))
        table.add_note(_FIG10_NOTE)
        return table

    return PointPlan("10", points, merge)


# ---------------------------------------------------------------------------
# Figure 11: demand-driven scheduling under dynamic slowdown
# ---------------------------------------------------------------------------


_FIG11_NOTE = (
    "paper: TCP tracks SocketVIA closely under DD; time rises with "
    "P(slow) and the heterogeneity factor"
)


def _fig11_table(factors) -> ExperimentTable:
    columns = ["prob_slow_pct"]
    for proto in ("SocketVIA", "TCP"):
        for f in factors:
            columns.append(f"{proto}({f})")
    return ExperimentTable(
        "fig11",
        "Execution time (us) under Demand-Driven scheduling, one dynamically slow node",
        columns,
    )


def fig11_cell(prob: float, factor: int, protocol: str, total_bytes: int,
               compute_ns_per_byte: float) -> float:
    """Point: DD execution time (us) with one dynamically slow node."""
    cfg = LoadBalanceConfig(
        protocol=protocol,
        policy="dd",
        block_bytes=paper_block_size(protocol),
        total_bytes=total_bytes,
        compute_ns_per_byte=compute_ns_per_byte,
        slow_workers={_SLOW_INDEX: RandomSlowdown(factor, prob)},
    )
    res = run_loadbalance(cfg)
    return float(to_usec(res.execution_time))


def fig11_dd_heterogeneity(
    probabilities=None,
    factors=None,
    total_bytes: int = PAPER_IMAGE_BYTES // 2,
    compute_ns_per_byte: float = 90.0,
) -> ExperimentTable:
    """Figure 11: execution time under demand-driven scheduling when one
    node is slow with a given probability per block.

    Defaults process half an image at 90 ns/byte (the workers do the
    visualization work repeatedly per block, see DESIGN.md) so that the
    system is compute-bound for both transports — the regime where the
    paper observes "application performance using TCP is close to that
    of SocketVIA".
    """
    probabilities = probabilities or FIG11_PROBABILITIES
    factors = factors or FIG11_FACTORS
    table = _fig11_table(factors)
    for prob in probabilities:
        row = [int(prob * 100)]
        for proto in ("socketvia", "tcp"):
            for factor in factors:
                row.append(fig11_cell(prob, factor, proto, total_bytes,
                                      compute_ns_per_byte))
        table.add_row(*row)
    table.add_note(_FIG11_NOTE)
    return table


def fig11_points(
    probabilities=None,
    factors=None,
    total_bytes: int = PAPER_IMAGE_BYTES // 2,
    compute_ns_per_byte: float = 90.0,
) -> PointPlan:
    """Figure 11 as one point per (probability, protocol, factor) cell."""
    probabilities = [float(p) for p in (probabilities or FIG11_PROBABILITIES)]
    factors = [int(f) for f in (factors or FIG11_FACTORS)]
    points = [
        Point("11", "fig11_cell",
              {"prob": prob, "factor": factor, "protocol": proto,
               "total_bytes": int(total_bytes),
               "compute_ns_per_byte": float(compute_ns_per_byte)})
        for prob in probabilities
        for proto in ("socketvia", "tcp")
        for factor in factors
    ]
    per_row = 2 * len(factors)

    def merge(values: List[Any]) -> ExperimentTable:
        table = _fig11_table(factors)
        for i, prob in enumerate(probabilities):
            table.add_row(int(prob * 100),
                          *values[i * per_row:(i + 1) * per_row])
        table.add_note(_FIG11_NOTE)
        return table

    return PointPlan("11", points, merge)


# ---------------------------------------------------------------------------
# Chaos suite: Figures 8 and 11 re-measured under calibrated fault plans
# ---------------------------------------------------------------------------
#
# Not a paper figure: the chaos panels re-run two representative
# experiments under the named fault plans in ``repro.faults.presets``
# and place faulted and fault-free legs side by side, so the committed
# baseline records how much performance fault injection costs and that
# the resilience machinery (graceful degradation, crash replay) keeps
# every run terminating.  Fault-free legs reuse the plain Figure 8/11
# point functions with identical params, so they share cache entries
# with the ``fig08``/``fig11`` suites; chaos legs carry their plan as a
# ``fault_plan`` param — the plan is part of the point's content, hence
# part of its cache key.


#: Chaos Figure 8 leg: latency bounds re-measured under chaos-fig8.
CHAOS8_BOUNDS_US = [1000, 400, 200]
#: Chaos Figure 11 leg: P(slow) axis, heterogeneity factor fixed at 4.
CHAOS11_PROBABILITIES = [0.1, 0.5, 0.9]
CHAOS11_FACTOR = 4

_CHAOS8_NOTE = (
    "chaos-fig8 plan: viz sink's cLAN receive side flaps 30 ms of every "
    "100 ms; clip host node04 computes 8x slower throughout (DD routes "
    "around it) — expect a bounded update-rate loss, not a collapse"
)
_CHAOS11_NOTE = (
    "chaos-fig11 plan: worker01 crashes at 10 ms and restarts at 30 ms; "
    "DD reroutes around the dead copy and its deferred blocks replay at "
    "restart — every block is still processed"
)


def _plan_dict(preset_name: str) -> Dict[str, Any]:
    from repro.faults import get_preset

    return get_preset(preset_name).to_dict()


def chaos8_rate(protocol: str, block: int, compute_ns_per_byte: float,
                frames: int, fault_plan: Dict[str, Any]) -> float:
    """Point: :func:`fig8_rate` measured under an injected fault plan."""
    from repro.faults import FaultPlan, injecting

    with injecting(FaultPlan.from_dict(fault_plan)):
        return fig8_rate(protocol, block, compute_ns_per_byte, frames)


def chaos11_cell(prob: float, factor: int, protocol: str, total_bytes: int,
                 compute_ns_per_byte: float,
                 fault_plan: Dict[str, Any]) -> List[float]:
    """Point: :func:`fig11_cell` under an injected fault plan.

    Returns ``[execution_time_us, crashed_share, peer_share]``:
    ``crashed_share`` is the fraction of all blocks the plan's crashed
    worker(s) processed, ``peer_share`` the per-worker average of the
    healthy workers that are neither crashed nor the figure's slow
    node.  Crashed and peer workers gain from worker-``_SLOW_INDEX``'s
    slowness symmetrically, so the crash shows as ``crashed_share <
    peer_share`` at every P(slow) — a comparison against the fair share
    1/n would drown in the slow-node effect on long runs.
    """
    from repro.faults import FaultPlan, injecting

    plan = FaultPlan.from_dict(fault_plan)
    cfg = LoadBalanceConfig(
        protocol=protocol,
        policy="dd",
        block_bytes=paper_block_size(protocol),
        total_bytes=total_bytes,
        compute_ns_per_byte=compute_ns_per_byte,
        slow_workers={_SLOW_INDEX: RandomSlowdown(factor, prob)},
    )
    with injecting(plan):
        res = run_loadbalance(cfg)
    crashed_idx = [
        int(name[len("worker"):])
        for name, hf in plan.hosts.items()
        if hf.crash_at is not None and name.startswith("worker")
    ]
    peer_idx = [
        i for i in range(len(res.sent_counts))
        if i not in crashed_idx and i != _SLOW_INDEX
    ]
    total = sum(res.sent_counts)
    crashed = sum(res.sent_counts[i] for i in crashed_idx)
    peer = sum(res.sent_counts[i] for i in peer_idx)
    return [
        float(to_usec(res.execution_time)),
        crashed / total if total else 0.0,
        peer / (len(peer_idx) * total) if total and peer_idx else 0.0,
    ]


def _chaos8_table() -> ExperimentTable:
    return ExperimentTable(
        "c8",
        "Figure 8 updates/s (18 ns/B) — fault-free vs the chaos-fig8 plan",
        ["latency_us", "tcp_block", "TCP", "TCP_chaos",
         "sv_block", "SocketVIA", "SocketVIA_chaos"],
    )


def _chaos11_table() -> ExperimentTable:
    return ExperimentTable(
        "c11",
        "Figure 11 DD execution time (us), factor 4 — fault-free vs the "
        "chaos-fig11 plan",
        ["prob_slow_pct",
         "SocketVIA", "SocketVIA_chaos", "sv_crashed_share", "sv_peer_share",
         "TCP", "TCP_chaos", "tcp_crashed_share", "tcp_peer_share"],
    )


def chaos8_update_rate(
    compute_ns_per_byte: float = 18.0,
    bounds_us=None,
    frames: int = 3,
) -> ExperimentTable:
    """Chaos panel c8: Figure 8 updates/s, fault-free next to the
    chaos-fig8 plan, per latency bound."""
    bounds_us = bounds_us or CHAOS8_BOUNDS_US
    plan_dict = _plan_dict("chaos-fig8")
    table = _chaos8_table()

    cache = {}

    def rate_for(protocol, block, chaos):
        key = (protocol, block, chaos)
        if key not in cache:
            if chaos:
                cache[key] = chaos8_rate(protocol, block,
                                         compute_ns_per_byte, frames,
                                         plan_dict)
            else:
                cache[key] = fig8_rate(protocol, block,
                                       compute_ns_per_byte, frames)
        return cache[key]

    for bound, b_tcp, b_sv in _fig8_blocks(compute_ns_per_byte, bounds_us):
        table.add_row(
            bound, b_tcp,
            rate_for("tcp", b_tcp, False) if b_tcp else None,
            rate_for("tcp", b_tcp, True) if b_tcp else None,
            b_sv,
            rate_for("socketvia", b_sv, False) if b_sv else None,
            rate_for("socketvia", b_sv, True) if b_sv else None)
    table.add_note(_CHAOS8_NOTE)
    return table


def chaos8_points(
    compute_ns_per_byte: float = 18.0,
    bounds_us=None,
    frames: int = 3,
) -> PointPlan:
    """Panel c8 as points; fault-free legs are plain Figure 8 points
    (same fn, figure, and params — shared cache entries)."""
    bounds_us = [int(b) for b in (bounds_us or CHAOS8_BOUNDS_US)]
    plan_dict = _plan_dict("chaos-fig8")
    base_figure = "8b" if compute_ns_per_byte else "8a"
    blocks = _fig8_blocks(compute_ns_per_byte, bounds_us)
    triples: List[tuple] = []
    for _, b_tcp, b_sv in blocks:
        for protocol, block in (("tcp", b_tcp), ("socketvia", b_sv)):
            if block:
                for chaos in (False, True):
                    if (protocol, block, chaos) not in triples:
                        triples.append((protocol, block, chaos))
    points = []
    for protocol, block, chaos in triples:
        params = {"protocol": protocol, "block": int(block),
                  "compute_ns_per_byte": float(compute_ns_per_byte),
                  "frames": int(frames)}
        if chaos:
            points.append(Point("c8", "chaos8_rate",
                                {**params, "fault_plan": plan_dict}))
        else:
            points.append(Point(base_figure, "fig8_rate", params))

    def merge(values: List[Any]) -> ExperimentTable:
        rate = dict(zip(triples, values))
        table = _chaos8_table()
        for bound, b_tcp, b_sv in blocks:
            table.add_row(
                bound, b_tcp,
                rate[("tcp", b_tcp, False)] if b_tcp else None,
                rate[("tcp", b_tcp, True)] if b_tcp else None,
                b_sv,
                rate[("socketvia", b_sv, False)] if b_sv else None,
                rate[("socketvia", b_sv, True)] if b_sv else None)
        table.add_note(_CHAOS8_NOTE)
        return table

    return PointPlan("c8", points, merge)


def chaos11_crash_recovery(
    probabilities=None,
    factor: int = CHAOS11_FACTOR,
    total_bytes: int = PAPER_IMAGE_BYTES // 2,
    compute_ns_per_byte: float = 90.0,
) -> ExperimentTable:
    """Chaos panel c11: Figure 11's DD sweep, fault-free next to the
    chaos-fig11 plan (worker crash + restart mid-run)."""
    probabilities = probabilities or CHAOS11_PROBABILITIES
    plan_dict = _plan_dict("chaos-fig11")
    table = _chaos11_table()
    for prob in probabilities:
        row = [int(prob * 100)]
        for proto in ("socketvia", "tcp"):
            base = fig11_cell(prob, factor, proto, total_bytes,
                              compute_ns_per_byte)
            chaos = chaos11_cell(prob, factor, proto, total_bytes,
                                 compute_ns_per_byte, plan_dict)
            row += [base, chaos[0], chaos[1], chaos[2]]
        table.add_row(*row)
    table.add_note(_CHAOS11_NOTE)
    return table


def chaos11_points(
    probabilities=None,
    factor: int = CHAOS11_FACTOR,
    total_bytes: int = PAPER_IMAGE_BYTES // 2,
    compute_ns_per_byte: float = 90.0,
) -> PointPlan:
    """Panel c11 as points; fault-free legs are plain Figure 11 points."""
    probabilities = [float(p)
                     for p in (probabilities or CHAOS11_PROBABILITIES)]
    factor = int(factor)
    plan_dict = _plan_dict("chaos-fig11")
    points = []
    for prob in probabilities:
        for proto in ("socketvia", "tcp"):
            params = {"prob": prob, "factor": factor, "protocol": proto,
                      "total_bytes": int(total_bytes),
                      "compute_ns_per_byte": float(compute_ns_per_byte)}
            points.append(Point("11", "fig11_cell", params))
            points.append(Point("c11", "chaos11_cell",
                                {**params, "fault_plan": plan_dict}))

    def merge(values: List[Any]) -> ExperimentTable:
        table = _chaos11_table()
        it = iter(values)
        for prob in probabilities:
            row = [int(prob * 100)]
            for _proto in ("socketvia", "tcp"):
                base = next(it)
                chaos = next(it)
                row += [base, chaos[0], chaos[1], chaos[2]]
            table.add_row(*row)
        table.add_note(_CHAOS11_NOTE)
        return table

    return PointPlan("c11", points, merge)


#: Registry of pure point functions, keyed by the name stored in each
#: :class:`~repro.bench.executor.Point` — the unit a process-pool task
#: executes and a cache entry is addressed by.  Names are part of the
#: cache key: renaming one orphans its entries (harmless; they evict).
POINT_FNS: Dict[str, Any] = {
    "fig2_economics": fig2_economics,
    "fig4a_size": fig4a_size,
    "fig4b_size": fig4b_size,
    "fig7_rate": fig7_rate,
    "fig8_rate": fig8_rate,
    "fig9_cell": fig9_cell,
    "fig10_cell": fig10_cell,
    "fig11_cell": fig11_cell,
    "chaos8_rate": chaos8_rate,
    "chaos11_cell": chaos11_cell,
    "serve_cell": serve_cell,
    "serve_scale_cell": serve_scale_cell,
    "serve_shard_cell": serve_shard_cell,
    "wcq_cell": wcq_cell,
    "wcb_cell": wcb_cell,
    "tails_cell": tails_cell,
}
