#!/usr/bin/env python3
"""The repository benchmark: host time, set-up and memory of four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig7a --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fig7a --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` prints the per-layer split from a profiled,
trace-counted pass.  ``--workload all`` runs every workload, each in a
fresh process.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The program's own knobs and caches, cleared so that neither the
#: environment nor a warm result cache changes what is timed.
_PINNED_ENV = ("REPRO_SIM_MODE", "REPRO_SIM_QUEUE", "REPRO_JOBS")
_PINNED_ENV_PREFIX = "REPRO_BENCH_CACHE"


if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: the program's source {SRC / 'repro'} is missing; "
             "run from the root of a full checkout")
for _key in [k for k in os.environ if k in _PINNED_ENV or k.startswith(_PINNED_ENV_PREFIX)]:
    del os.environ[_key]  # child processes inherit the cleared environment
sys.path.insert(0, str(SRC))

from repro.sim.trace import NULL_TRACER, Tracer, default_tracer, set_default_tracer  # noqa: E402

from hostspeed import probe, to_reference  # noqa: E402
from layers import SELF_TIME_LAYERS, TraceCounter, self_seconds, simulator_census  # noqa: E402
from workloads import SEEDED, WORKLOADS, Op, Outcome, build  # noqa: E402

REFERENCE_FILE = HERE / "reference.json"
#: Fresh worker processes per untraced run; each metric is their median.
WORKERS = 4
#: Host seconds the workers of one untraced run may take in all; a worker
#: still running then is killed and counted as a failed op.
WORKERS_DEADLINE_S = 160.0


def host_fingerprint() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def load_reference(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Recorded op digests for *workload* at *seed* (``None`` if unrecorded)."""
    digests = json.loads(REFERENCE_FILE.read_text())["digests"][workload]
    return digests.get(str(seed) if SEEDED[workload] else "any")


class Ledger:
    """Counts operations and checks every output digest.

    An op fails if it raises (a stalled simulation raises
    ``StopSimulation``), breaks an invariant, or produces a digest that
    differs from the reference or from an earlier run of the same op in
    this process — which also holds the traced pass to the untraced one.
    """

    def __init__(self, reference: Optional[Dict[str, str]]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[str, str] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def set_up(self, workload: str, seed: int, scale: float) -> List[Op]:
        """Build *workload*'s ops and prepare each once, untimed.

        A raise in either step is a failed op; the ops that set up cleanly
        are returned, so the run goes on and still prints its result.
        """
        try:
            ops = build(workload, seed, scale)
        except Exception:
            self.attempted += 1
            self.fail(f"{workload}: building the ops\n{traceback.format_exc()}")
            return []
        ready = []
        for op in ops:
            try:
                op.prepare()
            except Exception:
                self.attempted += 1
                self.fail(f"{op.name}: set-up\n{traceback.format_exc()}")
            else:
                ready.append(op)
        return ready

    def execute(self, op: Op, profile: Optional[cProfile.Profile] = None
                ) -> Optional[Tuple[float, Outcome]]:
        """Prepare, simulate (timed, profiled if asked) and verify *op*."""
        self.attempted += 1
        try:
            simulate = op.prepare()
            gc.collect()
            if profile is not None:
                profile.enable()
            t0 = time.perf_counter()
            try:
                result = simulate()
            finally:
                seconds = time.perf_counter() - t0
                if profile is not None:
                    profile.disable()
            outcome = op.verify(result)
        except Exception:
            self.fail(f"{op.name}\n{traceback.format_exc()}")
            return None
        seen = self.digests.setdefault(op.name, outcome.digest)
        if seen != outcome.digest:
            self.fail(f"{op.name}: digest {outcome.digest} differs from "
                      f"an earlier run's {seen}")
            return None
        if self.reference is not None and self.reference.get(op.name) != outcome.digest:
            self.fail(f"{op.name}: digest {outcome.digest} differs from the "
                      f"reference {self.reference.get(op.name)}")
            return None
        return seconds, outcome

    def result(self, metrics: Dict[str, Tuple[float, str]]) -> Dict[str, object]:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def timed_rounds(ops: List[Op], ledger: Ledger, seconds: float
                 ) -> Tuple[float, float, Dict[str, Outcome]]:
    """Run rounds of *ops* for *seconds* (at least one round), with a
    host-speed probe before each op.

    Returns the round time in host seconds — the sum over ops of each
    op's fastest run — the median probe time, and each op's outcome.
    Minima, not medians, for the ops: interference from other tenants
    only ever slows an op, so its fastest run is the one the host
    disturbed least (see README.md).
    """
    if default_tracer() is not NULL_TRACER:
        raise RuntimeError("a default tracer is installed; timed runs must be untraced")
    if not ops:  # every op failed to set up: nothing to time
        return 0.0, probe(), {}
    times: Dict[str, List[float]] = {op.name: [] for op in ops}
    outcomes: Dict[str, Outcome] = {}
    probes: List[float] = []
    start = time.perf_counter()
    last_round = 0.0
    while not outcomes or time.perf_counter() - start + last_round <= seconds:
        round_start = time.perf_counter()
        for op in ops:
            probes.append(probe())
            done = ledger.execute(op)
            if done is not None:
                times[op.name].append(done[0])
                outcomes[op.name] = done[1]
        last_round = time.perf_counter() - round_start
        if not outcomes:  # every op failed: nothing to time
            break
    wall = sum(min(t) for t in times.values() if t)
    return wall, statistics.median(probes), outcomes


def run_untraced(workload: str, seed: int, seconds: float, scale: float = 1.0
                 ) -> Dict[str, object]:
    """The end-to-end metrics of *workload*, tracing off.

    :data:`WORKERS` fresh processes (``worker.py``) run one after another,
    each setting up once and timing rounds for an equal share of
    *seconds*.  Times are scaled to reference seconds by each worker's
    own probe, and every metric is the median over the workers: one
    process is one sample of the host's speed, which drifts by tens of
    percent from one process to the next.
    """
    ledger = Ledger(None)
    reports = []
    deadline = time.monotonic() + WORKERS_DEADLINE_S
    for _ in range(WORKERS):
        try:
            out = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), workload, str(seed),
                 repr(seconds / WORKERS), repr(scale)],
                capture_output=True, text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                raise RuntimeError(f"exit code {out.returncode}")
            reports.append(json.loads(out.stdout.splitlines()[-1]))
        except Exception as exc:  # includes a timeout, after which it is killed
            ledger.attempted += 1
            ledger.fail(f"{workload}: worker process failed: {exc!r}")
    ledger.attempted += sum(r["attempted"] for r in reports)
    ledger.failed += sum(r["failed"] for r in reports)
    for name in {name for r in reports for name in r["digests"]}:
        if len({r["digests"][name] for r in reports if name in r["digests"]}) > 1:
            ledger.fail(f"{name}: output digests differ between worker processes")

    # Each metric is 0 when no worker reported; the result is then incorrect.
    def median_of(key: str) -> float:
        return statistics.median([to_reference(r[key], r["probe_s"]) for r in reports] or [0.0])

    wall = median_of("wall_s")
    return ledger.result({
        "wall_s": (wall, "s"),
        "units_per_s": (reports[0]["units"] / wall if wall else 0.0, "1/s"),
        "setup_s": (median_of("setup_s"), "s"),
        "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in reports] or [0.0]), "MB"),
        "anchor_err_pct": (max([r["anchor_err_pct"] for r in reports] or [0.0]), "%"),
    })


@dataclass
class TracedRound:
    """What one profiled, trace-counted round of a workload measured."""

    wall: float
    outcomes: List[Outcome]
    profile: cProfile.Profile
    counter: TraceCounter
    kernel: Dict[str, int]


def traced_round(ops: List[Op], ledger: Ledger) -> TracedRound:
    """Run each op once under ``cProfile`` with a counting tracer installed
    as the default (so the clusters the ops build adopt it), and read the
    kernel counters of every simulator the ops construct."""
    tracer = Tracer()
    counter = TraceCounter()
    tracer.subscribe("", counter)
    traced = TracedRound(0.0, [], cProfile.Profile(), counter,
                         {"events": 0, "heap_peak": 0, "pool_hits": 0, "compactions": 0})
    kernel = traced.kernel
    previous = set_default_tracer(tracer)
    try:
        with simulator_census() as sims:
            for op in ops:
                done = ledger.execute(op, traced.profile)
                if done is not None:
                    traced.wall += done[0]
                    traced.outcomes.append(done[1])
                for sim in sims:
                    kernel["events"] += sim.events_processed
                    kernel["heap_peak"] = max(kernel["heap_peak"], sim.heap_peak)
                    kernel["pool_hits"] += sim.pool_hits
                    kernel["compactions"] += sim.compactions
                sims.clear()
    finally:
        set_default_tracer(previous)
    return traced


def _ratio(num: int, den: int) -> float:
    """A useful-work ratio; 1 where the workload has no such stage."""
    return num / den if den else 1.0


def run_traced(workload: str, seed: int, seconds: float, scale: float = 1.0,
               reference: Optional[Dict[str, str]] = None) -> Dict[str, object]:
    """The per-layer metrics of *workload*: an untraced baseline for
    *seconds*, then one traced round, whose digests must equal the
    baseline's."""
    ledger = Ledger(reference)
    ops = ledger.set_up(workload, seed, scale)
    untraced_wall, probe_s, _ = timed_rounds(ops, ledger, seconds)
    traced = traced_round(ops, ledger)
    self_s = self_seconds(traced.profile)
    kinds, sizes, outcomes = traced.counter.kinds, traced.counter.sizes, traced.outcomes
    events = traced.kernel["events"]
    metrics: Dict[str, Tuple[float, str]] = {
        f"{layer}.self_s": (self_s[layer], "s") for layer in SELF_TIME_LAYERS
    }
    metrics.update({
        "sim.events": (events, "count"),
        "sim.host_ns_per_event": (
            to_reference(untraced_wall, probe_s) / events * 1e9 if events else 0.0, "ns"),
        "sim.pool_hits": (traced.kernel["pool_hits"], "count"),
        "sim.compactions": (traced.kernel["compactions"], "count"),
        "sim.heap_peak": (traced.kernel["heap_peak"], "count"),
        "trace.overhead_x": (traced.wall / untraced_wall if untraced_wall else 0.0, "x"),
        "cluster.link_tx": (kinds["cluster.link"], "count"),
        "cluster.link_bytes": (sizes["cluster.link"], "B"),
        "via.doorbells": (kinds["via.doorbell"], "count"),
        "via.credits": (kinds["via.credit"], "count"),
        "sockets.sends": (kinds["sockets.send"], "count"),
        "sockets.recv_bytes": (sizes["sockets.recv"], "B"),
        "tcp.segments": (kinds["tcp.segment"], "count"),
        "tcp.kernel_ops": (kinds["tcp.kernel"], "count"),
        "datacutter.uows": (traced.counter.uows, "count"),
        "faults.events": (traced.counter.prefixed("faults."), "count"),
        "apps.admit_ratio": (_ratio(sum(o.admitted for o in outcomes),
                                    sum(o.offered for o in outcomes)), "ratio"),
        "apps.useful_ratio": (_ratio(sum(o.useful for o in outcomes),
                                     sum(o.dispatched for o in outcomes)), "ratio"),
    })
    return ledger.result(metrics)


def render(result: Dict[str, object]) -> str:
    """Human-readable metric table (self times with their share)."""
    metrics = result["metrics"]
    profiled = sum(m["value"] for k, m in metrics.items() if k.endswith(".self_s"))
    lines = []
    for name, m in metrics.items():
        share = ""
        if name.endswith(".self_s") and profiled:
            share = f"  ({100 * m['value'] / profiled:5.1f}% of profiled)"
        lines.append(f"  {name:26s} {m['value']:>16.6g} {m['unit']}{share}")
    lines.append(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    return "\n".join(lines)


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited with {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    reference = load_reference(args.workload, args.seed)
    if args.trace:
        result = run_traced(args.workload, args.seed, args.seconds, reference=reference)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"reference {'checked' if reference else 'not recorded for this seed'}")
    print(f"host {json.dumps(host_fingerprint())}")
    print(render(result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
