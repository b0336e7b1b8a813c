"""One fresh-process measurement of a workload, tracing off.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED SECONDS SCALE``.

The set-up clock starts before the program is imported.  It stops when
every op of one round is prepared: package import, topology build,
filter-group instantiation and input generation, just before the first
simulated event; an op whose set-up raises is a failed op, and the
worker goes on without it.  Then come timed rounds for SECONDS and the
Fig 4 anchor check.  The worker prints one JSON line of raw host measurements
and its median host-speed probe; ``run.py`` starts several workers,
scales each one's times by its probe and combines their lines.
"""

import sys
import time

t0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import run  # noqa: E402  (imports the program: part of set-up)
from workloads import anchor_err_pct  # noqa: E402


def measure(workload: str, seed: int, seconds: float, scale: float) -> dict:
    ledger = run.Ledger(None)
    ops = ledger.set_up(workload, seed, scale)
    setup = time.perf_counter() - t0
    if scale == 1.0:
        ledger.reference = run.load_reference(workload, seed)
    wall, probe_s, outcomes = run.timed_rounds(ops, ledger, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ledger.attempted += 1
    try:
        anchor = anchor_err_pct()
    except Exception:
        ledger.fail(f"fig4 anchors\n{traceback.format_exc()}")
        anchor = -1.0
    return {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "digests": ledger.digests,
        "setup_s": setup,
        "wall_s": wall,
        "probe_s": probe_s,
        "units": sum(o.units for o in outcomes.values()),
        "peak_rss_mb": peak_rss_mb,
        "anchor_err_pct": anchor,
    }


if __name__ == "__main__":
    print(json.dumps(measure(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]),
                             float(sys.argv[4]))))
