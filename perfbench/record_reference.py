"""Record the reference output digests the benchmark checks against.

Usage: ``python3 perfbench/record_reference.py``.  Runs one round of
every workload for seeds ``0 .. REFERENCE_SEEDS-1`` (once for
``pingpong``, whose inputs ignore the seed) at full size, on two worker
processes, and writes ``reference.json``.  Re-record only when a change
is meant to alter the simulated outputs, and say so in the change.
"""

import json
from multiprocessing import get_context

from run import REFERENCE_FILE
from workloads import SEEDED, WORKLOADS, build

#: Seeds ``0 .. REFERENCE_SEEDS-1`` get reference digests.
REFERENCE_SEEDS = 100


def digests(workload: str, seed: int) -> dict:
    return {op.name: op.verify(op.prepare()()).digest for op in build(workload, seed)}


def main() -> None:
    jobs = [
        (workload, seed)
        for workload in WORKLOADS
        for seed in (range(REFERENCE_SEEDS) if SEEDED[workload] else [0])
    ]
    with get_context("spawn").Pool(2) as pool:
        recorded = pool.starmap(digests, jobs)
    table = {workload: {} for workload in WORKLOADS}
    for (workload, seed), ops in zip(jobs, recorded):
        table[workload][str(seed) if SEEDED[workload] else "any"] = ops
    REFERENCE_FILE.write_text(json.dumps({"digests": table}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
