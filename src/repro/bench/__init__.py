"""The measurement layer: benchmarks, baselines, and generated docs.

Submodules
----------
``figures`` / ``microbench``
    The experiment drivers — one function per paper figure, plus the
    ``*_points()`` sweep decompositions the executor runs.
``suites``
    What the harness runs and how a run is judged (anchors, claims).
``executor`` / ``cache``
    The point-sweep executor: serial or process-pool fan-out over pure
    figure points, with a content-addressed on-disk result cache.
``runner`` / ``schema`` / ``baselines``
    Execute a suite, capture it as a schema-versioned
    ``BENCH_<experiment>.json`` record, and manage the committed
    baselines under ``benchmarks/baselines/``.
``comparator``
    Regression gate: diff a run against its baseline with tolerance
    bands (``pass``/``warn``/``fail``).
``report``
    Regenerate ``docs/EXPERIMENTS_GENERATED.md`` and the marked tables
    in ``EXPERIMENTS.md`` from the committed records.

The CLI front end is ``python -m repro bench run|compare|report|list``;
the pytest benchmarks under ``benchmarks/`` are thin adapters over the
same suites.

The package re-exports nothing: import the submodule you need
(``from repro.bench.runner import run_experiment``), so that loading
one driver does not also load the sweep harness.
"""
