"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Workloads run at a tiny size (``TINY``), for which no reference digests
are recorded, so these tests exercise the invariant, determinism and
traced-equals-untraced checks rather than the reference match.
"""

import dataclasses
import json
import re

import pytest

import run
import worker
from workloads import WORKLOADS, build

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TINY = 0.05
SEED = 7


@pytest.fixture(scope="module")
def results():
    """Each workload once untraced and once traced, at the tiny size."""
    return {
        (workload, trace): (run.run_traced if trace else run.run_untraced)(
            workload, SEED, 0.0, scale=TINY)
        for workload in WORKLOADS
        for trace in (0, 1)
    }


def test_spec_follows_the_grammar():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed(results, workload, trace, kind):
    result = results[(workload, trace)]
    line = json.loads(json.dumps(result))  # what the last stdout line carries
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: m["unit"] for k, m in line["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    table = run.render(result)
    assert all(name in table for name in expected)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(results, workload):
    assert all(m["value"] > 0 for m in results[(workload, 0)]["metrics"].values())


def test_wrong_reference_digest_counts_as_failed():
    ops = build("tails", SEED, TINY)
    ledger = run.Ledger({op.name: "0" * 64 for op in ops})
    assert ledger.execute(ops[0]) is None
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert not ledger.result({})["correct"]


def test_changed_output_counts_as_failed():
    ops = build("tails", SEED, TINY)
    ledger = run.Ledger(None)
    ledger.digests[ops[0].name] = "0" * 64  # as if an earlier run differed
    assert ledger.execute(ops[0]) is None and ledger.failed == 1


def _raise():
    raise RuntimeError("topology build failed")


def test_setup_failure_counts_as_failed(monkeypatch):
    ops = build("tails", SEED, TINY)
    ops[0] = dataclasses.replace(ops[0], prepare=_raise)
    monkeypatch.setattr(run, "build", lambda *args: ops)
    report = worker.measure("tails", SEED, 0.0, TINY)
    # the broken set-up, one run of the other op, and the Fig 4 anchors
    assert (report["attempted"], report["failed"]) == (3, 1)
    assert set(report["digests"]) == {ops[1].name}
    json.dumps(report)  # the worker still prints its line


def test_failed_build_still_prints_every_metric(monkeypatch):
    def broken_build(*args):
        raise RuntimeError("no inputs")

    monkeypatch.setattr(run, "build", broken_build)
    result = run.run_traced("tails", SEED, 0.0, scale=TINY)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_crashed_worker_counts_as_failed():
    # A seed the worker cannot parse makes every worker exit with an error.
    result = run.run_untraced("tails", "not-a-seed", 0.0, scale=TINY)
    assert (result["correct"], result["attempted"]) == (False, run.WORKERS)
    assert result["failed"] == run.WORKERS
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    json.dumps(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_digests_equal_untraced(workload):
    ops = build(workload, SEED, TINY)
    untraced, traced = run.Ledger(None), run.Ledger(None)
    run.timed_rounds(ops, untraced, 0.0)
    run.traced_round(ops, traced)
    assert untraced.failed == traced.failed == 0
    assert traced.digests == untraced.digests


def test_traced_counts_repeat_exactly(results):
    again = run.run_traced("tails", SEED, 0.0, scale=TINY)["metrics"]
    first = results[("tails", 1)]["metrics"]
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B", "ratio")]
    assert {k: first[k] for k in exact} == {k: again[k] for k in exact}


def test_layer_counts_follow_the_workload(results):
    counts = {w: results[(w, 1)]["metrics"] for w in WORKLOADS}
    assert counts["pingpong"]["datacutter.uows"]["value"] == 0
    for workload in ("fig7a", "serve", "pingpong"):
        assert counts[workload]["faults.events"]["value"] == 0
    assert counts["tails"]["faults.events"]["value"] > 0
    assert counts["fig7a"]["datacutter.uows"]["value"] > 0
    assert counts["serve"]["apps.admit_ratio"]["value"] <= 1.0
    assert counts["tails"]["apps.useful_ratio"]["value"] < 1.0


def test_reference_covers_every_workload():
    digests = json.loads(run.REFERENCE_FILE.read_text())["digests"]
    assert set(digests) == set(WORKLOADS)
    assert set(digests["pingpong"]) == {"any"}
    for workload in WORKLOADS:
        recorded = digests[workload]["any" if workload == "pingpong" else "0"]
        assert set(recorded) == {op.name for op in build(workload, 0)}
