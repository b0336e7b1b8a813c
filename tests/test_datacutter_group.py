"""Unit tests for filter-group construction, validation, placement,
buffers and write schedulers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datacutter import (
    DataBuffer,
    DemandDrivenScheduler,
    Filter,
    FilterGroup,
    RoundRobinScheduler,
    make_scheduler,
)
from repro.errors import DataCutterError, FilterGraphError, PlacementError
from repro.sim import Simulator


class Dummy(Filter):
    def process(self, ctx):
        yield ctx.sim.timeout(0)


def linear_group(policy="dd"):
    g = FilterGroup("g", default_policy=policy)
    g.add_filter("a", Dummy, copies=2)
    g.add_filter("b", Dummy, copies=3)
    g.connect("s", "a", "b")
    return g


class TestDataBuffer:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DataBuffer(size=-1)

    def test_with_size_derives_meta(self):
        buf = DataBuffer(size=100, uow_id=7, meta={"chunk": 3})
        out = buf.with_size(25, stage="subsampled")
        assert out.size == 25
        assert out.uow_id == 7
        assert out.meta == {"chunk": 3, "stage": "subsampled"}
        assert buf.meta == {"chunk": 3}  # original untouched

    def test_buffer_ids_unique(self):
        assert DataBuffer(size=1).buffer_id != DataBuffer(size=1).buffer_id


class TestFilterGroupValidation:
    def test_valid_linear_group(self):
        linear_group().validate()

    def test_duplicate_filter(self):
        g = FilterGroup("g")
        g.add_filter("a", Dummy)
        with pytest.raises(FilterGraphError):
            g.add_filter("a", Dummy)

    def test_duplicate_stream(self):
        g = linear_group()
        with pytest.raises(FilterGraphError):
            g.connect("s", "a", "b")

    def test_unknown_endpoint(self):
        g = FilterGroup("g")
        g.add_filter("a", Dummy)
        with pytest.raises(FilterGraphError):
            g.connect("s", "a", "zzz")

    def test_cycle_detected(self):
        g = FilterGroup("g")
        for n in "abc":
            g.add_filter(n, Dummy)
        g.connect("s1", "a", "b")
        g.connect("s2", "b", "c")
        g.connect("s3", "c", "a")
        with pytest.raises(FilterGraphError, match="cycle"):
            g.validate()

    def test_isolated_filter_detected(self):
        g = linear_group()
        g.add_filter("lonely", Dummy)
        with pytest.raises(FilterGraphError, match="lonely"):
            g.validate()

    def test_empty_group(self):
        with pytest.raises(FilterGraphError):
            FilterGroup("g").validate()

    def test_zero_copies_rejected(self):
        g = FilterGroup("g")
        with pytest.raises(FilterGraphError):
            g.add_filter("a", Dummy, copies=0)

    def test_sources_and_sinks(self):
        g = linear_group()
        assert g.sources() == ["a"]
        assert g.sinks() == ["b"]

    def test_policy_inheritance_and_override(self):
        g = FilterGroup("g", default_policy="rr")
        g.add_filter("a", Dummy)
        g.add_filter("b", Dummy, policy="dd")
        assert g.policy_for("a") == "rr"
        assert g.policy_for("b") == "dd"


@st.composite
def filter_graphs(draw, acyclic=True):
    """Filter names in declaration order plus producer -> consumer pairs.

    Filters get a random rank so declaration order is not already a
    topological order; pairs repeat often (duplicate streams), and some
    filters end up with no stream at all.  With ``acyclic`` every pair
    points up the rank order; otherwise pairs are arbitrary, so cycles
    and self-loops appear.
    """
    n = draw(st.integers(1, 8))
    rank = draw(st.permutations(range(n)))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    edges = []
    for i, j in pairs:
        if acyclic:
            if i == j:
                continue
            if rank[i] > rank[j]:
                i, j = j, i
        edges.append((f"f{i}", f"f{j}"))
    return [f"f{k}" for k in range(n)], edges


def group_of(names, edges):
    g = FilterGroup("g")
    for name in names:
        g.add_filter(name, Dummy)
    for k, (producer, consumer) in enumerate(edges):
        g.connect(f"s{k}", producer, consumer)
    return g


def networkx_order(nx, names, edges):
    graph = nx.DiGraph()
    graph.add_nodes_from(names)
    graph.add_edges_from(edges)
    return list(nx.topological_sort(graph))


class TestTopologicalOrder:
    @settings(max_examples=300, deadline=None)
    @given(filter_graphs())
    def test_matches_networkx_on_dags(self, graph):
        nx = pytest.importorskip("networkx")
        names, edges = graph
        assert group_of(names, edges).topological_order() == networkx_order(nx, names, edges)

    @settings(max_examples=200, deadline=None)
    @given(filter_graphs(acyclic=False))
    def test_cycles_raise_where_networkx_does(self, graph):
        nx = pytest.importorskip("networkx")
        names, edges = graph
        group = group_of(names, edges)
        try:
            expected = networkx_order(nx, names, edges)
        except nx.NetworkXUnfeasible:
            with pytest.raises(FilterGraphError, match="filter graph has a cycle: ") as err:
                group.topological_order()
            cycle = str(err.value).split(": ", 1)[1].split(" -> ")
            assert cycle[0] == cycle[-1]
            assert all(pair in edges for pair in zip(cycle, cycle[1:]))
        else:
            assert group.topological_order() == expected

    def test_three_cycle_names_every_filter(self):
        names = ["reader", "clip", "viz"]
        g = group_of(names, [("reader", "clip"), ("clip", "viz"), ("viz", "reader")])
        with pytest.raises(FilterGraphError, match="filter graph has a cycle") as err:
            g.validate()
        assert all(name in str(err.value) for name in names)

    def test_duplicate_streams_count_once(self):
        g = group_of("abc", [("a", "c"), ("a", "c"), ("a", "b")])
        assert g.topological_order() == ["a", "c", "b"]


class TestPlacement:
    def test_round_robin_placement(self):
        g = linear_group()
        p = g.place_round_robin(["h0", "h1", "h2"])
        hosts = [p.host_for("a", 0), p.host_for("a", 1)] + [
            p.host_for("b", i) for i in range(3)
        ]
        assert hosts == ["h0", "h1", "h2", "h0", "h1"]

    def test_explicit_placement(self):
        g = linear_group()
        p = g.place({"a": ["x", "y"], "b": ["z", "z", "z"]})
        assert p.host_for("b", 2) == "z"

    def test_explicit_placement_wrong_count(self):
        g = linear_group()
        with pytest.raises(PlacementError):
            g.place({"a": ["x"], "b": ["z", "z", "z"]})

    def test_explicit_placement_missing_filter(self):
        g = linear_group()
        with pytest.raises(PlacementError):
            g.place({"a": ["x", "y"]})

    def test_missing_assignment(self):
        g = linear_group()
        p = g.place_round_robin(["h0"])
        with pytest.raises(PlacementError):
            p.host_for("nope", 0)

    def test_empty_host_list(self):
        with pytest.raises(PlacementError):
            linear_group().place_round_robin([])


class TestSchedulers:
    def drain(self, sim, gen):
        p = sim.process(gen)
        sim.run(p)
        return p.value

    def test_factory(self):
        sim = Simulator()
        assert isinstance(make_scheduler("rr", sim, 2), RoundRobinScheduler)
        assert isinstance(make_scheduler("dd", sim, 2), DemandDrivenScheduler)
        with pytest.raises(DataCutterError):
            make_scheduler("magic", sim, 2)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(DataCutterError):
            make_scheduler("rr", sim, 0)
        with pytest.raises(DataCutterError):
            make_scheduler("rr", sim, 2, max_outstanding=0)

    def test_rr_strict_rotation(self):
        sim = Simulator()
        s = make_scheduler("rr", sim, 3, max_outstanding=10)
        picks = [self.drain(sim, s.acquire()) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_rr_head_of_line_blocking(self):
        """RR waits for the next-in-rotation slot even if others are free."""
        sim = Simulator()
        s = make_scheduler("rr", sim, 2, max_outstanding=1)
        assert self.drain(sim, s.acquire()) == 0
        assert self.drain(sim, s.acquire()) == 1
        # Rotation points at 0 again; 0 is full, 1 would be full too,
        # but even after acking 1, rotation still demands 0 first.
        got = []

        def taker():
            idx = yield from s.acquire()
            got.append((idx, sim.now))

        sim.process(taker())

        def acker():
            yield sim.timeout(1)
            s.on_ack(1)  # frees the *wrong* consumer for RR
            yield sim.timeout(1)
            s.on_ack(0)  # now the rotation target frees

        sim.process(acker())
        sim.run()
        assert got == [(0, 2.0)]

    def test_dd_picks_minimum_unacked(self):
        sim = Simulator()
        s = make_scheduler("dd", sim, 3, max_outstanding=10)
        a = self.drain(sim, s.acquire())
        b = self.drain(sim, s.acquire())
        c = self.drain(sim, s.acquire())
        assert sorted([a, b, c]) == [0, 1, 2]  # spreads one each
        s.on_ack(1)
        # consumer 1 now has 0 unacked; everyone else has 1.
        assert self.drain(sim, s.acquire()) == 1

    def test_dd_routes_around_full_consumer(self):
        sim = Simulator()
        s = make_scheduler("dd", sim, 2, max_outstanding=1)
        first = self.drain(sim, s.acquire())
        second = self.drain(sim, s.acquire())
        assert {first, second} == {0, 1}
        # Both full: next acquire waits for *any* ack (unlike RR).
        got = []

        def taker():
            idx = yield from s.acquire()
            got.append((idx, sim.now))

        sim.process(taker())

        def acker():
            yield sim.timeout(5)
            s.on_ack(1)

        sim.process(acker())
        sim.run()
        assert got == [(1, 5.0)]

    def test_over_ack_raises(self):
        sim = Simulator()
        s = make_scheduler("dd", sim, 2)
        with pytest.raises(DataCutterError):
            s.on_ack(0)

    def test_ack_delay_tally(self):
        sim = Simulator()
        s = make_scheduler("dd", sim, 1, max_outstanding=5)
        self.drain(sim, s.acquire())

        def acker():
            yield sim.timeout(3)
            s.on_ack(0)

        p = sim.process(acker())
        sim.run(p)
        assert s.ack_delay[0].mean == pytest.approx(3.0)
        assert s.sent_counts == [1]
        assert s.acked_counts == [1]
