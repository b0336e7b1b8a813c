"""Fluid-flow machinery: mode resolution, the analytic pipeline
solver, and the processor-sharing FlowModel (repro.sim.flow)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan, HostFault, injecting
from repro.sim.core import Simulator
from repro.sim.flow import (
    MODES,
    FlowModel,
    effective_sim_mode,
    fluid_active,
    resolve_sim_mode,
    set_sim_mode,
    simulation_mode,
    solve_pipeline,
)


@pytest.fixture(autouse=True)
def _clean_mode(monkeypatch):
    """Every test starts from the packet default: no override, no env."""
    monkeypatch.delenv("REPRO_SIM_MODE", raising=False)
    set_sim_mode(None)
    yield
    set_sim_mode(None)


# ---------------------------------------------------------------------------
# mode resolution
# ---------------------------------------------------------------------------


class TestModeResolution:
    def test_default_is_packet(self):
        assert resolve_sim_mode() == "packet"
        assert effective_sim_mode() == "packet"
        assert not fluid_active()

    def test_explicit_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_MODE", "fluid")
        set_sim_mode("auto")
        assert resolve_sim_mode("packet") == "packet"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_MODE", "fluid")
        set_sim_mode("packet")
        assert resolve_sim_mode() == "packet"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_MODE", "fluid")
        assert resolve_sim_mode() == "fluid"
        assert fluid_active()

    @pytest.mark.parametrize("mode", MODES)
    def test_all_modes_valid(self, mode):
        assert resolve_sim_mode(mode) == mode

    def test_invalid_mode_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown simulation mode"):
            resolve_sim_mode("quantum")
        with pytest.raises(ValueError, match="unknown simulation mode"):
            set_sim_mode("quantum")
        monkeypatch.setenv("REPRO_SIM_MODE", "quantum")
        with pytest.raises(ValueError, match="unknown simulation mode"):
            resolve_sim_mode()

    def test_context_manager_nests_and_restores(self):
        with simulation_mode("fluid"):
            assert resolve_sim_mode() == "fluid"
            with simulation_mode("packet"):
                assert resolve_sim_mode() == "packet"
            assert resolve_sim_mode() == "fluid"
        assert resolve_sim_mode() == "packet"

    def test_context_manager_none_leaves_ambient(self):
        set_sim_mode("fluid")
        with simulation_mode(None):
            assert resolve_sim_mode() == "fluid"

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with simulation_mode("fluid"):
                raise RuntimeError("boom")
        assert resolve_sim_mode() == "packet"

    def test_auto_behaves_like_fluid(self):
        with simulation_mode("auto"):
            assert fluid_active()
            assert effective_sim_mode() == "fluid"


class TestFaultGating:
    def test_ambient_plan_forces_packet(self):
        plan = FaultPlan(name="t", seed=1,
                         hosts={"h": HostFault(crash_at=0.01,
                                               restart_at=0.03)})
        with simulation_mode("fluid"):
            with injecting(plan):
                assert not fluid_active()
                assert effective_sim_mode() == "packet"
            assert fluid_active()

    def test_empty_plan_does_not_gate(self):
        with simulation_mode("fluid"):
            with injecting(FaultPlan.empty()):
                assert fluid_active()


# ---------------------------------------------------------------------------
# the analytic pipeline solver
# ---------------------------------------------------------------------------


def _chain_times(snd, wire, rcv):
    """The per-unit event-chain reference: simulate the three-stage
    store-and-forward pipeline one unit at a time."""
    c1 = c2 = c3 = 0.0
    c2s, c3s = [], []
    for s, w, r in zip(snd, wire, rcv):
        c1 += s
        c2 = max(c1, c2) + w
        c2s.append(c2)
        c3 = max(c2, c3) + r
        c3s.append(c3)
    return c2s, c3s


class TestSolvePipeline:
    def test_empty_transfer(self):
        assert solve_pipeline([], [], []) == (0.0, 0.0)

    def test_single_unit(self):
        c2, c3 = solve_pipeline([1.0], [2.0], [0.5])
        assert c2 == 3.0
        assert c3 == 3.5

    def test_matches_segsim_flow_shop(self):
        np = pytest.importorskip("numpy")
        from repro.net.segsim import flow_shop_completion_times

        snd = [0.3, 0.3, 0.3, 0.1]
        wire = [0.5, 0.2, 0.7, 0.5]
        rcv = [0.1, 0.4, 0.1, 0.2]
        c = flow_shop_completion_times(list(zip(snd, wire, rcv)))
        c2, c3 = solve_pipeline(snd, wire, rcv)
        assert c2 == pytest.approx(c[-1, 1])
        assert c3 == pytest.approx(c[-1, 2])
        assert np.all(c >= 0)

    @given(units=st.lists(
        st.tuples(*[st.floats(min_value=0.0, max_value=10.0,
                              allow_nan=False, allow_infinity=False)] * 3),
        min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_unit_chain(self, units):
        snd, wire, rcv = zip(*units)
        c2s, c3s = _chain_times(snd, wire, rcv)
        c2, c3 = solve_pipeline(snd, wire, rcv)
        assert c2 == c2s[-1]
        assert c3 == c3s[-1]
        # Structural sanity: stages only ever add time.
        assert c3 >= c2 >= sum(wire) - 1e-12 or not any(wire)
        assert c2 >= sum(wire)
        assert c3 >= c2


# ---------------------------------------------------------------------------
# the processor-sharing FlowModel
# ---------------------------------------------------------------------------


class TestFlowModel:
    def test_single_flow_drains_at_line_rate(self):
        sim = Simulator()
        model = FlowModel(sim)
        done = []
        model.add(2.5, lambda: done.append(sim.now))
        sim.run_all()
        assert done == [2.5]
        assert model.active == 0
        assert model.drained == 1

    def test_two_equal_flows_share_the_link(self):
        sim = Simulator()
        model = FlowModel(sim)
        done = []
        model.add(1.0, lambda: done.append(("a", sim.now)))
        model.add(1.0, lambda: done.append(("b", sim.now)))
        sim.run_all()
        # Each drains at 1/2 -> both finish at 2.0; ties complete in
        # registration order.
        assert done == [("a", 2.0), ("b", 2.0)]

    def test_staggered_arrival_integrates_elapsed_share(self):
        sim = Simulator()
        model = FlowModel(sim)
        done = {}
        model.add(2.0, lambda: done.setdefault("a", sim.now))

        def late():
            yield sim.timeout(1.0)
            model.add(0.5, lambda: done.setdefault("b", sim.now))

        sim.process(late())
        sim.run_all()
        # a runs alone [0,1) (1.0 left), then shares: b's 0.5 drains at
        # t=2.0, a's remaining 0.5 finishes alone at t=2.5.
        assert done == {"b": 2.0, "a": 2.5}

    def test_zero_work_flow_completes_immediately(self):
        sim = Simulator()
        model = FlowModel(sim)
        done = []
        model.add(0.0, lambda: done.append(sim.now))
        sim.run_all()
        assert done == [0.0]

    def test_callback_may_register_follow_on_flow(self):
        sim = Simulator()
        model = FlowModel(sim)
        done = []

        def first_done():
            done.append(("first", sim.now))
            model.add(1.0, lambda: done.append(("second", sim.now)))

        model.add(1.0, first_done)
        sim.run_all()
        assert done == [("first", 1.0), ("second", 2.0)]
        assert model.drained == 2

    @given(works=st.lists(
        st.floats(min_value=0.001, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_property_total_drain_time_is_total_work(self, works):
        # Processor sharing is work-conserving: with all flows present
        # from t=0, the last completion lands at sum(work).
        sim = Simulator()
        model = FlowModel(sim)
        last = []
        for w in works:
            model.add(w, lambda: last.append(sim.now))
        sim.run_all()
        assert max(last) == pytest.approx(sum(works))
        assert model.drained == len(works)


# ---------------------------------------------------------------------------
# FlowModel.add_pair: both directions of one transfer
# ---------------------------------------------------------------------------


def _run_flow_ops(ops, paired):
    """Run *ops* on two models, A and B, and return ``(log, events)``.

    Each op is ``(delay, kind, work)``: after *delay* from the previous
    op, ``kind`` "ab"/"ba" registers *work* on both models (first the
    named one) and "a"/"b" on one.  With *paired* the two-model ops go
    through :meth:`FlowModel.add_pair`, else through two :meth:`add`
    calls.  The log records every op and every drain with its time, so
    it shows any change of order at a tied instant.
    """
    sim = Simulator()
    models = {"a": FlowModel(sim), "b": FlowModel(sim)}
    log = []

    def drain(label):
        return lambda: log.append((label, sim.now))

    def step(i):
        if i == len(ops):
            return
        delay, kind, work = ops[i]

        def fire(_event):
            log.append(("op", i, sim.now))
            label = f"{kind}{i}"
            if len(kind) == 1:
                models[kind].add(work, drain(label))
            else:
                first, second = models[kind[0]], models[kind[1]]
                if paired:
                    first.add_pair(second, work, drain(label + kind[0]),
                                   drain(label + kind[1]))
                else:
                    first.add(work, drain(label + kind[0]))
                    second.add(work, drain(label + kind[1]))
            step(i + 1)

        sim.timeout(delay).add_callback(fire)

    step(0)
    sim.run_all()
    return log, sim.events_processed


class TestFlowModelPair:
    def test_idle_pair_drains_on_one_event(self):
        sim = Simulator()
        up, down = FlowModel(sim), FlowModel(sim)
        done = []
        up.add_pair(down, 2.0, lambda: done.append(("up", sim.now)),
                    lambda: done.append(("down", sim.now)))
        assert sim.run_all() == 1
        assert done == [("up", 2.0), ("down", 2.0)]
        assert up.drained == down.drained == 1

    def test_busy_model_gets_its_own_timer(self):
        log, events = _run_flow_ops([(0.0, "a", 1.0), (0.0, "ab", 1.0)],
                                    paired=True)
        ref, ref_events = _run_flow_ops([(0.0, "a", 1.0), (0.0, "ab", 1.0)],
                                        paired=False)
        assert log == ref
        assert events == ref_events

    @pytest.mark.parametrize("late", ["a", "b"])
    def test_model_that_resolves_leaves_the_shared_timer(self, late):
        # A flow arriving on one direction mid-drain re-solves that
        # model alone; the other keeps draining on the shared event.
        ops = [(0.0, "ab", 1.0), (0.5, late, 1.0)]
        log, events = _run_flow_ops(ops, paired=True)
        ref, ref_events = _run_flow_ops(ops, paired=False)
        assert log == ref
        assert (f"ab0{late}", 1.5) in log
        other = "b" if late == "a" else "a"
        assert (f"ab0{other}", 1.0) in log
        # Both ways pop three drain events: the separate timer of the
        # model that re-solved was a tombstone, never popped.
        assert events == ref_events

    @given(ops=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.25, 0.5, 1.0]),
            st.sampled_from(["ab", "ba", "a", "b"]),
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
        min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_pair_matches_two_adds(self, ops):
        # Tied arrival times and works make drains coincide with each
        # other and with op events; the logs must agree exactly.
        log, events = _run_flow_ops(ops, paired=True)
        ref, ref_events = _run_flow_ops(ops, paired=False)
        assert log == ref
        pairs = sum(len(kind) == 2 for _d, kind, _w in ops)
        assert ref_events - pairs <= events <= ref_events
