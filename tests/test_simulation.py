import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibnsim.compilation import InstallOutcome, compile_connectivity, install_intent
from ibnsim.errors import LinkStateError, UnknownLinkError
from ibnsim.intents import ConnectivityIntent, IntentState, LightpathIntent
from ibnsim.network import NodeId
from ibnsim.scenario import (
    MAX_DRAW,
    MAX_EVENT_TIME,
    TrafficConfig,
    _cumulative,
    _pick,
    generate_traffic,
    parse_scenario,
)
from ibnsim.simulation import (
    POLICY_NONE,
    Event,
    EventKind,
    Simulation,
    _attempt_recovery,
    monitor_failure,
    monitor_repair,
)

from .builders import chain, make_domain, reserve, scenario_text, snapshot
from .oracles import audit_resources, mutables

N = NodeId
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def domain_doc(nodes, links, **extra):
    doc = {
        "schema": 1,
        "grid_size": 8,
        "domains": [
            {
                "id": 1,
                "nodes": [
                    {"local": i, "ports": 8, "port_rate": 400, "add_drop": 8}
                    for i in nodes
                ],
                "links": [{"a": a, "b": b, "length": ln} for a, b, ln in links],
            }
        ],
    }
    doc.update(extra)
    return doc


# -- traffic generation ---------------------------------------------------------


PAIRS = ((N(1, 1), N(1, 2), 1.0),)


class TestGenerateTraffic:
    def test_zero_arrivals(self):
        cfg = TrafficConfig(0, 1.0, 10.0, PAIRS)
        assert generate_traffic(cfg, seed=1) == []

    def test_same_seed_same_list(self):
        cfg = TrafficConfig(50, 2.0, 5.0, PAIRS)
        assert generate_traffic(cfg, 7) == generate_traffic(cfg, 7)

    def test_different_seed_differs(self):
        cfg = TrafficConfig(50, 2.0, 5.0, PAIRS)
        assert generate_traffic(cfg, 7) != generate_traffic(cfg, 8)

    def test_doubling_rate_halves_times_exactly(self):
        # Inverse-CDF property: with the same uniform stream, arrival times
        # scale by exactly 1/2 when the rate doubles.
        base = generate_traffic(TrafficConfig(100, 1.5, 5.0, PAIRS), 13)
        fast = generate_traffic(TrafficConfig(100, 3.0, 5.0, PAIRS), 13)
        for slow_ev, fast_ev in zip(base, fast):
            assert fast_ev.time == slow_ev.time / 2
            assert fast_ev.holding == slow_ev.holding
            assert fast_ev.intent == slow_ev.intent

    def test_event_times_must_stay_finite(self):
        # A draw u < 1 gives at most MAX_DRAW times the mean gap or holding,
        # so the last departure stays below MAX_EVENT_TIME.  The refusals
        # are rows of tests/test_scenario.py::TRAFFIC_RULES.
        assert -math.log1p(-(1 - 2**-53)) == MAX_DRAW
        assert 50 * MAX_DRAW + 2.4e306 * MAX_DRAW < MAX_EVENT_TIME
        TrafficConfig(50, 1.0, 2.4e306, PAIRS)


# -- run ------------------------------------------------------------------------


class TestRun:
    def test_empty_event_list(self):
        scenario = parse_scenario(domain_doc([1, 2], [(1, 2, 100.0)]))
        result = Simulation(scenario).run()
        assert result.metrics.offered == 0
        assert result.metrics.blocked == 0
        assert result.event_log == []

    def test_single_arrival_departure_conservation(self):
        doc = domain_doc(
            [1, 2],
            [(1, 2, 100.0)],
            events=[
                {
                    "time": 0.0,
                    "kind": "arrival",
                    "src": [1, 1],
                    "dst": [1, 2],
                    "rate": 100,
                    "holding": 5.0,
                }
            ],
        )
        result = Simulation(parse_scenario(doc)).run()
        assert result.metrics.offered == 1
        assert result.metrics.blocked == 0
        assert result.metrics.installed_ok == 1
        for ctrl in result.domains.values():
            assert ctrl.graph.reserved_cells == 0
            assert not any(r.port_holders for r in ctrl.graph.routers.values())

    def test_three_simultaneous_arrivals_block_one(self):
        # 8 slots admit exactly two 4-slot lightpaths.
        arrival = {
            "kind": "arrival",
            "src": [1, 1],
            "dst": [1, 2],
            "rate": 100,
            "holding": 50.0,
        }
        doc = domain_doc(
            [1, 2],
            [(1, 2, 100.0)],
            events=[dict(arrival, time=0.0) for _ in range(3)],
        )
        result = Simulation(parse_scenario(doc)).run()
        assert result.metrics.offered == 3
        assert result.metrics.blocked == 1
        assert result.metrics.installed_ok == 2

    def test_replay_determinism(self):
        doc = domain_doc(
            [1, 2, 3],
            [(1, 2, 100.0), (2, 3, 100.0), (1, 3, 250.0)],
            traffic={
                "arrivals": 60,
                "arrival_rate": 2.0,
                "mean_holding": 3.0,
                "pairs": "all",
            },
            seed=11,
        )
        first = Simulation(parse_scenario(doc)).run()
        second = Simulation(parse_scenario(doc)).run()
        assert first.event_log == second.event_log
        assert first.metrics.per_intent == second.metrics.per_intent
        assert (
            first.metrics.slot_utilization_samples
            == second.metrics.slot_utilization_samples
        )

    def test_invariants_hold_after_every_event(self):
        doc = domain_doc(
            [1, 2, 3],
            [(1, 2, 100.0), (2, 3, 100.0), (1, 3, 250.0)],
            traffic={
                "arrivals": 80,
                "arrival_rate": 4.0,
                "mean_holding": 2.0,
                "pairs": "all",
            },
            seed=3,
        )

        def check(sim, event):
            assert audit_resources(sim.domains) == []

        result = Simulation(parse_scenario(doc), on_event=check).run()
        assert result.metrics.offered == 80

    @pytest.mark.parametrize(
        "orphan, problems",
        [("slot", ["slot grids and DAG lightpaths disagree"]),
         ("port", ["port holders and DAG disagree at 1.3"]),
         ("add-drop", [f"add/drop holders and DAG disagree at 1.{i}" for i in (2, 3)]),
         ("cell-count", ["reserved_cells is not the held cell count"]),
         ("busy-mask", ["busy mask is not the OR of the holder masks on 1.2-1.3"]),
         ("overlap", ["holder masks overlap on 1.1-1.2"]),
         ("empty-mask", ["empty holder mask on 1.2-1.3"]),
         ("outside-grid", ["holder mask outside the grid on 1.2-1.3",
                           "slot grids and DAG lightpaths disagree",
                           "reserved_cells is not the held cell count"]),
         ("down-mask", ["down mask and fiber states disagree"]),
         ("failed-index-stale", ["failed index holds 1#4, which is installed"]),
         ("failed-index-missing", ["failed leaf 1#4 is missing from the failed index",
                                   "failed root 1#1 has no indexed leaf below it"])],
        ids=["slot", "port", "add-drop", "cell-count", "busy-mask", "overlap", "empty-mask",
             "outside-grid", "down-mask", "failed-index-stale", "failed-index-missing"],
    )
    def test_audit_reports_orphan_booking(self, orphan, problems):
        # A booking no DAG leaf claims: the grid and the holders still agree
        # with each other, so only a check against the DAG can see it.
        ctrl, a, b, c = triangle_domain()
        lightpath = ctrl.dag.leaves_under(installed(ctrl, a, b))[-1]
        assert audit_resources({1: ctrl}) == []
        graph = ctrl.graph
        if orphan == "slot":
            reserve(ctrl, b, c, [8], holder="orphan")
        elif orphan == "port":
            graph.reserve_port(c, "orphan", 100)
        elif orphan == "add-drop":
            graph.reserve_lightpath((b, c), (8, 8), "orphan")
            graph.release_spectrum(graph.link_between(b, c), 8, 8, "orphan")
        elif orphan == "cell-count":
            graph.reserved_cells += 1
        elif orphan == "busy-mask":
            graph.link_between(b, c).busy ^= 1 << 7
        elif orphan == "overlap":
            # Listed first, so the lightpath still wins every slot in the
            # per-slot view: only the masks themselves show the overlap.
            link = graph.link_between(a, b)
            link.holders = {"orphan": link.holders[lightpath], **link.holders}
        elif orphan == "empty-mask":
            graph.link_between(b, c).holders["orphan"] = 0
        elif orphan == "outside-grid":
            link = graph.link_between(b, c)
            link.holders["orphan"] = 1 << graph.slot_count
            link.busy |= 1 << graph.slot_count
        elif orphan == "down-mask":
            graph._down ^= graph._bits[graph.link_between(b, c).key]
        elif orphan == "failed-index-stale":
            ctrl.dag.failed.add(lightpath)
        else:
            ctrl.dag.transition(lightpath, IntentState.FAILED)
            ctrl.dag.failed.discard(lightpath)
        assert audit_resources({1: ctrl}) == [f"domain 1: {p}" for p in problems]

    @pytest.mark.parametrize(
        "name, cross_domain",
        [("single_link.json", False), ("three_domain_line.json", True)],
    )
    def test_blocked_arrival_leaves_nothing_behind(self, name, cross_domain):
        # single_link: the third arrival finds no spectrum in its own domain.
        # three_domain_line: an empty reason marks a block the neighbor
        # decided after the local piece was compiled and delegated.
        sim = Simulation(parse_scenario((SCENARIOS / name).read_text()))
        nodes_before = [dag_nodes(sim)]
        blocked = []

        def check(sim, event):
            nodes = dag_nodes(sim)
            if event.kind is EventKind.ARRIVAL:
                entry = next(e for e in reversed(sim.event_log) if e["event"] == "arrival")
                if entry["outcome"] == "blocked":
                    blocked.append(entry)
                    assert nodes == nodes_before[-1], entry
            nodes_before.append(nodes)

        sim.on_event = check
        sim.run()
        assert any(
            (e["src"].split(".")[0] != e["dst"].split(".")[0]) == cross_domain
            and (e["reason"] == "") == cross_domain
            for e in blocked
        )

    @pytest.mark.parametrize("name", ["reference.json", "three_domain_line.json",
                                      "domain_ring.json", "churn-4"])
    def test_every_event_ends_quiescent(self, name):
        # Simulation._deliver skips the delivery round when every outbox is
        # empty, which is sound only if no event ends with a message queued
        # or an install still waiting for its verdict.
        unsettled = []

        def audit(sim, event):
            unsettled.extend((event.seq, ctrl.id, list(ctrl.outbox), sorted(ctrl.pending_installs))
                             for ctrl in sim.domains.values()
                             if ctrl.outbox or ctrl.pending_installs)

        result = Simulation(parse_scenario(scenario_text(name)), on_event=audit).run()
        assert unsettled == []
        assert any(entry["event"] == "message" for entry in result.event_log)

    @pytest.mark.parametrize("name", ["reference.json", "domain_ring.json", "churn-4"])
    def test_every_departure_pops_after_its_arrival(self, name):
        # A departure scheduled at now + holding must not round back onto
        # its arrival's instant; the scenario boundary refuses holding
        # times that could.
        arrived = {}
        departures = []

        def audit(sim, event):
            if event.kind is EventKind.ARRIVAL:
                entry = next(e for e in reversed(sim.event_log) if e["event"] == "arrival")
                if entry["outcome"] == "installed":
                    arrived[entry["intent"]] = event.time
            elif event.kind is EventKind.DEPARTURE:
                assert event.time > arrived[str(event.intent_id)], event
                departures.append(event.seq)

        Simulation(parse_scenario(scenario_text(name)), on_event=audit).run()
        assert len(departures) == len(arrived) > 0

    def test_reference_run_ends_with_empty_dags(self):
        scenario = parse_scenario((SCENARIOS / "reference.json").read_text())
        result = Simulation(scenario).run()
        assert result.metrics.blocked > 0
        assert all(not ctrl.dag.nodes for ctrl in result.domains.values())


def dag_nodes(sim):
    return {did: set(ctrl.dag.nodes) for did, ctrl in sim.domains.items()}


# -- event order -----------------------------------------------------------------


def arrival(time, holding=5.0):
    return {"time": time, "kind": "arrival", "src": [1, 1], "dst": [1, 3],
            "rate": 100, "holding": holding}


def link(time, kind):
    return {"time": time, "kind": kind, "a": [1, 2], "b": [1, 3]}


def popped(doc):
    """(time, seq, kind) of every event, in the order the engine ran them."""
    order = []
    Simulation(parse_scenario(doc),
               on_event=lambda sim, e: order.append((e.time, e.seq, e.kind.value))).run()
    return order


class TestEventOrder:
    LINKS = [(1, 2, 100.0), (2, 3, 100.0), (1, 3, 250.0)]

    def test_simultaneous_explicit_events_pop_in_file_order(self):
        events = [arrival(1.0), link(1.0, "link_down"), arrival(1.0),
                  link(1.0, "link_up"), arrival(1.0)]
        order = popped(domain_doc([1, 2, 3], self.LINKS, events=events))
        assert order[:5] == [(1.0, 0, "arrival"), (1.0, 1, "link_down"), (1.0, 2, "arrival"),
                             (1.0, 3, "link_up"), (1.0, 4, "arrival")]
        assert [kind for _, _, kind in order[5:]] == ["departure"] * 3

    def test_departure_due_with_a_pending_arrival_pops_after_it(self):
        # The departure of the first intent is scheduled at 2.0, after both
        # explicit events were numbered, so its seq is the larger one.
        events = [arrival(0.0, holding=2.0), arrival(2.0, holding=1.0)]
        order = popped(domain_doc([1, 2, 3], self.LINKS, events=events))
        assert order == [(0.0, 0, "arrival"), (2.0, 1, "arrival"),
                         (2.0, 2, "departure"), (3.0, 3, "departure")]

    def test_events_are_immutable_tuples(self):
        ends = (N(1, 2), N(1, 3))
        down = Event(1.0, 0, EventKind.LINK_DOWN, link=ends)
        assert down == (1.0, 0, EventKind.LINK_DOWN, None, None, None, ends)
        with pytest.raises(AttributeError):
            down.time = 2.0
        arrives = Event(2.0, 1, EventKind.ARRIVAL, ConnectivityIntent(N(1, 1), N(1, 3), 100), 5.0)
        assert list(mutables(down)) == [] and list(mutables(arrives)) == []


# -- monitoring ------------------------------------------------------------------


def triangle_domain():
    """A-B and B-C short, A-C long; all links same domain."""
    ctrl = make_domain(nodes=3)
    a, b, c = N(1, 1), N(1, 2), N(1, 3)
    ctrl.graph.add_fiber_link(a, b, 100.0)
    ctrl.graph.add_fiber_link(b, c, 100.0)
    ctrl.graph.add_fiber_link(a, c, 300.0)
    return ctrl, a, b, c


def installed(ctrl, src, dst, rate=100):
    iid = ctrl.add_intent(ConnectivityIntent(src, dst, rate))
    compile_connectivity(ctrl, iid)
    assert install_intent(ctrl, iid) is InstallOutcome.INSTALLED
    return iid


class TestMonitorFailure:
    def test_no_lightpaths_only_marks_down(self):
        ctrl, a, b, c = triangle_domain()
        recovered = monitor_failure({1: ctrl}, a, b)
        assert recovered == 0
        assert not ctrl.graph.link_between(a, b).operational

    def test_only_path_fails_without_recovery(self):
        ctrl = make_domain(nodes=2)
        chain(ctrl, [100.0])
        iid = installed(ctrl, N(1, 1), N(1, 2))
        recovered = monitor_failure({1: ctrl}, N(1, 1), N(1, 2))
        assert recovered == 0
        assert ctrl.dag.aggregate_state(iid) is IntentState.FAILED
        # Failure is not a release: the dead lightpath keeps its slots.
        assert ctrl.graph.reserved_cells == 4

    def test_backup_path_recovers(self):
        ctrl, a, b, c = triangle_domain()
        iid = installed(ctrl, a, b)
        recovered = monitor_failure({1: ctrl}, a, b)
        assert recovered == 1
        assert ctrl.dag.aggregate_state(iid) is IntentState.INSTALLED
        lightpath = next(
            ctrl.dag.payload(x)
            for x in ctrl.dag.children(iid)
            if isinstance(ctrl.dag.payload(x), LightpathIntent)
        )
        assert lightpath.path == (a, c, b)

    def test_policy_none_leaves_failed(self):
        ctrl, a, b, c = triangle_domain()
        iid = installed(ctrl, a, b)
        recovered = monitor_failure({1: ctrl}, a, b, policy=POLICY_NONE)
        assert recovered == 0
        assert ctrl.dag.aggregate_state(iid) is IntentState.FAILED

    def test_no_installed_lightpath_traverses_down_link(self):
        ctrl, a, b, c = triangle_domain()
        installed(ctrl, a, b)
        installed(ctrl, a, c)
        monitor_failure({1: ctrl}, a, b)
        from ibnsim.network import link_key

        down = link_key(a, b)
        for iid, node in ctrl.dag.nodes.items():
            if isinstance(node.payload, LightpathIntent):
                if node.state is IntentState.INSTALLED:
                    hops = {
                        link_key(u, v)
                        for u, v in zip(node.payload.path, node.payload.path[1:])
                    }
                    assert down not in hops

    def test_already_down_and_unknown_link(self):
        ctrl, a, b, c = triangle_domain()
        monitor_failure({1: ctrl}, a, b)
        with pytest.raises(LinkStateError):
            monitor_failure({1: ctrl}, a, b)
        with pytest.raises(UnknownLinkError):
            monitor_failure({1: ctrl}, a, N(1, 9))


class TestMonitorRepair:
    def test_no_failed_intents_only_marks_up(self):
        ctrl, a, b, c = triangle_domain()
        monitor_failure({1: ctrl}, a, b)
        recovered = monitor_repair({1: ctrl}, a, b)
        assert recovered == 0
        assert ctrl.graph.link_between(a, b).operational

    def test_repair_restores_sole_path(self):
        ctrl = make_domain(nodes=2)
        chain(ctrl, [100.0])
        iid = installed(ctrl, N(1, 1), N(1, 2))
        monitor_failure({1: ctrl}, N(1, 1), N(1, 2))
        assert ctrl.dag.aggregate_state(iid) is IntentState.FAILED
        recovered = monitor_repair({1: ctrl}, N(1, 1), N(1, 2))
        assert recovered == 1
        assert ctrl.dag.aggregate_state(iid) is IntentState.INSTALLED

    def test_repair_after_recovery_changes_nothing(self):
        ctrl, a, b, c = triangle_domain()
        iid = installed(ctrl, a, b)
        monitor_failure({1: ctrl}, a, b)  # recovers onto a-c-b
        state_before = ctrl.dag.aggregate_state(iid)
        before = snapshot(ctrl)
        recovered = monitor_repair({1: ctrl}, a, b)
        assert recovered == 0
        assert ctrl.dag.aggregate_state(iid) is state_before
        assert snapshot(ctrl) == before

    def test_already_up(self):
        ctrl, a, b, c = triangle_domain()
        with pytest.raises(LinkStateError):
            monitor_repair({1: ctrl}, a, b)


def test_recovery_leaves_a_healthy_root_alone():
    # Both monitors hand in only roots of failed leaves; the check that the
    # root failed is the routine's precondition, not a filter.
    ctrl, a, b, c = triangle_domain()
    iid = installed(ctrl, a, b)
    before = snapshot(ctrl)
    assert _attempt_recovery(ctrl, iid) == 0
    assert snapshot(ctrl) == before
    assert ctrl.dag.aggregate_state(iid) is IntentState.INSTALLED


class TestFailureInSimulation:
    def test_link_down_then_departure(self):
        doc = domain_doc(
            [1, 2],
            [(1, 2, 100.0)],
            recovery=POLICY_NONE,
            events=[
                {
                    "time": 0.0,
                    "kind": "arrival",
                    "src": [1, 1],
                    "dst": [1, 2],
                    "rate": 100,
                    "holding": 10.0,
                },
                {"time": 1.0, "kind": "link_down", "a": [1, 1], "b": [1, 2]},
            ],
        )
        result = Simulation(parse_scenario(doc)).run()
        # The departure at t=10 uninstalls the failed intent cleanly.
        assert result.metrics.installed_ok == 1
        for ctrl in result.domains.values():
            assert ctrl.graph.reserved_cells == 0

    def test_down_up_cycle_recovers(self):
        doc = domain_doc(
            [1, 2],
            [(1, 2, 100.0)],
            events=[
                {
                    "time": 0.0,
                    "kind": "arrival",
                    "src": [1, 1],
                    "dst": [1, 2],
                    "rate": 100,
                    "holding": 100.0,
                },
                {"time": 1.0, "kind": "link_down", "a": [1, 1], "b": [1, 2]},
                {"time": 2.0, "kind": "link_up", "a": [1, 1], "b": [1, 2]},
            ],
        )
        result = Simulation(parse_scenario(doc)).run()
        assert result.metrics.failures_recovered == 1


def test_blocking_monotone_in_arrival_rate():
    import dataclasses

    base = domain_doc(
        [1, 2, 3],
        [(1, 2, 100.0), (2, 3, 100.0), (1, 3, 250.0)],
        traffic={
            "arrivals": 200,
            "arrival_rate": 2.0,
            "mean_holding": 4.0,
            "pairs": "all",
        },
        seed=9,
    )
    blocked = []
    for factor in (0.5, 1.0, 2.0):
        scenario = parse_scenario(base)
        scenario = dataclasses.replace(
            scenario,
            traffic=dataclasses.replace(scenario.traffic, arrival_rate=2.0 * factor),
        )
        blocked.append(Simulation(scenario).run().metrics.blocked)
    assert blocked[0] <= blocked[1] <= blocked[2]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from((0.0, 0.5, 1.0, 3.0)), min_size=1).filter(any),
       st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_pick_matches_a_linear_scan(weights, u):
    cumulative = _cumulative(weights)
    threshold = u * cumulative[-1]
    scan = next((i for i, edge in enumerate(cumulative) if threshold < edge),
                len(cumulative) - 1)
    assert _pick(cumulative, u) == scan
