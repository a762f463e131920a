from pathlib import Path

import pytest

from ibnsim.compilation import InstallOutcome, compile_connectivity, install_intent
from ibnsim.errors import InvalidConfigError, LinkStateError, UnknownLinkError
from ibnsim.intents import ConnectivityIntent, IntentState, LightpathIntent
from ibnsim.network import NodeId
from ibnsim.scenario import parse_scenario
from ibnsim.simulation import (
    EventKind,
    Simulation,
    TrafficConfig,
    generate_traffic,
    monitor_failure,
    monitor_repair,
)

from .builders import chain, make_domain, reserve, snapshot
from .oracles import audit_resources

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

    def test_invalid_config(self):
        with pytest.raises(InvalidConfigError):
            generate_traffic(TrafficConfig(10, 0.0, 5.0, PAIRS), 1)
        with pytest.raises(InvalidConfigError):
            generate_traffic(TrafficConfig(10, 1.0, -1.0, PAIRS), 1)
        with pytest.raises(InvalidConfigError):
            generate_traffic(TrafficConfig(10, 1.0, 5.0, ()), 1)


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
         ("cell-count", ["reserved_cells is not the held cell count"])],
        ids=["slot", "port", "add-drop", "cell-count"],
    )
    def test_audit_reports_orphan_booking(self, orphan, problems):
        # A booking no DAG leaf claims: the grid and the holders still agree
        # with each other, so only a check against the DAG can see it.
        ctrl, a, b, c = triangle_domain()
        installed(ctrl, a, b)
        assert audit_resources({1: ctrl}) == []
        graph = ctrl.graph
        if orphan == "slot":
            reserve(ctrl, b, c, [8], holder="orphan")
        elif orphan == "port":
            graph.reserve_port(c, "orphan", 100)
        elif orphan == "add-drop":
            graph.reserve_lightpath((b, c), (8, 8), "orphan")
            graph.release_spectrum(graph.link_between(b, c), 8, 8, "orphan")
        else:
            graph.reserved_cells += 1
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

    def test_reference_run_ends_with_empty_dags(self):
        scenario = parse_scenario((SCENARIOS / "reference.json").read_text())
        result = Simulation(scenario).run()
        assert result.metrics.blocked > 0
        assert all(not ctrl.dag.nodes for ctrl in result.domains.values())


def dag_nodes(sim):
    return {did: set(ctrl.dag.nodes) for did, ctrl in sim.domains.items()}


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
        recovered = monitor_failure({1: ctrl}, a, b, policy="none")
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


class TestFailureInSimulation:
    def test_link_down_then_departure(self):
        doc = domain_doc(
            [1, 2],
            [(1, 2, 100.0)],
            recovery="none",
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
