import dataclasses
import re
from pathlib import Path

import pytest

from ibnsim import multidomain
from ibnsim.compilation import compile_connectivity, install_intent
from ibnsim.export import event_log_text, export_dag, export_topology, metrics_csv
from ibnsim.intents import (
    ConnectivityIntent,
    ExcludeLink,
    IntentDAG,
    IntentId,
    RouterPortIntent,
    intent_kind,
)
from ibnsim.multidomain import Delegate, Message, Remove
from ibnsim.network import NodeId
from ibnsim.scenario import parse_scenario
from ibnsim.simulation import (
    POLICY_NONE,
    IntentRecord,
    Metrics,
    Simulation,
    monitor_failure,
)

from . import oracles
from .builders import chain, make_domain

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

N1 = NodeId(1, 1)
N2 = NodeId(1, 2)


def parse_dot(text):
    """Tiny DOT reader: returns (node ids, edges) or fails on bad syntax."""
    lines = text.strip().splitlines()
    assert lines[0] == "digraph intents {"
    assert lines[-1] == "}"
    node_re = re.compile(r'^  "([^"]+)" \[label="([^"]+)"\];$')
    edge_re = re.compile(r'^  "([^"]+)" -> "([^"]+)";$')
    nodes, edges = {}, []
    for line in lines[1:-1]:
        m = node_re.match(line)
        if m:
            nodes[m.group(1)] = m.group(2)
            continue
        m = edge_re.match(line)
        assert m, f"unparseable DOT line: {line!r}"
        edges.append((m.group(1), m.group(2)))
    return nodes, edges


class TestExportDag:
    def test_empty_dag(self):
        nodes, edges = parse_dot(export_dag(IntentDAG(domain=1)))
        assert nodes == {} and edges == []

    def test_single_intent(self):
        dag = IntentDAG(domain=1)
        iid = dag.add_intent(ConnectivityIntent(N1, N2, 100))
        nodes, edges = parse_dot(export_dag(dag))
        assert nodes == {"1#1": "connectivity / 1#1 / uncompiled"}
        assert edges == []

    def test_parent_with_two_children(self):
        dag = IntentDAG(domain=1)
        parent = dag.add_intent(ConnectivityIntent(N1, N2, 100))
        dag.add_child(parent, RouterPortIntent(N1, 100))
        dag.add_child(parent, RouterPortIntent(N2, 100))
        nodes, edges = parse_dot(export_dag(dag))
        assert len(nodes) == 3
        assert edges == [("1#1", "1#2"), ("1#1", "1#3")]

    def test_equal_dags_byte_equal(self):
        def build():
            dag = IntentDAG(domain=1)
            parent = dag.add_intent(ConnectivityIntent(N1, N2, 100))
            dag.add_child(parent, RouterPortIntent(N1, 100))
            return dag

        assert export_dag(build()) == export_dag(build())

    def test_nodes_sort_by_id_and_edges_by_text(self):
        dag = IntentDAG(domain=1)
        parent = dag.add_intent(ConnectivityIntent(N1, N2, 100))
        for _ in range(11):
            dag.add_child(parent, RouterPortIntent(N1, 100))
        nodes, edges = parse_dot(export_dag(dag))
        assert list(nodes) == [f"1#{n}" for n in range(1, 13)]
        assert edges == [("1#1", f"1#{n}") for n in sorted(map(str, range(2, 13)))]

    def test_installed_dag_shows_each_node_state_and_edge(self):
        ctrl, root = installed_domain()
        nodes, edges = parse_dot(export_dag(ctrl.dag))
        assert nodes == {
            str(iid): f"{intent_kind(node.payload)} / {iid} / "
                      f"{ctrl.dag.aggregate_state(iid).value}"
            for iid, node in ctrl.dag.nodes.items()}
        assert nodes[str(root)] == f"connectivity / {root} / installed"
        assert sorted(edges) == sorted((str(iid), str(child)) for iid in ctrl.dag.nodes
                                       for child in ctrl.dag.children(iid))
        assert edges


def installed_domain():
    ctrl = make_domain(nodes=2)
    chain(ctrl, [100.0])
    iid = ctrl.add_intent(ConnectivityIntent(N1, N2, 100))
    compile_connectivity(ctrl, iid)
    install_intent(ctrl, iid)
    return ctrl, iid


class TestExportTopology:
    def test_empty_network(self):
        ctrl = make_domain(nodes=0)
        doc = export_topology({1: ctrl})
        assert doc["domains"][0]["nodes"] == []
        assert doc["domains"][0]["fiber_links"] == []
        assert doc["intents"] == []

    def test_overlay_matches_ledger(self):
        ctrl, iid = installed_domain()
        doc = export_topology({1: ctrl})
        overlay = doc["intents"][0]
        assert overlay["id"] == str(iid)
        assert overlay["paths"] == [{"path": ["1.1", "1.2"], "slots": [1, 4]}]
        link = doc["domains"][0]["fiber_links"][0]
        held = {int(s) for s in link["slots"]}
        assert held == {1, 2, 3, 4}
        holders = set(link["slots"].values())
        assert len(holders) == 1

    def test_down_link_flagged(self):
        ctrl, iid = installed_domain()
        monitor_failure({1: ctrl}, N1, N2, policy=POLICY_NONE)
        doc = export_topology({1: ctrl})
        assert doc["domains"][0]["fiber_links"][0]["operational"] is False
        assert doc["intents"] == []  # nothing installed anymore


class TestMetricsCsv:
    def test_row_count_tracks_offered(self):
        metrics = Metrics(offered=3, blocked=1, installed_ok=2)
        metrics.per_intent = [
            IntentRecord("1#1", "installed", 0.0, 0.0),
            IntentRecord("1#2", "installed", 1.0, 1.0),
            IntentRecord("1#3", "blocked"),
        ]
        text = metrics_csv(metrics)
        lines = text.strip().splitlines()
        summary_rows = 7  # header + 5 summary metrics + per-intent header
        assert len(lines) == metrics.offered + summary_rows
        assert lines[0] == "metric,value"
        assert "offered,3" in lines
        assert lines[-1] == "1#3,blocked,,"


def scenario_log(name):
    return Simulation(parse_scenario((SCENARIOS / name).read_text())).run().event_log


class TestEventLogText:
    @pytest.mark.parametrize("name", ["reference.json", "three_domain_line.json"])
    def test_run_log_matches_the_json_dumps_oracle(self, name):
        log = scenario_log(name)
        assert any(entry["event"] == "message" for entry in log)
        assert event_log_text(log) == oracles.event_log_text(log)

    def test_escaped_body_matches_the_json_dumps_oracle(self):
        body = Remove(remote_id='say "hi" \\ bye\nen été')
        log = [
            {"time": 0.5, "event": "message", "message": Message(1, 2, 3, body)},
            {"time": 0.5, "seq": 1, "event": "departure", "intent": "1#1",
             "state_at_departure": "installed"},
        ]
        text = event_log_text(log)
        assert text == oracles.event_log_text(log)
        assert text.isascii() and text.count("\n") == 2

    def test_message_bodies_are_deeply_frozen(self):
        # event_log_text renders a message long after it was delivered.
        kinds = [*multidomain._HANDLERS, ConnectivityIntent, RouterPortIntent, ExcludeLink]
        for kind in kinds:
            assert dataclasses.is_dataclass(kind) and kind.__dataclass_params__.frozen, kind
        assert issubclass(NodeId, tuple) and issubclass(IntentId, tuple)
        excluding = ConnectivityIntent(NodeId(2, 1), NodeId(2, 3), 100,
                                       (ExcludeLink(NodeId(2, 1), NodeId(2, 2)),))
        bodies = [Delegate(excluding, IntentId(1, 2))] + [
            entry["message"].body
            for name in ("reference.json", "three_domain_line.json")
            for entry in scenario_log(name) if entry["event"] == "message"
        ]
        assert {type(b) for b in bodies} == set(multidomain._HANDLERS)
        assert [m for b in bodies for m in oracles.mutables(b)] == []
