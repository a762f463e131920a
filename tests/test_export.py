import re

from ibnsim.compilation import compile_connectivity, install_intent
from ibnsim.export import export_dag, export_topology, metrics_csv
from ibnsim.intents import ConnectivityIntent, IntentDAG, RouterPortIntent
from ibnsim.network import NodeId
from ibnsim.simulation import POLICY_NONE, IntentRecord, Metrics, monitor_failure

from .builders import chain, make_domain

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
