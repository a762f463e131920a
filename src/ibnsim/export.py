"""Static exports: intent DAGs as Graphviz DOT, topology and metrics files.

Every export sorts identifiers so equal inputs produce byte-equal output,
which keeps golden-file comparisons and replay-determinism checks simple.
"""

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .intents import HOLDING_STATES, IntentDAG, IntentState, LightpathIntent, intent_kind
from .simulation import Metrics


# -- intent DAG ---------------------------------------------------------------


def export_dag(dag: IntentDAG) -> str:
    """Render a DAG as Graphviz DOT, one node per intent, stable ordering."""
    lines = ["digraph intents {"]
    for iid in sorted(dag.nodes):
        label = f"{intent_kind(dag.payload(iid))} / {iid} / {dag.aggregate_state(iid).value}"
        lines.append(f'  "{iid}" [label="{label}"];')
    edges = sorted((str(parent), str(child)) for parent in dag.nodes
                   for child in dag.children(parent))
    for parent, child in edges:
        lines.append(f'  "{parent}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- topology -----------------------------------------------------------------


def export_topology(domains: dict) -> dict:
    """Snapshot of every domain's graph plus overlays for installed intents."""
    doc = {"domains": [], "intents": []}
    for did in sorted(domains):
        ctrl = domains[did]
        graph = ctrl.graph
        nodes = []
        for node in sorted(graph.routers):
            router = graph.routers[node]
            oxc = graph.oxcs[node]
            nodes.append(
                {
                    "id": str(node),
                    "ports": router.port_count,
                    "port_rate": router.port_rate,
                    "ports_used": router.ports_used,
                    "add_drop": oxc.add_drop_capacity,
                    "add_drop_used": oxc.add_drop_used,
                    "stub": node.domain != did,
                }
            )
        links = []
        for key in sorted(graph.fiber_links):
            link = graph.fiber_links[key]
            holders = {str(slot): str(holder) for slot, holder in link.slot_holders().items()}
            links.append(
                {
                    "a": str(key[0]),
                    "b": str(key[1]),
                    "length": link.length,
                    "operational": link.operational,
                    "border": key[0].domain != key[1].domain,
                    "slots": holders,
                }
            )
        # Every lightpath that holds reservations is a virtual link.
        virtual = [
            {
                "a": str(node.payload.path[0]),
                "b": str(node.payload.path[-1]),
                "capacity": node.payload.mode.rate,
                "lightpath": str(iid),
            }
            for iid, node in sorted(ctrl.dag.nodes.items())
            if isinstance(node.payload, LightpathIntent)
            and node.state in HOLDING_STATES
        ]
        doc["domains"].append(
            {"id": did, "nodes": nodes, "fiber_links": links, "virtual_links": virtual}
        )

        for iid in sorted(ctrl.dag.roots()):
            if ctrl.dag.aggregate_state(iid) is not IntentState.INSTALLED:
                continue
            overlays = [
                {
                    "path": [str(n) for n in node.payload.path],
                    "slots": list(node.payload.slot_range),
                }
                for _, node in ctrl.dag.walk(iid)
                if isinstance(node.payload, LightpathIntent)
            ]
            doc["intents"].append(
                {
                    "domain": did,
                    "id": str(iid),
                    "kind": intent_kind(ctrl.dag.payload(iid)),
                    "state": "installed",
                    "paths": overlays,
                }
            )
    return doc


# -- metrics ---------------------------------------------------------------------


def metrics_csv(metrics: Metrics) -> str:
    """Metrics as CSV: summary `metric,value` rows, then one row per intent."""
    lines = [
        "metric,value",
        f"offered,{metrics.offered}",
        f"blocked,{metrics.blocked}",
        f"installed_ok,{metrics.installed_ok}",
        f"failures_recovered,{metrics.failures_recovered}",
        f"mean_slot_utilization,{metrics.mean_slot_utilization()!r}",
        "intent_id,outcome,compile_time,install_time",
    ]
    for record in metrics.per_intent:
        compile_time = "" if record.compile_time is None else repr(record.compile_time)
        install_time = "" if record.install_time is None else repr(record.install_time)
        lines.append(
            f"{record.intent_id},{record.outcome},{compile_time},{install_time}"
        )
    return "\n".join(lines) + "\n"


# json.dumps(sort_keys=True) of a message entry, as one template.
_MESSAGE_LINE = ('{{"body": {}, "event": "message", "from": {}, "kind": "{}", '
                 '"mseq": {}, "time": {}, "to": {}}}\n')


def event_log_text(event_log: list) -> str:
    """Replayable event log, one JSON object per line with sorted keys; a
    message entry holds the delivered ``Message``, rendered here."""
    lines = []
    for entry in event_log:
        if entry["event"] == "message":
            msg = entry["message"]
            lines.append(_MESSAGE_LINE.format(
                encode_basestring_ascii(repr(msg.body)), msg.sender, msg.kind(),
                msg.seq, float.__repr__(entry["time"]), msg.receiver))
        else:
            lines.append(json.dumps(entry, sort_keys=True) + "\n")
    return "".join(lines)


# -- run artifacts ------------------------------------------------------------------


def write_run_artifacts(out_dir, result) -> list:
    """Write metrics, event log, topology and one DAG per domain.

    Returns the list of written paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def _write(name, text):
        path = out / name
        path.write_text(text)
        written.append(path)

    _write("metrics.csv", metrics_csv(result.metrics))
    _write("events.log", event_log_text(result.event_log))
    _write("topology.json", json.dumps(export_topology(result.domains), indent=2,
                                       sort_keys=True) + "\n")
    for did in sorted(result.domains):
        _write(f"dag_{did}.dot", export_dag(result.domains[did].dag))
    return written
