"""The intent lifecycle: uncompiled -> compiled -> installed and back.

A connectivity intent states a goal ("connect 1.1 to 1.3 at 100 Gbps").
Compilation picks an implementation and records it as child intents in the
DAG: one router port at each end plus a lightpath holding a contiguous
spectrum block.  Installation reserves those resources transactionally.
"""

from ibnsim import ConnectivityIntent, DomainController, NodeId, export_dag, export_topology
from ibnsim.compilation import (
    compile_connectivity,
    install_intent,
    uninstall_intent,
)

ctrl = DomainController(id=1)
ctrl.graph.slot_count = 16
for local in (1, 2, 3):
    ctrl.add_node(local, port_count=8, port_rate=400, add_drop=6)
ctrl.graph.add_fiber_link(NodeId(1, 1), NodeId(1, 2), 220.0)
ctrl.graph.add_fiber_link(NodeId(1, 2), NodeId(1, 3), 180.0)


def show(label):
    print(f"--- {label}")
    for iid in sorted(ctrl.dag.nodes):
        payload = ctrl.dag.payload(iid)
        agg = ctrl.dag.aggregate_state(iid)
        print(f"  {iid}  {type(payload).__name__:<18} {agg.value}")


iid = ctrl.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(1, 3), 100))
show("added (unprocessed)")

result = compile_connectivity(ctrl, iid)
print("compilation outcome:", result.outcome.value)
show("compiled (implementation chosen, nothing reserved yet)")

install_intent(ctrl, iid)
show("installed (slots, ports, add/drop reserved)")
print("reserved slot cells:", ctrl.graph.reserved_cells)
print("virtual links:", [(v["a"], v["b"], v["capacity"]) for v in
                         export_topology({1: ctrl})["domains"][0]["virtual_links"]])

# The DAG renders to Graphviz DOT for inspection.
print("--- DOT export")
print(export_dag(ctrl.dag), end="")

uninstall_intent(ctrl, iid)
show("uninstalled (resources released, implementation kept)")
print("reserved slot cells:", ctrl.graph.reserved_cells)
