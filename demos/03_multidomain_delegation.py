"""Intent delegation across three autonomous domains.

Domains coordinate decentrally: each controller only knows its own topology
plus border-link stubs.  A connectivity intent whose destination lies two
domains away is split at a border link; the far piece travels as a DELEGATE
message, recursively, and STATE_NOTIFY messages mirror the remote state back
so the delegator's intent DAG always reflects reality.
"""

from ibnsim import ConnectivityIntent, NodeId, parse_scenario
from ibnsim.multidomain import deliver_messages

SCENARIO = {
    "schema": 1,
    "grid_size": 16,
    "domains": [
        {
            "id": d,
            "nodes": [
                {"local": i, "ports": 8, "port_rate": 400, "add_drop": 6}
                for i in (1, 2, 3)
            ],
            "links": [
                {"a": 1, "b": 2, "length": 100.0},
                {"a": 2, "b": 3, "length": 100.0},
            ],
        }
        for d in (1, 2, 3)
    ],
    "border_links": [
        {"a": [1, 3], "b": [2, 1], "length": 200.0},
        {"a": [2, 3], "b": [3, 1], "length": 200.0},
    ],
}

domains = parse_scenario(SCENARIO).build_domains()
d1 = domains[1]

iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(3, 3), 100))
print(f"domain 1 received intent {iid}: 1.1 -> 3.3 at 100 Gbps")

result = d1.compile(iid)
print("local compilation:", result.outcome.value)
print("domain 1 aggregate before any message exchange:",
      d1.dag.aggregate_state(iid).value)

print("--- message exchange to quiescence")
for msg in deliver_messages(domains):
    print(f"  d{msg.sender} -> d{msg.receiver}  #{msg.seq:<3} {msg.kind()}")

print("domain 1 aggregate after quiescence:", d1.dag.aggregate_state(iid).value)

for did in sorted(domains):
    ctrl = domains[did]
    print(f"--- domain {did} DAG")
    for node_id in sorted(ctrl.dag.nodes):
        payload = ctrl.dag.payload(node_id)
        state = ctrl.dag.aggregate_state(node_id).value
        print(f"  {node_id}  {type(payload).__name__:<18} {state}")

# Installation walks the same route: local reservations plus an INSTALL
# request per delegated piece, confirmed by notifications.
print("--- install")
d1.install(iid)
deliver_messages(domains)
print("outcome:", d1.dag.aggregate_state(iid).value)
for did in sorted(domains):
    print(f"  domain {did} reserved cells:", domains[did].graph.reserved_cells)
