"""Build a two-layer topology and query it.

Every node pairs an IP router (electrical layer) with an optical
cross-connect (optical layer); fibers carry a grid of spectrum slots shared
by both directions.  This script assembles a small five-node metro ring with
one chord and walks through the read-side API: shortest paths, path lengths,
and spectrum availability.
"""

from ibnsim import NetworkGraph, NodeId, OxcView, RouterView, first_fit_spectrum

graph = NetworkGraph(slot_count=16)

# Five nodes: 8 router ports at 400G each, 6 add/drop terminations.
nodes = {}
for local in range(1, 6):
    node = NodeId(1, local)
    graph.add_node(RouterView(node, port_count=8, port_rate=400),
                   OxcView(node, add_drop_capacity=6))
    nodes[local] = node

# A ring with one chord across it.
ring = [(1, 2, 120.0), (2, 3, 90.0), (3, 4, 150.0), (4, 5, 110.0), (5, 1, 80.0)]
for a, b, km in ring:
    graph.add_fiber_link(nodes[a], nodes[b], km)
graph.add_fiber_link(nodes[2], nodes[5], 200.0)

print("nodes:", len(graph.routers), "fibers:", len(graph.fiber_links))

# The three best routes from node 1 to node 3, shortest first.
for path in graph.k_shortest_paths(nodes[1], nodes[3], k=3):
    print(f"  {' -> '.join(str(n) for n in path)}  ({graph.path_length(path):.0f} km)")



def free_slots(path):
    """Slots free on every fiber of ``path``: bit i of a fiber's ``busy``
    mask is set while slot i+1 is held."""
    held = 0
    for link in graph.path_links(path):
        held |= link.busy
    return [slot for slot in range(1, graph.slot_count + 1) if not held >> (slot - 1) & 1]


# Spectrum is all free so far: every slot is usable on any path.
path = [nodes[1], nodes[2], nodes[3]]
print("free slots on 1->2->3:", free_slots(path))

# Occupy a few slots on the 2-3 hop and watch the intersection shrink.
link = graph.link_between(nodes[2], nodes[3])
graph.reserve_spectrum(link, 1, 3, "someone-else")
print("after reserving 1-3 on fiber 2-3:", free_slots(path))
print("first 4-slot block on 1->2->3:", first_fit_spectrum(graph, path, 4))

# Failures remove links from routing without touching their state.
graph.set_link_operational(nodes[1], nodes[2], False)
print("with fiber 1-2 down, best route:",
      [str(n) for n in graph.k_shortest_paths(nodes[1], nodes[3], k=1)[0]])
