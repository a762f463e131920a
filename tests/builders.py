"""Shared topology builders for the test suite."""

from ibnsim.multidomain import DomainConfig, DomainController
from ibnsim.network import NodeId


def make_domain(
    domain_id=1,
    nodes=2,
    slot_count=8,
    ports=4,
    port_rate=400,
    add_drop=4,
    k_paths=3,
    mode_table=None,
):
    """A controller with ``nodes`` nodes and no links."""
    config = DomainConfig(k_paths=k_paths)
    if mode_table is not None:
        config.mode_table = tuple(mode_table)
    ctrl = DomainController(id=domain_id, config=config)
    ctrl.graph.slot_count = slot_count
    for local in range(1, nodes + 1):
        ctrl.add_node(local, ports, port_rate, add_drop)
    return ctrl


def chain(ctrl, lengths):
    """Link node i to node i+1 with the given lengths."""
    for i, length in enumerate(lengths, start=1):
        ctrl.graph.add_fiber_link(
            NodeId(ctrl.id, i), NodeId(ctrl.id, i + 1), length
        )


def reserve(ctrl, a, b, slots, holder="seed"):
    """Book specific slots on the fiber a-b for ``holder`` through the graph."""
    link = ctrl.graph.link_between(a, b)
    for slot in slots:
        ctrl.graph.reserve_spectrum(link, slot, slot, holder)


def snapshot(ctrl):
    """Frozen copy of every booking in the graph, for atomicity checks:
    slot grids, port holders, add/drop holders and ``reserved_cells``."""
    graph = ctrl.graph
    return (
        {key: list(link.slot_grid) for key, link in graph.fiber_links.items()},
        {node: dict(router.port_holders) for node, router in graph.routers.items()},
        {node: set(oxc.add_drop_holders) for node, oxc in graph.oxcs.items()},
        graph.reserved_cells,
    )


def make_domains(sizes, borders, slot_count=8, ports=8, add_drop=8):
    """Wire several controllers together.

    ``sizes`` maps domain id -> node count (nodes form a chain of 100 km
    fibers); ``borders`` is a list of (NodeId, NodeId, length) pairs.
    """
    registry = {}
    domains = {}
    for did in sorted(sizes):
        ctrl = make_domain(
            domain_id=did,
            nodes=sizes[did],
            slot_count=slot_count,
            ports=ports,
            add_drop=add_drop,
        )
        ctrl.registry = registry
        for node in list(ctrl.graph.routers):
            registry[node] = did
        chain(ctrl, [100.0] * (sizes[did] - 1))
        domains[did] = ctrl
    for a, b, length in borders:
        domains[a.domain].add_border_link(a, b, length)
        domains[b.domain].add_border_link(b, a, length)

    adjacency = {did: set() for did in domains}
    for a, b, _ in borders:
        adjacency[a.domain].add(b.domain)
        adjacency[b.domain].add(a.domain)
    for did, ctrl in domains.items():
        hops = {}
        for start in adjacency:
            dist = {start: 0}
            frontier = [start]
            while frontier:
                nxt = []
                for node in frontier:
                    for neighbor in sorted(adjacency[node]):
                        if neighbor not in dist:
                            dist[neighbor] = dist[node] + 1
                            nxt.append(neighbor)
                frontier = nxt
            hops[start] = dist
        ctrl.neighbor_hops = {n: hops[n] for n in ctrl.neighbors()}
    return domains
