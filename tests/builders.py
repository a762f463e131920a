"""Shared topology builders for the test suite."""

import sys
from pathlib import Path

from ibnsim.multidomain import DomainConfig, DomainController, route_domains
from ibnsim.network import NodeId

ROOT = Path(__file__).resolve().parent.parent


def scenario_text(name: str) -> str:
    """Text of ``scenarios/<name>``, or for ``churn-<seed>`` the benchmark's
    multidomain-churn workload generated from that seed, as
    ``tests/test_generated_pins.py`` builds it."""
    if not name.startswith("churn-"):
        return (ROOT / "scenarios" / name).read_text()
    bench = str(ROOT / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    from workloads import scenario_text as workload_text

    return workload_text("multidomain-churn", int(name.removeprefix("churn-")))


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
    each fiber's holder masks and ``busy`` mask, port holders, add/drop
    holders and ``reserved_cells``."""
    graph = ctrl.graph
    return (
        {key: (dict(link.holders), link.busy) for key, link in graph.fiber_links.items()},
        {node: set(router.port_holders) for node, router in graph.routers.items()},
        {node: set(oxc.add_drop_holders) for node, oxc in graph.oxcs.items()},
        graph.reserved_cells,
    )


def make_domains(sizes, borders, slot_count=8, ports=8, add_drop=8):
    """Wire several controllers together.

    ``sizes`` maps domain id -> node count (nodes form a chain of 100 km
    fibers); ``borders`` is a list of (NodeId, NodeId, length) pairs.
    """
    domains = {}
    for did in sorted(sizes):
        ctrl = make_domain(
            domain_id=did,
            nodes=sizes[did],
            slot_count=slot_count,
            ports=ports,
            add_drop=add_drop,
        )
        chain(ctrl, [100.0] * (sizes[did] - 1))
        domains[did] = ctrl
    for a, b, length in borders:
        domains[a.domain].add_border_link(a, b, length)
        domains[b.domain].add_border_link(b, a, length)
    route_domains(domains)
    return domains
