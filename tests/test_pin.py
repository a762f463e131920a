"""Behaviour pins: the reference and domain-ring runs' outputs, byte for byte.

Two runs of the same build agreeing (acceptance criterion 6) does not show
that a change kept the simulator's results; these digests do.  Update them
only for a change that alters the output on purpose, and say why.
"""

import hashlib
import json
from pathlib import Path

from ibnsim.cli import main
from ibnsim.export import export_dag, export_topology
from ibnsim.scenario import parse_scenario
from ibnsim.simulation import Simulation

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
REFERENCE = SCENARIOS / "reference.json"
DOMAIN_RING = SCENARIOS / "domain_ring.json"

PINNED_SHA256 = {
    "metrics.csv": "b897d5ff05073d189e82a59188f618a46448b37e8af626b32cf7a072d79d0624",
    "events.log": "ba7af7c1afdfd2a54acf79f143da126c91b17e836c5488e70b274f5a4662eb1c",
    # The final exports: every slot is free again and both DAGs are empty,
    # but topology.json still carries each node's ``stub`` flag.
    "topology.json": "fcd3ee1986d91f4c5933307767a13f0b1ce45b3fc3c226e68dd76555d9a66bc2",
    "dag_1.dot": "0d760e83f097e0f12fc6f1fba4dff398b59fff6f2b304f7582c4faeb98ea7ddc",
    "dag_2.dot": "0d760e83f097e0f12fc6f1fba4dff398b59fff6f2b304f7582c4faeb98ea7ddc",
}

# The reference run ends with every slot free and both DAGs empty, so its
# final topology.json shows no per-slot holders and each dag_<id>.dot is
# ``digraph intents {}``.  Event seq 687 is its busiest: after it, the
# domains hold 812 (fiber, slot) cells, more than after any other event, and
# the two DAGs render to 266 and 293 lines of DOT, remote mirrors included.
BUSIEST_SEQ = 687
BUSIEST_TOPOLOGY_SHA256 = "656fcc780323be8f9ff59db8d897aceea0cd26f612330628a25b994fd5aed0ae"
BUSIEST_DAG_SHA256 = {
    1: "61d445467bc0dd55aae1840bd08fe2acad180efc21e95ac6e28cc67e4c5223ea",
    2: "e1ccd3fd25274d16194c1e4a8f0967511e0aef3addbb6e7d30205e5c69fb3728",
}


def test_reference_run_outputs_match_pin(tmp_path):
    assert main(["run", str(REFERENCE), "--seed", "7", "--out", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_SHA256
    }
    assert digests == PINNED_SHA256


def test_reference_topology_at_busiest_event_matches_pin():
    seen = {}

    def on_event(sim, event):
        if event.seq == BUSIEST_SEQ:
            seen["cells"] = sum(ctrl.graph.reserved_cells for ctrl in sim.domains.values())
            text = json.dumps(export_topology(sim.domains), indent=2, sort_keys=True) + "\n"
            seen["sha256"] = hashlib.sha256(text.encode()).hexdigest()
            seen["dags"] = {did: hashlib.sha256(export_dag(ctrl.dag).encode()).hexdigest()
                            for did, ctrl in sim.domains.items()}

    Simulation(parse_scenario(REFERENCE.read_text()), on_event=on_event).run()
    assert seen == {"cells": 812, "sha256": BUSIEST_TOPOLOGY_SHA256, "dags": BUSIEST_DAG_SHA256}


# Five domains in a ring with the chord 1-3, one border fiber per pair of
# neighbours, border fibers failing under cross-domain traffic.  The pinned
# scenarios above form a tree of domains, where the next hop has no choice
# to get wrong; this one does.
DOMAIN_RING_SHA256 = {
    "metrics.csv": "e7566ff6c782641ee31991d7265710466f2837d74059b8dfb3e3996e9ec442fa",
    "events.log": "568eb04ca854a69ab4740074b9fe0eb0b53affed6393b59ebd411fee8441749e",
}

# (seq, src, dst) of the arrivals that block `no-path` only because
# route_domains fixes one neighbour per destination whatever the fibers'
# state (ROADMAP item 3): each had an up border detour.  A next hop that
# sees link state turns these into installs; re-pin the digests with it.
LINK_BLIND_BLOCKS = [
    (6, "1.1", "3.1"), (7, "1.2", "4.1"), (8, "3.3", "1.1"), (15, "3.3", "4.3"),
    (17, "4.1", "3.2"), (27, "2.3", "5.1"), (28, "5.1", "2.3"),
]


def test_domain_ring_run_outputs_match_pin(tmp_path):
    assert main(["run", str(DOMAIN_RING), "--out", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in DOMAIN_RING_SHA256
    }
    assert digests == DOMAIN_RING_SHA256


def reachable_domains(domains, start):
    """Domains reachable from ``start`` over operational border fibers."""
    neighbours = {}
    for ctrl in domains.values():
        for (a, b), link in ctrl.graph.fiber_links.items():
            if a.domain != b.domain and link.operational:
                neighbours.setdefault(a.domain, set()).add(b.domain)
                neighbours.setdefault(b.domain, set()).add(a.domain)
    seen, stack = {start}, [start]
    while stack:
        for nxt in neighbours.get(stack.pop(), ()) - seen:
            seen.add(nxt)
            stack.append(nxt)
    return seen


def test_domain_ring_no_path_blocks_are_the_link_blind_next_hop():
    # Each domain is a triangle with at most one of its fibers down at a
    # time, so a reachable domain is a reachable node.
    detour = {}

    def on_event(sim, event):
        if event.intent is not None:
            src, dst = event.intent.src, event.intent.dst
            detour[event.seq] = dst.domain in reachable_domains(sim.domains, src.domain)

    result = Simulation(parse_scenario(DOMAIN_RING.read_text()), on_event=on_event).run()
    no_path = [(e["seq"], e["src"], e["dst"]) for e in result.event_log
               if e["event"] == "arrival" and e["reason"] == "no-path"]
    assert no_path == LINK_BLIND_BLOCKS
    assert all(detour[seq] for seq, _, _ in no_path)
