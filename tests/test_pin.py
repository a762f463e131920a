"""Behaviour pin: the reference run's outputs, byte for byte.

Two runs of the same build agreeing (acceptance criterion 6) does not show
that a change kept the simulator's results; these digests do.  Update them
only for a change that alters the output on purpose, and say why.
"""

import hashlib
import json
from pathlib import Path

from ibnsim.cli import main
from ibnsim.export import export_topology
from ibnsim.scenario import parse_scenario
from ibnsim.simulation import Simulation

REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" / "reference.json"

PINNED_SHA256 = {
    "metrics.csv": "b897d5ff05073d189e82a59188f618a46448b37e8af626b32cf7a072d79d0624",
    "events.log": "ba7af7c1afdfd2a54acf79f143da126c91b17e836c5488e70b274f5a4662eb1c",
    # The final exports: every slot is free again and both DAGs are empty,
    # but topology.json still carries each node's ``stub`` flag.
    "topology.json": "fcd3ee1986d91f4c5933307767a13f0b1ce45b3fc3c226e68dd76555d9a66bc2",
    "state.json": "cc6aa68c306237a575b5240800121047e14ff63810357e0e628992da81eed20b",
    "dag_1.dot": "0d760e83f097e0f12fc6f1fba4dff398b59fff6f2b304f7582c4faeb98ea7ddc",
    "dag_2.dot": "0d760e83f097e0f12fc6f1fba4dff398b59fff6f2b304f7582c4faeb98ea7ddc",
}

# The reference run ends with every slot free, so its final topology.json
# shows no per-slot holders.  Event seq 687 is its busiest: after it, the
# domains hold 812 (fiber, slot) cells, more than after any other event.
BUSIEST_SEQ = 687
BUSIEST_TOPOLOGY_SHA256 = "656fcc780323be8f9ff59db8d897aceea0cd26f612330628a25b994fd5aed0ae"


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

    Simulation(parse_scenario(REFERENCE.read_text()), on_event=on_event).run()
    assert seen == {"cells": 812, "sha256": BUSIEST_TOPOLOGY_SHA256}
