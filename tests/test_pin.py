"""Behaviour pin: the reference run's outputs, byte for byte.

Two runs of the same build agreeing (acceptance criterion 6) does not show
that a change kept the simulator's results; these digests do.  Update them
only for a change that alters the output on purpose, and say why.
"""

import hashlib
from pathlib import Path

from ibnsim.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" / "reference.json"

PINNED_SHA256 = {
    "metrics.csv": "b897d5ff05073d189e82a59188f618a46448b37e8af626b32cf7a072d79d0624",
    "events.log": "ba7af7c1afdfd2a54acf79f143da126c91b17e836c5488e70b274f5a4662eb1c",
}


def test_reference_run_outputs_match_pin(tmp_path):
    assert main(["run", str(REFERENCE), "--seed", "7", "--out", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_SHA256
    }
    assert digests == PINNED_SHA256
