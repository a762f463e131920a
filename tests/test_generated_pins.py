"""Generated workloads whose output depends on Yen's order of equal-length
candidates, replayed against ``perfbench/pins.json``.

``tests/test_pin.py`` covers only the reference run, which has no such tie.
These seeds change their output when candidates are ranked by
``path_length`` instead of root km + spur km, so a routing change that
alters the order of any tie fails here, not only in the benchmark.  The
pins are read, never written: re-pin with ``python3 perfbench/pin.py``.

The churn runs fail fibers in every domain, so they also check, after every
event, that each delegator has heard the current aggregate of what it
delegated: that is what lets a link-down skip the domains that do not know
the fiber.  They check as well that each DAG's failed-leaf index holds
exactly its failed intents: that is what lets a link-up visit only the
roots of failed leaves.
"""

import json
import sys
from pathlib import Path

import pytest

from ibnsim import scenario, simulation

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

from run import result_record  # noqa: E402
from workloads import scenario_text  # noqa: E402

from .oracles import failed_index_mismatches, notification_mismatches  # noqa: E402

PINS = json.loads((BENCH / "pins.json").read_text())
TIE_SENSITIVE = [("intra-mesh", 0), ("intra-mesh", 12),
                 ("multidomain-churn", 27), ("multidomain-churn", 41)]


@pytest.mark.parametrize("workload, seed", TIE_SENSITIVE,
                         ids=[f"{w}-{s}" for w, s in TIE_SENSITIVE])
def test_generated_run_matches_pin(workload, seed):
    unheard = []

    def audit(sim, event):
        for ctrl in sim.domains.values():
            unheard.extend((event, p) for p in notification_mismatches(ctrl))
            unheard.extend((event, p) for p in failed_index_mismatches(ctrl))

    parsed = scenario.parse_scenario(scenario_text(workload, seed))
    result = simulation.Simulation(parsed, on_event=audit).run()
    assert result_record(result) == PINS[workload][str(seed)]
    assert unheard == []
