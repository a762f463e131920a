"""Monitoring in action: a fiber cut fails intents; recompilation recovers them.

The triangle topology has a short working path (1.1 - 1.2) and a longer
disjoint backup (1.1 - 1.3 - 1.2).  When the working fiber goes down, every
installed lightpath riding it turns failed; under the auto-recompile policy
the controller probes for an alternative, releases the dead reservations,
and reinstalls on the backup.  With the policy disabled the intent simply
stays failed, keeping its reservations, until something else intervenes.
"""

import dataclasses

from ibnsim import parse_scenario
from ibnsim.intents import LightpathIntent
from ibnsim.simulation import Simulation

TRIANGLE = {
    "schema": 1,
    "grid_size": 8,
    "domains": [
        {
            "id": 1,
            "nodes": [
                {"local": i, "ports": 8, "port_rate": 400, "add_drop": 6}
                for i in (1, 2, 3)
            ],
            "links": [
                {"a": 1, "b": 2, "length": 100.0},
                {"a": 2, "b": 3, "length": 100.0},
                {"a": 1, "b": 3, "length": 300.0},
            ],
        }
    ],
    "events": [
        {"time": 0.0, "kind": "arrival", "src": [1, 1], "dst": [1, 2],
         "rate": 100, "holding": 60.0},
        {"time": 5.0, "kind": "link_down", "a": [1, 1], "b": [1, 2]},
        {"time": 20.0, "kind": "link_up", "a": [1, 1], "b": [1, 2]},
    ],
}


def trace(policy):
    print(f"=== recovery policy: {policy}")
    scenario = dataclasses.replace(parse_scenario(TRIANGLE), recovery=policy)

    def watch(sim, event):
        ctrl = sim.domains[1]
        roots = ctrl.dag.roots()
        if not roots:
            return
        root = roots[0]
        paths = [
            "-".join(str(n) for n in ctrl.dag.payload(leaf).path)
            for leaf in ctrl.dag.leaves_under(root)
            if isinstance(ctrl.dag.payload(leaf), LightpathIntent)
        ]
        print(f"  t={event.time:>5.1f} {event.kind.value:<9} "
              f"intent={ctrl.dag.aggregate_state(root).value:<9} paths={paths}")

    result = Simulation(scenario, on_event=watch).run()
    print(f"  recovered intents: {result.metrics.failures_recovered}")


trace("auto-recompile")
trace("none")
