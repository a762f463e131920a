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
roots of failed leaves.  And they check that every copy of a fiber is up or
down alike: ``simulation._set_link_state`` writes each copy without looking
at the others first.

A churn run also checks that recovery rebuilds each failed piece from the
plan its probe found, with one ``_plan`` call per attempt, and that an
attempt walks its piece once and strips it without ``uninstall_intent`` or
``remove_intent``.
"""

import json
import sys
from pathlib import Path

import pytest

import ibnsim
from ibnsim import compilation, intents, multidomain, scenario, simulation
from ibnsim.intents import LightpathIntent

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

from run import result_record  # noqa: E402
from workloads import scenario_text  # noqa: E402

from .oracles import (  # noqa: E402
    failed_index_mismatches,
    link_state_problems,
    notification_mismatches,
)

PINS = json.loads((BENCH / "pins.json").read_text())
TIE_SENSITIVE = [("intra-mesh", 0), ("intra-mesh", 12),
                 ("multidomain-churn", 27), ("multidomain-churn", 41)]


@pytest.mark.parametrize("workload, seed", TIE_SENSITIVE,
                         ids=[f"{w}-{s}" for w, s in TIE_SENSITIVE])
def test_generated_run_matches_pin(workload, seed):
    problems = []

    def audit(sim, event):
        for ctrl in sim.domains.values():
            problems.extend((event, p) for p in notification_mismatches(ctrl))
            problems.extend((event, p) for p in failed_index_mismatches(ctrl))
        problems.extend((event, p) for p in link_state_problems(sim.domains))

    parsed = scenario.parse_scenario(scenario_text(workload, seed))
    result = simulation.Simulation(parsed, on_event=audit).run()
    assert result_record(result) == PINS[workload][str(seed)]
    assert problems == []


def test_recovery_installs_the_plan_its_probe_found(monkeypatch):
    probe, plan = simulation.compile_probe, compilation._plan
    attempt, install = simulation._attempt_recovery, simulation.install_intent
    walk, uninstall = intents.IntentDAG.walk, compilation.uninstall_intent
    attempts = []  # [_plan calls, probes] of each recovery attempt
    active = []  # the counts of the attempt running now
    plans = []  # what each probe returned
    rebuilt = []  # (rebuilt lightpath, the plan probed for it)
    walks = []  # (piece, ids the attempt walked; None marks its install)
    stripped = []  # uninstall_intent and remove_intent calls during an attempt

    def counted_plan(*args, **kwargs):
        if active:
            active[-1][0] += 1
        return plan(*args, **kwargs)

    def recorded_probe(*args, **kwargs):
        active[-1][1] += 1
        plans.append(probe(*args, **kwargs))
        return plans[-1]

    def recorded_walk(dag, iid):
        if active:
            walks[-1][1].append(iid)
        return walk(dag, iid)

    def recorded_install(ctrl, iid):  # in simulation, only recovery installs
        lightpath, = (node.payload for _, node in walk(ctrl.dag, iid)
                      if isinstance(node.payload, LightpathIntent))
        path, mode, block = plans[-1]
        rebuilt.append(((lightpath.path, lightpath.mode, lightpath.slot_range),
                        (tuple(path), mode, block)))
        walks[-1][1].append(None)
        return install(ctrl, iid)

    def stripping(name, function):
        def recorded(*args, **kwargs):
            if active:
                stripped.append(name)
            return function(*args, **kwargs)
        return recorded

    def counted_attempt(ctrl, piece):
        attempts.append([0, 0])
        active.append(attempts[-1])
        walks.append((piece, []))
        try:
            return attempt(ctrl, piece)
        finally:
            active.pop()

    monkeypatch.setattr(compilation, "_plan", counted_plan)
    monkeypatch.setattr(simulation, "compile_probe", recorded_probe)
    monkeypatch.setattr(simulation, "install_intent", recorded_install)
    monkeypatch.setattr(simulation, "_attempt_recovery", counted_attempt)
    monkeypatch.setattr(intents.IntentDAG, "walk", recorded_walk)
    monkeypatch.setattr(intents.IntentDAG, "remove_intent", stripping(
        "remove_intent", intents.IntentDAG.remove_intent))
    # Every module that binds uninstall_intent by name gets the recorder.
    for module in (ibnsim, compilation, multidomain, simulation):
        if getattr(module, "uninstall_intent", None) is uninstall:
            monkeypatch.setattr(module, "uninstall_intent",
                                stripping("uninstall_intent", uninstall))
    result = simulation.Simulation(
        scenario.parse_scenario(scenario_text("multidomain-churn", 4))).run()

    assert result_record(result) == PINS["multidomain-churn"]["4"]
    # Every attempt has a failed piece to probe, and plans it once.
    assert all(counts == [1, 1] for counts in attempts)
    feasible = [p for p in plans if p is not None]
    assert 0 < len(feasible) < len(plans)
    assert len(rebuilt) == len(feasible) >= result.metrics.failures_recovered > 0
    assert all(lightpath == probed for lightpath, probed in rebuilt)
    # An attempt walks its piece once, and the install walks it once more.
    assert all(ids in ([piece], [piece, None, piece]) for piece, ids in walks)
    assert stripped == []
