"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Derived expectations are checked against the brute-force reference
implementations in oracles.py, never against the code under test.
"""

import dataclasses
import random
import time
from pathlib import Path

import pytest

from ibnsim.cli import main as cli_main
from ibnsim.compilation import (
    CompileOutcome,
    InstallOutcome,
    compile_connectivity,
    compile_probe,
    install_intent,
)
from ibnsim.errors import IllegalTransitionError
from ibnsim.intents import (
    ALLOWED_TRANSITIONS,
    ConnectivityIntent,
    IntentDAG,
    IntentState,
    LightpathIntent,
    RemoteIntent,
)
from ibnsim.network import NodeId, TransmissionMode
from ibnsim.scenario import parse_scenario
from ibnsim.simulation import POLICY_AUTO, POLICY_NONE, Simulation

from .builders import make_domain, reserve
from .oracles import audit_resources, mirror_mismatches, oracle_compile

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
STATES = (
    IntentState.UNCOMPILED,
    IntentState.COMPILED,
    IntentState.INSTALLED,
    IntentState.FAILED,
)


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label} {suffix}"


def load(name):
    return parse_scenario((SCENARIOS / name).read_text())


# -- 1. state-machine fidelity ---------------------------------------------------


def test_criterion_1_state_machine_fidelity():
    rng = random.Random(1)
    dag = IntentDAG(domain=1)
    nodes = [
        dag.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(1, 2), 100))
        for _ in range(25)
    ]
    attempts = 12_000
    violations = 0
    for _ in range(attempts):
        iid = rng.choice(nodes)
        target = rng.choice(STATES)
        before = dag.state(iid)
        legal = (before, target) in ALLOWED_TRANSITIONS
        try:
            dag.transition(iid, target)
            accepted = True
        except IllegalTransitionError:
            accepted = False
        after = dag.state(iid)
        if accepted != legal:
            violations += 1
        if accepted and after is not target:
            violations += 1
        if not accepted and after is not before:
            violations += 1
        if after not in STATES:
            violations += 1
    report(
        1,
        "state-machine fidelity",
        violations == 0,
        f"{attempts} attempts, {violations} violations",
    )


# -- 2. RSA oracle equivalence ---------------------------------------------------


def random_rsa_case(rng):
    n = rng.randint(2, 5)
    grid = rng.choice([8, 12, 16])
    table = tuple(
        TransmissionMode(
            rate=rng.choice([100, 200, 400]),
            reach=float(rng.randint(100, 2000)),
            slots_needed=rng.randint(1, 8),
        )
        for _ in range(rng.randint(1, 4))
    )
    ctrl = make_domain(
        nodes=n, slot_count=grid, ports=99, add_drop=99, mode_table=table
    )
    node_ids = [NodeId(1, i) for i in range(1, n + 1)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                ctrl.graph.add_fiber_link(
                    node_ids[i], node_ids[j], rng.uniform(50.0, 500.0)
                )
    for key in list(ctrl.graph.fiber_links):
        taken = rng.sample(range(1, grid + 1), rng.randint(0, grid // 2))
        if taken:
            reserve(ctrl, key[0], key[1], taken, holder=f"seed-{key}")
    rate = rng.choice([100, 200, 400])
    return ctrl, node_ids[0], node_ids[-1], rate


def test_criterion_2_rsa_oracle_equivalence():
    rng = random.Random(2)
    cases = 250
    mismatches = []
    for case in range(cases):
        ctrl, src, dst, rate = random_rsa_case(rng)
        iid = ctrl.add_intent(ConnectivityIntent(src, dst, rate))
        result = compile_connectivity(ctrl, iid)
        expected = oracle_compile(
            ctrl.graph, ctrl.config.mode_table, src, dst, rate, ctrl.config.k_paths
        )
        if result.outcome is CompileOutcome.BLOCKED:
            if expected is not None:
                mismatches.append((case, "blocked but oracle found a triple"))
            continue
        if expected is None:
            mismatches.append((case, "compiled but oracle says infeasible"))
            continue
        lightpath = next(
            ctrl.dag.payload(c)
            for c in result.children
            if isinstance(ctrl.dag.payload(c), LightpathIntent)
        )
        exp_path, exp_mode, exp_block = expected
        if (
            lightpath.path != tuple(exp_path)
            or lightpath.mode != exp_mode
            or lightpath.slot_range != exp_block
        ):
            mismatches.append((case, f"{lightpath} != {expected}"))
    report(
        2,
        "RSA oracle equivalence",
        not mismatches,
        f"{cases} random graphs, {len(mismatches)} mismatches",
    )


def test_compile_probe_agrees_with_compile_and_oracle():
    # On the criterion-2 graphs: with nothing treated as free the probe is
    # true exactly when compilation compiles; after one install, a probe that
    # treats the installed intent's leaves as free matches the oracle run
    # with those holdings treated as free.
    rng = random.Random(22)
    mismatches = []
    verdicts_changed_by_freeing = 0
    for case in range(250):
        ctrl, src, dst, rate = random_rsa_case(rng)
        probed = compile_probe(ctrl, src, dst, rate, as_free=()) is not None
        iid = ctrl.add_intent(ConnectivityIntent(src, dst, rate))
        compiled = compile_connectivity(ctrl, iid).outcome is CompileOutcome.COMPILED
        if probed != compiled:
            mismatches.append((case, f"probe {probed}, compile {compiled}"))
        if not compiled:
            continue
        assert install_intent(ctrl, iid) is InstallOutcome.INSTALLED
        held = [leaf for leaf, node in ctrl.dag.walk(iid) if not node.children]
        probe_rate = rng.choice([100, 200, 400])
        verdicts = []
        for as_free in ((), held):
            expected = oracle_compile(
                ctrl.graph, ctrl.config.mode_table, src, dst, probe_rate,
                ctrl.config.k_paths, treat_free=as_free,
            ) is not None
            verdicts.append(expected)
            probed = compile_probe(ctrl, src, dst, probe_rate, as_free=as_free) is not None
            if probed != expected:
                mismatches.append((case, f"as_free={as_free}: oracle {expected}"))
        verdicts_changed_by_freeing += verdicts[0] != verdicts[1]
    assert not mismatches
    assert verdicts_changed_by_freeing > 0


# -- 3. no overbooking under load -------------------------------------------------


def overbooking_scenario():
    def dom(did):
        return {
            "id": did,
            "nodes": [
                {"local": i, "ports": 6, "port_rate": 400, "add_drop": 6}
                for i in range(1, 5)
            ],
            "links": [
                {"a": 1, "b": 2, "length": 120.0},
                {"a": 2, "b": 3, "length": 100.0},
                {"a": 3, "b": 4, "length": 140.0},
                {"a": 1, "b": 4, "length": 260.0},
                {"a": 1, "b": 3, "length": 200.0},
            ],
        }

    return parse_scenario(
        {
            "schema": 1,
            "grid_size": 32,
            "seed": 33,
            "domains": [dom(1), dom(2)],
            "border_links": [
                {"a": [1, 4], "b": [2, 1], "length": 200.0},
                {"a": [1, 2], "b": [2, 3], "length": 240.0},
            ],
            "traffic": {
                "arrivals": 1000,
                "arrival_rate": 5.0,
                "mean_holding": 4.0,
                "pairs": "all",
                "rates": [
                    {"gbps": 100, "weight": 2.0},
                    {"gbps": 200, "weight": 1.0},
                ],
            },
        }
    )


def test_criterion_3_no_overbooking():
    violations = []

    def audit(sim, event):
        problems = audit_resources(sim.domains)
        if problems:
            violations.append((event, problems))

    result = Simulation(overbooking_scenario(), on_event=audit).run()
    report(
        3,
        "no overbooking across randomized simulation",
        result.metrics.offered == 1000 and not violations,
        f"{result.metrics.offered} arrivals, {len(violations)} violating events",
    )


# -- 4. delegation consistency ----------------------------------------------------


def test_criterion_4_delegation_consistency():
    scenario = load("three_domain_line.json")
    cross = [
        e for e in scenario.build_events() if e.intent.src.domain != e.intent.dst.domain
    ]
    mismatch_events = []

    def check(sim, event):
        bad = mirror_mismatches(sim.domains)
        if bad:
            mismatch_events.append((event, bad))

    Simulation(scenario, on_event=check).run()
    report(
        4,
        "delegation mirror consistency",
        len(cross) >= 100 and not mismatch_events,
        f"{len(cross)} cross-domain intents, {len(mismatch_events)} bad quiescences",
    )


# -- 5. failure and recovery -------------------------------------------------------


def run_triangle(policy):
    scenario = dataclasses.replace(load("triangle.json"), recovery=policy)
    seen = {}

    def watch(sim, event):
        if event.kind.value == "link_down":
            ctrl = sim.domains[1]
            root = ctrl.dag.roots()[0]
            seen["state"] = ctrl.dag.aggregate_state(root)
            seen["paths"] = [
                node.payload.path
                for _, node in ctrl.dag.walk(root)
                if isinstance(node.payload, LightpathIntent)
            ]

    result = Simulation(scenario, on_event=watch).run()
    return result, seen


def test_criterion_5_failure_recovery():
    auto_result, auto_seen = run_triangle(POLICY_AUTO)
    none_result, none_seen = run_triangle(POLICY_NONE)
    backup = (NodeId(1, 1), NodeId(1, 3), NodeId(1, 2))
    auto_ok = (
        auto_seen["state"] is IntentState.INSTALLED
        and auto_seen["paths"] == [backup]
        and auto_result.metrics.failures_recovered == 1
    )
    none_ok = (
        none_seen["state"] is IntentState.FAILED
        and none_result.metrics.failures_recovered == 0
    )
    report(
        5,
        "failure drives failed state; auto-recompile restores on disjoint path",
        auto_ok and none_ok,
        f"auto={auto_seen['state'].value}, none={none_seen['state'].value}",
    )


# -- 6. deterministic replay --------------------------------------------------------


def test_criterion_6_deterministic_replay(tmp_path):
    elapsed = []
    outputs = []
    for label in ("a", "b"):
        out = tmp_path / label
        start = time.perf_counter()
        code = cli_main(
            ["run", str(SCENARIOS / "reference.json"), "--out", str(out), "--seed", "7"]
        )
        elapsed.append(time.perf_counter() - start)
        assert code == 0
        outputs.append(
            (
                (out / "metrics.csv").read_bytes(),
                (out / "events.log").read_bytes(),
            )
        )
    identical = outputs[0] == outputs[1]
    fast = max(elapsed) < 10.0
    report(
        6,
        "deterministic replay of the reference scenario",
        identical and fast,
        f"max wall {max(elapsed):.2f}s",
    )


# -- 7. conservation ------------------------------------------------------------------


def test_criterion_7_conservation():
    result = Simulation(load("reference.json")).run()
    m = result.metrics
    ledgers_empty = all(
        ctrl.graph.reserved_cells == 0
        and not any(r.port_holders for r in ctrl.graph.routers.values())
        for ctrl in result.domains.values()
    )
    leftovers_ok = True
    for ctrl in result.domains.values():
        for iid in ctrl.dag.roots():
            if ctrl.dag.aggregate_state(iid) is not IntentState.UNCOMPILED:
                leftovers_ok = False
    report(
        7,
        "end-of-run conservation and clean ledgers",
        m.offered == m.blocked + m.installed_ok and ledgers_empty and leftovers_ok,
        f"offered={m.offered} blocked={m.blocked} installed={m.installed_ok}",
    )


# -- 8. blocking derivation ------------------------------------------------------------


def test_criterion_8_blocking_derivation():
    result = Simulation(load("single_link.json")).run()
    m = result.metrics
    # Capacity arithmetic: an 8-slot grid admits exactly two 4-slot lightpaths.
    ok = m.offered == 3 and m.blocked == 1 and m.installed_ok == 2
    report(
        8,
        "single-link blocking matches capacity arithmetic",
        ok,
        f"offered={m.offered} blocked={m.blocked}",
    )
