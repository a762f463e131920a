"""Checks of the benchmark's own parts: tracer, generator, pins and metric list.

Run with:  python3 -m pytest perfbench -q
"""

import cProfile
import itertools
import json
import pstats
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ibnsim import cli, export, scenario, simulation  # noqa: E402,F401  (cli: see originals)

import run  # noqa: E402
from tracer import TARGETS, Tracer, span_name  # noqa: E402
from workloads import scenario_text  # noqa: E402

LINE = (ROOT / "scenarios" / "three_domain_line.json").read_text()


def simulate_and_export(text, out_dir):
    sim = simulation.Simulation(scenario.parse_scenario(text))
    export.write_run_artifacts(out_dir, sim.run())


def originals():
    """Every attribute of the ibnsim modules and of the classes holding targets.

    ``cli`` is imported above so that its by-name imports are included.
    """
    owners = [m for n, m in sys.modules.items() if n == "ibnsim" or n.startswith("ibnsim.")]
    owners += [
        getattr(sys.modules[f"ibnsim.{module}"], attr.split(".")[0])
        for module, attr in TARGETS if "." in attr
    ]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_call_counts_equal_cprofile_ncalls(tmp_path):
    profile = cProfile.Profile()
    profile.runcall(simulate_and_export, LINE, tmp_path / "profiled")
    ncalls = {(f, line, name): stat[1] for (f, line, name), stat in pstats.Stats(profile).stats.items()}

    with Tracer() as tracer:
        simulate_and_export(LINE, tmp_path / "traced")
    counted = Counter(tracer.names[span[0]] for span in tracer.spans)

    for module, attr in TARGETS:
        owner = sys.modules[f"ibnsim.{module}"]
        for part in attr.split("."):
            owner = getattr(owner, part)
        code = owner.__code__
        expected = ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        assert counted[span_name(module, attr)] == expected, (module, attr)
    assert counted["compilation.compile_connectivity"] > 0
    assert counted["multidomain.handle_message"] > 0


def test_self_time_of_nested_and_recursive_spans(tmp_path):
    # With a clock that ticks once per reading, a span's duration is one tick
    # plus two per span below it, so its self time must be one tick plus one
    # per direct child, whatever the nesting, recursion included.
    tracer = Tracer(clock=itertools.count().__next__)
    with tracer:
        simulate_and_export(LINE, tmp_path)
    ticks = 2 * len(tracer.spans)
    calls, self_ticks, rest = tracer.self_times(0, ticks)
    expected = Counter(tracer.names[name] for name, _, _, _ in tracer.spans)
    for _, _, _, parent in tracer.spans:
        if parent >= 0:
            expected[tracer.names[tracer.spans[parent][0]]] += 1
    assert self_ticks == expected
    assert sum(self_ticks.values()) + rest == ticks

    chains = set()
    for name, _, _, parent in tracer.spans:
        chain = [tracer.names[name]]
        while parent >= 0 and len(chain) < 3:
            chain.append(tracer.names[tracer.spans[parent][0]])
            parent = tracer.spans[parent][3]
        chains.add(tuple(reversed(chain)))
    assert ("compilation.compile_connectivity", "multidomain.compile_crossdomain",
            "compilation.compile_connectivity") in chains
    assert ("multidomain.deliver_messages", "multidomain.handle_message",
            "compilation.compile_connectivity") in chains


def test_self_times_of_hand_built_spans():
    tracer = Tracer()
    index = {name: i for i, name in enumerate(tracer.names)}
    conn, cross = index["compilation.compile_connectivity"], index["multidomain.compile_crossdomain"]
    deliver, handle = index["multidomain.deliver_messages"], index["multidomain.handle_message"]
    tracer.spans = [
        [conn, 0, 100, -1], [cross, 10, 60, 0], [conn, 20, 40, 1],
        [deliver, 100, 200, -1], [handle, 110, 190, 3], [conn, 120, 150, 4],
    ]
    calls, self_ns, rest = tracer.self_times(0, 250)
    assert calls["compilation.compile_connectivity"] == 3
    assert self_ns["compilation.compile_connectivity"] == 50 + 20 + 30
    assert self_ns["multidomain.compile_crossdomain"] == 30
    assert self_ns["multidomain.deliver_messages"] == 20
    assert self_ns["multidomain.handle_message"] == 50
    assert rest == 50


def test_every_binding_is_wrapped_then_restored(tmp_path):
    before = originals()
    with Tracer():
        for module, name in (("simulation", "install_intent"), ("multidomain", "install_intent"),
                             ("simulation", "compile_probe"), ("simulation", "deliver_messages"),
                             ("cli", "parse_scenario"), ("cli", "write_run_artifacts")):
            assert hasattr(getattr(sys.modules[f"ibnsim.{module}"], name), "__wrapped__")
        simulate_and_export(LINE, tmp_path)
    after = originals()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_generator_is_seeded_and_parses():
    for workload in ("intra-mesh", "multidomain-churn"):
        text = scenario_text(workload, 3)
        assert text == scenario_text(workload, 3)
        assert text != scenario_text(workload, 4)
        parsed = scenario.parse_scenario(text)
        assert parsed.seed == 3
    mesh = scenario.parse_scenario(scenario_text("intra-mesh", 3))
    assert len(mesh.domains) == 1 and len(mesh.domains[0].nodes) == 40
    assert mesh.grid_size == 320 and mesh.traffic is not None
    churn = scenario.parse_scenario(scenario_text("multidomain-churn", 3))
    assert len(churn.domains) >= 4 and churn.traffic is None
    kinds = Counter(e["kind"] for e in churn.events)
    assert kinds["link_down"] == kinds["link_up"] > 0
    assert 4 <= kinds["arrival"] / (kinds["link_down"] + kinds["link_up"]) <= 8
    assert scenario_text("reference", 3) == (ROOT / "scenarios" / "reference.json").read_text()


def test_reference_pin_is_the_roadmap_pin():
    pin = json.loads(run.PINS.read_text())["reference"]["7"]
    assert pin["metrics_sha256"].startswith("b897d5ff") and pin["metrics_sha256"].endswith("0624")
    assert pin["events_sha256"].startswith("ba7af7c1") and pin["events_sha256"].endswith("eb1c")
    assert pin["blocked"][""] == 89


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
