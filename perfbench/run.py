"""ibnsim benchmark: host time of whole runs, of single events, and per layer.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the benchmark repeats rounds for ``--seconds``: set-ups
(JSON text -> ``parse_scenario`` -> ``Simulation``), one pass of
``Simulation.run()`` whose ``on_event`` hook takes one timestamp per event,
and one in-process ``ibnsim run``; a fresh process then gives the peak RSS.
With ``--trace 1`` it compares passes with and without the hook, then makes
one pass under ``tracer.Tracer`` for the per-layer numbers and writes the
spans to ``perfbench/out/``.  Every output is checked against the pinned
one in ``pins.json`` (see perfbench/README.md).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from tracer import MESSAGE_KINDS, Tracer
from workloads import ROOT, WORKLOADS, scenario_text

BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
PINS = BENCH / "pins.json"
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    from ibnsim import cli, export, scenario, simulation
except ImportError as exc:  # main() reports it and exits 2
    IMPORT_ERROR = exc
else:
    IMPORT_ERROR = None

MIN_ROUNDS = 2  # measuring rounds per run, even when one outlasts --seconds
SETUPS_PER_ROUND = 2  # set-ups timed on their own, besides the one of each pass

# Metrics of a --trace 0 run, with their units.
END_TO_END = {
    "setup_s": "s",
    "arrivals_per_s": "1/s",
    "arrival_p50_us": "us",
    "arrival_p99_us": "us",
    "departure_p50_us": "us",
    "cli_run_s": "s",
    "peak_rss_mb": "MB",
}

# Spans inside Simulation.run() reported as <name>.calls and <name>.self_s.
RUN_LAYERS = (
    "network.k_shortest_paths",
    "compilation.first_fit_spectrum",
    "compilation.compile_connectivity",
    "compilation.compile_probe",
    "compilation.install_intent",
    "compilation.uninstall_intent",
    "intents.aggregate_state",
    "intents.remove_intent",
    "multidomain.deliver_messages",
    "multidomain.handle_message",
    "multidomain.compile_crossdomain",
    "simulation.monitor_failure",
    "simulation.monitor_repair",
)
SETUP_LAYERS = ("scenario.parse_scenario", "scenario.build_domains", "scenario.build_events")
# Counts taken by the tracer's observers, reported as <layer>.<name>_ratio.
RATIOS = (
    ("compilation.compile_connectivity", "blocked"),
    ("compilation.install_intent", "conflict"),
    ("multidomain.deliver_messages", "empty"),
)


def per_layer_metrics() -> list:
    """(name, unit, better) of every metric a --trace 1 run reports."""
    out = []
    for layer in RUN_LAYERS:
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower")]
    out += [(f"{layer}.{stat}_ratio", "ratio", "lower") for layer, stat in RATIOS]
    out += [(f"multidomain.messages.{kind}", "count", "lower") for kind in MESSAGE_KINDS]
    out += [
        ("intents.dag_nodes_max", "count", "lower"),
        ("simulation.recovered", "count", "higher"),
        ("simulation.loop.self_s", "s", "lower"),
        ("simulation.run.traced_s", "s", "lower"),
    ]
    out += [(f"{layer}.self_s", "s", "lower") for layer in SETUP_LAYERS]
    out += [
        ("export.write_run_artifacts.self_s", "s", "lower"),
        ("export.write_run_artifacts.bytes", "B", "lower"),
        ("simulation.link_event.p50_ms", "ms", "lower"),
        ("simulation.link_event.p90_ms", "ms", "lower"),
        ("simulation.link_event.samples", "count", "higher"),
        ("trace.untraced_arrivals_per_s", "1/s", "higher"),
        ("trace.traced_arrivals_per_s", "1/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("bench.hook_overhead", "ratio", "lower"),
    ]
    return out


# -- output checks ---------------------------------------------------------------


def output_record(metrics_text: str, log_text: str) -> dict:
    """Digests of metrics.csv and events.log plus counts that must repeat exactly."""
    blocked = Counter()
    messages = Counter()
    offered = recovered = 0
    for line in log_text.splitlines():
        entry = json.loads(line)
        event = entry["event"]
        if event == "arrival":
            offered += 1
            if entry["outcome"] == "blocked":
                blocked[entry["reason"]] += 1
        elif event == "message":
            messages[entry["kind"]] += 1
        elif event in ("link_down", "link_up"):
            recovered += entry["recovered"]
    return {
        "metrics_sha256": hashlib.sha256(metrics_text.encode()).hexdigest(),
        "events_sha256": hashlib.sha256(log_text.encode()).hexdigest(),
        "offered": offered,
        "blocked": dict(sorted(blocked.items())),
        "recovered": recovered,
        "messages": dict(sorted(messages.items())),
    }


def result_record(result) -> dict:
    return output_record(export.metrics_csv(result.metrics), export.event_log_text(result.event_log))


class Checker:
    """Compares every output with the pin, or with the first output if unpinned."""

    def __init__(self, workload: str, scenario_seed: int):
        pins = json.loads(PINS.read_text()).get(workload, {})
        self.expected = pins.get(str(scenario_seed))
        self.pinned = self.expected is not None
        self.attempted = 0
        self.failed = 0

    def attempt(self, label: str, operation):
        """Run ``operation`` (returning (value, output record)); count a failure
        on an exception or an output that differs from the expectation."""
        self.attempted += 1
        try:
            value, record = operation()
        except Exception:
            self.failed += 1
            print(f"FAILED {label}:", file=sys.stderr)
            traceback.print_exc()
            return None
        if self.expected is None:
            self.expected = record
        if record != self.expected:
            self.failed += 1
            print(f"FAILED {label}: output differs from the expected one", file=sys.stderr)
            for key in record:
                if record[key] != self.expected[key]:
                    print(f"  {key}: got {record[key]} expected {self.expected[key]}",
                          file=sys.stderr)
            return None
        return value


# -- passes -------------------------------------------------------------------------


def run_pass(text: str, on_event=None):
    """Set-up then Simulation.run(); returns (result, setup s, run start ns, run end ns)."""
    gc.collect()
    t0 = time.perf_counter_ns()
    sim = simulation.Simulation(scenario.parse_scenario(text), on_event=on_event)
    t1 = time.perf_counter_ns()
    result = sim.run()
    t2 = time.perf_counter_ns()
    return result, (t1 - t0) / 1e9, t1, t2


def stamped_pass(text: str):
    """A pass whose on_event hook takes one timestamp per event."""
    stamps = []
    clock = time.perf_counter_ns

    def on_event(sim, event):
        stamps.append((clock(), event.kind.value))

    result, setup_s, start, end = run_pass(text, on_event)
    latencies = {}
    prev = start
    for stamp, kind in stamps:
        latencies.setdefault(kind, []).append(stamp - prev)
        prev = stamp
    return result, setup_s, (end - start) / 1e9, latencies


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_seconds(text: str) -> float:
    gc.collect()
    t0 = time.perf_counter_ns()
    simulation.Simulation(scenario.parse_scenario(text))
    return (time.perf_counter_ns() - t0) / 1e9


def cli_pass(scenario_path: Path, out_dir: Path):
    """In-process ``ibnsim run``: parse, simulate and write every artifact."""
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter_ns()
        code = cli.main(["run", str(scenario_path), "--out", str(out_dir)])
        t1 = time.perf_counter_ns()
    if code != 0:
        raise RuntimeError(f"ibnsim run exited {code}")
    return (t1 - t0) / 1e9, artifact_record(out_dir)


def artifact_record(out_dir: Path) -> dict:
    record = output_record(
        (out_dir / "metrics.csv").read_text(), (out_dir / "events.log").read_text()
    )
    shutil.rmtree(out_dir)
    return record


def fresh_process_rss(scenario_path: Path, out_dir: Path):
    """Peak RSS in MB of a fresh ``python3 -m ibnsim.cli run`` process.

    The fresh process is the only child this benchmark starts, so the
    children's peak RSS is its peak RSS.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "ibnsim.cli", "run", str(scenario_path), "--out", str(out_dir)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    if proc.returncode != 0:
        raise RuntimeError(f"ibnsim run exited {proc.returncode}: {proc.stderr}")
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss_kb / 1024, artifact_record(out_dir)


class Window:
    """The measuring window: rounds run until ``seconds`` have passed, and a
    round is not started when less than half of one would fit."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.began = self.last = time.perf_counter()
        self.longest = 0.0

    def another_round(self, rounds_done: int) -> bool:
        now = time.perf_counter()
        self.longest = max(self.longest, now - self.last)
        self.last = now
        return rounds_done < MIN_ROUNDS or now - self.began + self.longest / 2 < self.seconds


# -- the two kinds of run ---------------------------------------------------------------


def measure(text: str, seconds: float, checker: Checker, scenario_path: Path, tag: str):
    """Rounds of set-ups, a timed pass and a CLI run, so that every metric
    samples the whole measuring window."""
    setups, passes, cli_s = [], [], []
    latencies = {}
    out_dir = OUT / f"cli-{tag}"

    def stamped():
        result, setup_s, run_s, lat = stamped_pass(text)
        return (setup_s, (result.metrics.offered, run_s), lat), result_record(result)

    window = Window(seconds)
    while checker.failed < MIN_ROUNDS and window.another_round(len(passes)):
        setups += [setup_seconds(text) for _ in range(SETUPS_PER_ROUND)]
        value = checker.attempt(f"pass {len(passes) + 1}", stamped)
        if value is not None:
            setups.append(value[0])
            passes.append(value[1])
            for kind, values in value[2].items():
                latencies.setdefault(kind, []).extend(values)
        value = checker.attempt(f"cli run {len(cli_s) + 1}",
                                lambda: cli_pass(scenario_path, out_dir))
        if value is not None:
            cli_s.append(value)
    rss = checker.attempt("fresh process", lambda: fresh_process_rss(scenario_path, out_dir))
    if not passes or not cli_s or rss is None:
        return {}, []

    arrivals = latencies.get("arrival", [])
    departures = latencies.get("departure", [])
    links = latencies.get("link_down", []) + latencies.get("link_up", [])
    metrics = {
        "setup_s": statistics.median(setups),
        "arrivals_per_s": sum(n for n, _ in passes) / sum(s for _, s in passes),
        "arrival_p50_us": percentile(arrivals, 0.5) / 1e3,
        "arrival_p99_us": percentile(arrivals, 0.99) / 1e3,
        "departure_p50_us": percentile(departures, 0.5) / 1e3,
        "cli_run_s": statistics.mean(cli_s),
        "peak_rss_mb": rss,
    }
    notes = [
        f"setup_s: median of {len(setups)} set-ups",
        f"arrivals_per_s: all arrivals / all run seconds of {len(passes)} passes",
        f"arrival_p50_us, arrival_p99_us: n={len(arrivals)}",
        f"departure_p50_us: n={len(departures)}",
        f"cli_run_s: mean of {len(cli_s)} runs",
    ]
    if links:
        notes.append(
            f"link_event_p50_ms {percentile(links, 0.5) / 1e6:.4f} ms, "
            f"link_event_p90_ms {percentile(links, 0.9) / 1e6:.4f} ms: n={len(links)}"
        )
    else:
        notes.append("link_event_p50_ms, link_event_p90_ms: not applicable (0 link events)")
    return {name: (value, END_TO_END[name]) for name, value in metrics.items()}, notes


def measure_traced(text: str, seconds: float, checker: Checker, workload: str):
    # Passes with and without the on_event timestamp, alternating.
    plain_s, stamped_s = [], []
    links = []
    window = Window(seconds)
    while checker.failed < MIN_ROUNDS and window.another_round(len(plain_s)):
        def plain():
            result, _, start, end = run_pass(text)
            return (end - start) / 1e9, result_record(result)

        def stamped():
            result, _, run_s, lat = stamped_pass(text)
            return (run_s, result.metrics.offered, lat), result_record(result)

        a = checker.attempt("pass without hook", plain)
        b = checker.attempt("pass with hook", stamped)
        if a is None or b is None:
            continue
        plain_s.append(a)
        stamped_s.append(b[0])
        offered = b[1]
        links += b[2].get("link_down", []) + b[2].get("link_up", [])

    if not plain_s:
        return {}, []

    # One traced pass: set-up, run and export, each in its own window.
    out_dir = OUT / f"traced-{workload}"
    dag_max = 0

    def traced():
        nonlocal dag_max
        shutil.rmtree(out_dir, ignore_errors=True)

        def on_event(sim, event):
            nonlocal dag_max
            tracer.mark(event.seq)
            dag_max = max(dag_max, sum(len(d.dag.nodes) for d in sim.domains.values()))

        gc.collect()
        with Tracer() as tracer:
            t0 = time.perf_counter_ns()
            sim = simulation.Simulation(scenario.parse_scenario(text), on_event=on_event)
            t1 = time.perf_counter_ns()
            result = sim.run()
            t2 = time.perf_counter_ns()
            export.write_run_artifacts(out_dir, result)
            t3 = time.perf_counter_ns()
        tracer.write(OUT / f"spans-{workload}.csv")
        return (tracer, result, (t0, t1, t2, t3)), result_record(result)

    value = checker.attempt("traced pass", traced)
    shutil.rmtree(out_dir, ignore_errors=True)
    if value is None:
        return {}, []
    tracer, result, (t0, t1, t2, t3) = value

    calls, self_ns, loop_ns = tracer.self_times(t1, t2)
    metrics = {}
    for layer in RUN_LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_ns[layer] / 1e9
    for layer, stat in RATIOS:
        hits = tracer.counts[f"{layer}.{stat}"]
        metrics[f"{layer}.{stat}_ratio"] = hits / calls[layer] if calls[layer] else 0.0
    for kind in MESSAGE_KINDS:
        metrics[f"multidomain.messages.{kind}"] = tracer.counts[f"multidomain.messages.{kind}"]
    metrics["intents.dag_nodes_max"] = dag_max
    metrics["simulation.recovered"] = result.metrics.failures_recovered
    metrics["simulation.loop.self_s"] = loop_ns / 1e9
    metrics["simulation.run.traced_s"] = (t2 - t1) / 1e9
    _, setup_self, _ = tracer.self_times(t0, t1)
    for layer in SETUP_LAYERS:
        metrics[f"{layer}.self_s"] = setup_self[layer] / 1e9
    _, export_self, _ = tracer.self_times(t2, t3)
    metrics["export.write_run_artifacts.self_s"] = export_self["export.write_run_artifacts"] / 1e9
    metrics["export.write_run_artifacts.bytes"] = tracer.counts["export.write_run_artifacts.bytes"]
    metrics["simulation.link_event.p50_ms"] = percentile(links, 0.5) / 1e6 if links else 0.0
    metrics["simulation.link_event.p90_ms"] = percentile(links, 0.9) / 1e6 if links else 0.0
    metrics["simulation.link_event.samples"] = len(links)
    untraced = offered * len(stamped_s) / sum(stamped_s)
    traced_rate = result.metrics.offered / ((t2 - t1) / 1e9)
    metrics["trace.untraced_arrivals_per_s"] = untraced
    metrics["trace.traced_arrivals_per_s"] = traced_rate
    metrics["trace.overhead_ratio"] = untraced / traced_rate
    hook = statistics.median(b / a for a, b in zip(plain_s, stamped_s)) - 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    hook_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "arrivals_per_s")
    metrics["bench.hook_overhead"] = hook

    units = {name: unit for name, unit, _ in per_layer_metrics()}
    layer_ns = sum(self_ns[layer] for layer in RUN_LAYERS)
    notes = [
        f"self times: {layer_ns / 1e9:.6f} s in layers + {loop_ns / 1e9:.6f} s loop"
        f" = {(layer_ns + loop_ns) / 1e9:.6f} s traced run "
        f"({'ok' if layer_ns + loop_ns == t2 - t1 else 'MISMATCH'})",
        f"hook overhead {hook:+.4f} over {len(plain_s)} pairs of passes "
        f"({'within' if hook <= hook_bound else 'OVER'} the arrivals_per_s bound {hook_bound})",
        f"spans: {len(tracer.spans)} written to {OUT.relative_to(ROOT)}/spans-{workload}.csv",
    ]
    if layer_ns + loop_ns != t2 - t1:
        checker.failed += 1
    return {name: (value, units[name]) for name, value in metrics.items()}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if IMPORT_ERROR is not None:
        print(f"perfbench: cannot import ibnsim from {SRC}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if Path(scenario.__file__).resolve().parent != SRC / "ibnsim":
        print(f"perfbench: imported ibnsim from {scenario.__file__}, not {SRC}", file=sys.stderr)
        return 2

    text = scenario_text(args.workload, args.seed)
    scenario_seed = json.loads(text)["seed"]
    OUT.mkdir(exist_ok=True)
    if args.workload == "reference":
        scenario_path = ROOT / "scenarios" / "reference.json"
    else:
        scenario_path = OUT / f"{args.workload}-{args.seed}.json"
        scenario_path.write_text(text)

    checker = Checker(args.workload, scenario_seed)
    print(f"perfbench {args.workload}, benchmark seed {args.seed}, scenario seed "
          f"{scenario_seed}, {args.seconds:g} s, trace {args.trace}")
    print("output check: " + (f"pins.json entry for seed {scenario_seed}" if checker.pinned
                              else "no pin for this seed; every output must equal the first"))
    if args.trace:
        metrics, notes = measure_traced(text, args.seconds, checker, args.workload)
    else:
        metrics, notes = measure(text, args.seconds, checker, scenario_path,
                                 f"{args.workload}-{args.seed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6f} {unit}")
    for note in notes:
        print(f"  {note}")
    if checker.expected is not None:
        exp = checker.expected
        print(f"  offered={exp['offered']} blocked={exp['blocked']} "
              f"recovered={exp['recovered']} messages={exp['messages']}")
        print(f"  metrics.csv sha256 {exp['metrics_sha256']}")
        print(f"  events.log  sha256 {exp['events_sha256']}")
    print(f"  operations: {checker.attempted} attempted, {checker.failed} failed")
    print(json.dumps({
        "correct": checker.failed == 0 and bool(metrics),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
