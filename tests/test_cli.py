import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibnsim import cli
from ibnsim.cli import main
from ibnsim.export import export_dag, export_topology
from ibnsim.scenario import (
    HOLDING_ULPS,
    MAX_DOMAIN_ID,
    MAX_DRAW,
    MAX_TRAFFIC_PAIRS,
    parse_scenario,
)
from ibnsim.simulation import Simulation

from .test_scenario import two_domain_doc

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_validate_good_scenario(capsys):
    assert main(["validate", str(SCENARIOS / "minimal.json")]) == 0
    assert "ok" in capsys.readouterr().out


def test_missing_file_exits_2(capsys):
    assert main(["run", str(SCENARIOS / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_invalid_document_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": 1}')
    assert main(["validate", str(bad)]) == 2


def test_usage_error_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


@pytest.mark.parametrize("export", ["dag", "topology"])
def test_removed_export_subcommands_are_usage_errors(tmp_path, capsys, export):
    # run writes topology.json and each dag_<id>.dot once, and the CLI has no
    # subcommand that re-renders them: such a name is a usage error.
    saved = tmp_path / "saved.json"
    saved.write_text("{}")
    assert main([f"export-{export}", str(saved), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("ibnsim: ")
    assert "invalid choice" in captured.err and "Traceback" not in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["saved.json"]


def test_run_twice_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(SCENARIOS / "single_link.json"), "--out", str(out1),
                 "--seed", "7"]) == 0
    assert main(["run", str(SCENARIOS / "single_link.json"), "--out", str(out2),
                 "--seed", "7"]) == 0
    for name in ("metrics.csv", "events.log", "topology.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_writes_expected_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", str(SCENARIOS / "triangle.json"), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "dag_1.dot", "events.log", "metrics.csv", "topology.json"]
    stdout = capsys.readouterr().out
    assert "offered=1" in stdout


def test_export_rerenders_from_state(tmp_path):
    # The library exports, applied to the final state of a run, give back
    # byte for byte the topology.json and dag_<id>.dot that run wrote.
    run_dir = tmp_path / "run"
    assert main(["run", str(SCENARIOS / "single_link.json"), "--out", str(run_dir)]) == 0
    result = Simulation(parse_scenario((SCENARIOS / "single_link.json").read_text())).run()
    topology = json.dumps(export_topology(result.domains), indent=2, sort_keys=True) + "\n"
    assert (run_dir / "topology.json").read_text() == topology
    assert (run_dir / "dag_1.dot").read_text() == export_dag(result.domains[1].dag)


SHIPPED = sorted(path.name for path in SCENARIOS.glob("*.json"))


@pytest.mark.parametrize("name", SHIPPED)
def test_run_writes_each_artifact_once(tmp_path, capsys, name):
    out = tmp_path / "run"
    assert main(["run", str(SCENARIOS / name), "--out", str(out)]) == 0
    ids = [domain["id"] for domain in json.loads((SCENARIOS / name).read_text())["domains"]]
    expected = sorted(["metrics.csv", "events.log", "topology.json"]
                      + [f"dag_{did}.dot" for did in ids])
    assert sorted(p.name for p in out.iterdir()) == expected
    wrote = [line[len("wrote "):] for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote ")]
    assert sorted(Path(path).name for path in wrote) == expected


@pytest.mark.parametrize("name", SHIPPED)
def test_run_artifacts_show_a_released_network(tmp_path, name):
    # A run processes every departure, so its final artifacts hold nothing:
    # empty DAGs, and no slot, port, add/drop or virtual link in use.
    out = tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(SCENARIOS / name), "--out", str(out)]) == 0
    topology = json.loads((out / "topology.json").read_text())
    assert topology["intents"] == []
    for domain in topology["domains"]:
        assert domain["virtual_links"] == []
        assert all(link["slots"] == {} for link in domain["fiber_links"])
        assert all(node["ports_used"] == 0 and node["add_drop_used"] == 0
                   for node in domain["nodes"])
        assert (out / f"dag_{domain['id']}.dot").read_text() == "digraph intents {\n}\n"
    metrics = dict(line.split(",") for line in
                   (out / "metrics.csv").read_text().splitlines()[1:6])
    assert int(metrics["offered"]) == int(metrics["blocked"]) + int(metrics["installed_ok"])


def test_metrics_csv_shape(tmp_path):
    out = tmp_path / "run"
    main(["run", str(SCENARIOS / "single_link.json"), "--out", str(out)])
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "metric,value"
    offered = int(next(l for l in lines if l.startswith("offered,")).split(",")[1])
    assert offered == 3


def test_negative_seed_override_exits_2(tmp_path, capsys):
    args = ["run", str(SCENARIOS / "reference.json"), "--out", str(tmp_path), "--seed", "-1"]
    assert main(args) == 2
    assert "ibnsim: seed must be >= 0" in capsys.readouterr().err


def test_link_event_on_unknown_fiber_exits_2(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "single_link.json").read_text())
    doc["events"].append({"time": 99.0, "kind": "link_down", "a": [1, 1], "b": [1, 9]})
    path = tmp_path / "unknown_fiber.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.count("unknown fiber 1.1-1.9") == 2


def test_border_link_given_in_both_directions_exits_2(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "three_domain_line.json").read_text())
    border = doc["border_links"][0]
    doc["border_links"].append({**border, "a": border["b"], "b": border["a"]})
    path = tmp_path / "reversed_border.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "duplicate border link" in capsys.readouterr().err


def test_conservation_violation_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    handle_arrival = Simulation._handle_arrival

    def uncounted_arrival(self, event):
        handle_arrival(self, event)
        self.metrics.offered -= 1

    monkeypatch.setattr(Simulation, "_handle_arrival", uncounted_arrival)
    assert main(["run", str(SCENARIOS / "single_link.json"), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == ["ibnsim: conservation violated: offered=0 blocked=1 installed=2"]


@pytest.mark.parametrize("flips, state", [
    (["link_down", "link_down"], "down"),
    (["link_down", "link_up", "link_up"], "up"),
])
def test_impossible_link_event_exits_2(tmp_path, capsys, flips, state):
    doc = json.loads((SCENARIOS / "single_link.json").read_text())
    doc["events"] += [{"time": 10.0 + i, "kind": kind, "a": [1, 1], "b": [1, 2]}
                      for i, kind in enumerate(flips)]
    path = tmp_path / "impossible_flip.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.count(f"fiber 1.1-1.2 already {state}") == 2


@pytest.mark.parametrize("command", ["run"])
def test_unwritable_out_exits_3(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([command, str(SCENARIOS / "single_link.json"), "--out", str(blocker)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"ibnsim: cannot write {blocker}: File exists\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "content, problem",
    [(b'\xff{"schema": 1}', "is not UTF-8 text"),
     (b"[" * 100_000 + b"]" * 100_000, "nested too deeply")],
    ids=["not-utf8", "nested-too-deep"],
)
def test_undecodable_input_exits_2_with_one_line(tmp_path, capsys, command, content, problem):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
    assert main([command, str(path)] + out) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("ibnsim: ")
    assert problem in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "content, problem",
    [(b'{"schema": ', "invalid JSON at line 1, column 12: Expecting value"),
     (b"[" * 100_000 + b"]" * 100_000, "JSON is nested too deeply")],
    ids=["truncated", "nested-too-deep"],
)
def test_scenario_parse_error_names_the_file(tmp_path, capsys, command, content, problem):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
    assert main([command, str(path)] + out) == 2
    assert capsys.readouterr().err == f"ibnsim: {path}: {problem}\n"
    assert not (tmp_path / "out").exists()


LONG_INT = "9" * 5000  # past CPython's 4,300-digit int conversion limit


@pytest.mark.parametrize("command", ["validate", "run"])
def test_overlong_json_integer_exits_2_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    text = (SCENARIOS / "single_link.json").read_text()
    path.write_text(text.replace("{", '{"seed": ' + LONG_INT + ", ", 1))
    out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
    assert main([command, str(path)] + out) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"ibnsim: {path}: ")
    assert "Exceeds the limit" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, problem", [
    (lambda doc: doc["traffic"].update(rates=[{"gbps": 100, "weight": 1e308},
                                              {"gbps": 400, "weight": 1e308}]),
     "traffic: rate weights must have a finite total"),
    (lambda doc: doc["traffic"].update(arrival_rate=10**400),
     "field 'arrival_rate' must be finite"),
], ids=["infinite-weight-total", "integer-beyond-double"])
def test_traffic_number_that_overflows_exits_2(tmp_path, capsys, edit, problem):
    doc = json.loads((SCENARIOS / "reference.json").read_text())
    edit(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"ibnsim: {path}: {problem}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_negative_domain_id_exits_2(tmp_path, capsys, command):
    # A run names dag_<id>.dot after the domain id, so an id must read as a
    # plain number.
    doc = json.loads((SCENARIOS / "minimal.json").read_text())
    doc["domains"][0]["id"] = -1
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
    assert main([command, str(path)] + out) == 2
    assert capsys.readouterr().err == f"ibnsim: {path}: domain id must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("past", [MAX_DOMAIN_ID + 1, 10**300])
def test_domain_id_bound_admits_the_bound_and_refuses_one_more(tmp_path, capsys, command, past):
    # The bound is on the length of a file name, dag_<id>.dot: a domain id
    # of 300 digits used to run and then exit 3 when that file was written.
    doc = json.loads((SCENARIOS / "minimal.json").read_text())
    out = tmp_path / "out"
    paths = {}
    for did in (MAX_DOMAIN_ID, past):
        doc["domains"][0]["id"] = did
        paths[did] = tmp_path / f"domain-{did % 1000}.json"
        paths[did].write_text(json.dumps(doc))
    more = [] if command == "validate" else ["--out", str(out)]

    assert main([command, str(paths[MAX_DOMAIN_ID])] + more) == 0
    if command == "run":
        assert (out / f"dag_{MAX_DOMAIN_ID}.dot").exists()
        more = ["--out", str(tmp_path / "past")]
    capsys.readouterr()
    assert main([command, str(paths[past])] + more) == 2
    assert capsys.readouterr().err == (
        f"ibnsim: {paths[past]}: domain id must be <= {MAX_DOMAIN_ID}\n")
    assert not (tmp_path / "past").exists()


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def assert_finite_artifacts(out: Path) -> None:
    """Every events.log line is strict JSON and no metrics.csv field is a
    nan or an infinity."""
    for line in (out / "events.log").read_text().splitlines():
        json.loads(line, parse_constant=_refuse_constant)
    for line in (out / "metrics.csv").read_text().splitlines():
        assert not {"nan", "inf", "-inf"} & set(line.split(",")), line


def _arrival_at(time, holding):
    return {"events": [{"time": time, "kind": "arrival", "src": [1, 1], "dst": [1, 2],
                        "rate": 100, "holding": holding}]}


def _traffic(arrival_rate, mean_holding):
    return {"traffic": {"arrivals": 50, "arrival_rate": arrival_rate,
                        "mean_holding": mean_holding}}


TIME_BOUND = ("traffic: arrivals / arrival_rate + mean_holding must be at most about "
              "2.447e+306, or event times overflow")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("past, problem", [
    (_arrival_at(1.5e308, 1.5e308), "arrival at time 1.5e+308: time + holding overflows a float"),
    (_traffic(1.0, 1e308), TIME_BOUND),
    (_traffic(1e-307, 1.0), TIME_BOUND),
], ids=["explicit", "mean_holding", "arrival_rate"])
def test_overflowing_event_times_exit_2(tmp_path, capsys, command, past, problem):
    # These used to run and exit 0 with a departure at time Infinity in
    # events.log (not JSON) and mean_slot_utilization nan in metrics.csv.
    doc = json.loads((SCENARIOS / "minimal.json").read_text())
    path = tmp_path / "past.json"
    path.write_text(json.dumps({**doc, **past}))
    more = [] if command == "validate" else ["--out", str(tmp_path / "out")]
    assert main([command, str(path)] + more) == 2
    assert capsys.readouterr().err == f"ibnsim: {path}: {problem}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("inside", [
    _arrival_at(1e308, 7e307),  # the departure lands at 1.7e308
    _traffic(1.0, 2.4e306),  # 36.74 * (50 + 2.4e306) is just under half the largest float
], ids=["explicit", "traffic"])
def test_event_times_just_inside_the_bound_run(tmp_path, inside):
    doc = json.loads((SCENARIOS / "minimal.json").read_text())
    path = tmp_path / "inside.json"
    path.write_text(json.dumps({**doc, **inside}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert_finite_artifacts(tmp_path / "out")
    times = [json.loads(line)["time"] for line in (tmp_path / "out" / "events.log").open()
             if '"departure"' in line]
    assert max(times) > 1e306


# Traffic whose latest arrival can be near 1.8e306: a holding time of 1.0
# vanishes next to such times.
VANISHING_RATE = 50 / 2.4e306
LEAST_HOLDING = HOLDING_ULPS * math.ulp(50 * MAX_DRAW / VANISHING_RATE)
HOLDING_RULE = (f"traffic: mean holding time must be >= {LEAST_HOLDING!r}, 1048576 times the "
                "spacing of doubles at the latest arrival time")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("past, problem", [
    (_arrival_at(1e17, 8.0), "arrival at time 1e+17: holding 8.0 vanishes next to its time, "
                             "so it would depart at its arrival's instant"),
    (_traffic(VANISHING_RATE, 1.0), HOLDING_RULE),
    (_traffic(VANISHING_RATE, math.nextafter(LEAST_HOLDING, 0)), HOLDING_RULE),
], ids=["explicit", "traffic", "traffic-one-below"])
def test_holding_that_vanishes_next_to_its_arrival_exits_2(tmp_path, capsys, command, past,
                                                          problem):
    # The traffic case used to run and exit 0 with every departure at its
    # arrival's time, 50 installed intents and mean_slot_utilization 0.0.
    doc = json.loads((SCENARIOS / "minimal.json").read_text())
    path = tmp_path / "past.json"
    path.write_text(json.dumps({**doc, **past}))
    more = [] if command == "validate" else ["--out", str(tmp_path / "out")]
    assert main([command, str(path)] + more) == 2
    assert capsys.readouterr().err == f"ibnsim: {path}: {problem}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("inside", [
    _arrival_at(1e17, math.ulp(1e17)),
    _traffic(VANISHING_RATE, LEAST_HOLDING),
], ids=["explicit", "traffic"])
def test_holding_just_inside_the_spacing_rule_runs(tmp_path, inside):
    doc = json.loads((SCENARIOS / "minimal.json").read_text())
    path = tmp_path / "inside.json"
    path.write_text(json.dumps({**doc, **inside}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    arrived = {}
    for line in (tmp_path / "out" / "events.log").read_text().splitlines():
        record = json.loads(line)
        if record["event"] == "arrival":
            arrived[record["intent"]] = record["time"]
        elif record["event"] == "departure":
            assert record["time"] > arrived[record["intent"]]
    assert arrived


class Parsed(Exception):
    """Raised in place of building a simulation: the scenario parsed."""


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("field, cap, problem", [
    ("grid_size", 1024, "grid_size must be <= 1024"),
    ("k_paths", 64, "k_paths must be <= 64"),
    ("arrivals", 100_000, "traffic: arrivals must be <= 100000"),
])
def test_size_caps_admit_the_cap_and_refuse_one_more(tmp_path, capsys, monkeypatch, command, field,
                                                     cap, problem):
    # Parse only: run hands the parsed scenario to Simulation, which raises
    # here, so neither value allocates a grid, a path memo or an event list.
    def parsed(scenario):
        raise Parsed(scenario.traffic if field == "arrivals" else scenario)

    monkeypatch.setattr(cli, "Simulation", parsed)
    doc = json.loads((SCENARIOS / "reference.json").read_text())
    holder = doc["traffic"] if field == "arrivals" else doc
    out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
    paths = {}
    for value in (cap, cap + 1):
        holder[field] = value
        paths[value] = tmp_path / f"{field}-{value}.json"
        paths[value].write_text(json.dumps(doc))

    if command == "validate":
        assert main([command, str(paths[cap])]) == 0
    else:
        with pytest.raises(Parsed) as reached:
            main([command, str(paths[cap])] + out)
        assert getattr(reached.value.args[0], field) == cap
    capsys.readouterr()
    assert main([command, str(paths[cap + 1])] + out) == 2
    assert capsys.readouterr().err == f"ibnsim: {paths[cap + 1]}: {problem}\n"
    assert not (tmp_path / "out").exists()


def _chain_with_all_pairs(count):
    """One chain domain of ``count`` nodes with traffic over every pair."""
    nodes = [{"local": i, "ports": 8, "port_rate": 400, "add_drop": 8}
             for i in range(1, count + 1)]
    links = [{"a": i, "b": i + 1, "length": 100.0} for i in range(1, count)]
    return {"schema": 1, "domains": [{"id": 1, "nodes": nodes, "links": links}],
            "traffic": {"arrivals": 10, "arrival_rate": 1.0, "mean_holding": 1.0,
                        "pairs": "all"}}


@pytest.mark.parametrize("command", ["validate", "run"])
def test_all_pairs_bound_refuses_one_node_more(tmp_path, capsys, command):
    # 2,000 nodes used to build 3,998,000 pairs and peak at 479 MB before
    # the first event; the bound is checked before any pair is built.
    assert 1001 * 1000 > MAX_TRAFFIC_PAIRS >= 1000 * 999
    path = tmp_path / "past.json"
    path.write_text(json.dumps(_chain_with_all_pairs(1001)))
    more = [] if command == "validate" else ["--out", str(tmp_path / "out")]
    assert main([command, str(path)] + more) == 2
    assert capsys.readouterr().err == (
        f'ibnsim: {path}: traffic: pairs "all" over 1001 nodes must make at most '
        f"{MAX_TRAFFIC_PAIRS} pairs\n")
    assert not (tmp_path / "out").exists()


def test_all_pairs_bound_admits_the_bound(tmp_path, capsys):
    path = tmp_path / "inside.json"
    path.write_text(json.dumps(_chain_with_all_pairs(1000)))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: ok\n"


def test_explicit_pairs_list_is_not_bounded(tmp_path, capsys):
    # The document holds each pair of an explicit list, so its size is
    # bounded by the document's: 1,001 nodes pass with a few listed pairs.
    doc = _chain_with_all_pairs(1001)
    doc["traffic"]["pairs"] = [{"src": [1, 1], "dst": [1, 1001]},
                               {"src": [1, 500], "dst": [1, 2], "weight": 2.0}]
    path = tmp_path / "listed.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: ok\n"


# -- fuzzing the boundary with raw text -----------------------------------------------


SCENARIO_TEXTS = [
    (SCENARIOS / "single_link.json").read_text(),
    (SCENARIOS / "triangle.json").read_text(),
    json.dumps(two_domain_doc()),
]
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
MEMBER = re.compile(r'"\w+":\s*(?:-?[\d.eE+]+|true|false|null|"[^"]*")')
ODD_NUMBERS = [
    LONG_INT, "-" + LONG_INT, "123456789012345678901234567890", "1e400", "-1e400",
    "1e-400", "1E+999999999999", "0.1e99999", "NaN", "Infinity", "-Infinity",
    "0", "-0", "-1", "0.5", "3", "1e2", "true", "null", '"7"', "[]", "{}",
]


@st.composite
def fuzzed_text(draw, base):
    """``base`` with some numbers swapped for odd tokens, a member repeated
    with another value, and maybe a byte order mark in front."""
    text = base
    spans = [m.span() for m in NUMBER.finditer(text)]
    for start, end in sorted(draw(st.lists(st.sampled_from(spans), unique=True, max_size=3)),
                             reverse=True):
        text = text[:start] + draw(st.sampled_from(ODD_NUMBERS)) + text[end:]
    members = list(MEMBER.finditer(text))
    if members and draw(st.booleans()):
        member = draw(st.sampled_from(members))
        key = member.group().split(":", 1)[0]
        twin = f"{key}: {draw(st.sampled_from(ODD_NUMBERS))}"
        if draw(st.booleans()):
            text = text[:member.start()] + twin + ", " + text[member.start():]
        else:
            text = text[:member.end()] + ", " + twin + text[member.end():]
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


@pytest.mark.parametrize("command", ["validate", "run"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_text_exits_cleanly(command, data):
    # Whatever the text, main returns 0, 2 or 3 with one "ibnsim: " line on
    # stderr for a refusal, and an accepted run conserves its intents and
    # ends with every resource released.
    base = data.draw(st.sampled_from(SCENARIO_TEXTS), label="scenario")
    text = data.draw(fuzzed_text(base), label="text")
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "input.json", Path(tmp) / "out"
        path.write_text(text, encoding="utf-8")
        args = [command, str(path)] + ([] if command == "validate" else ["--out", str(out)])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
        assert code in (0, 2, 3)
        if code:
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith("ibnsim: ")
        elif command == "run":
            lines = (out / "metrics.csv").read_text().splitlines()
            per_intent = lines.index("intent_id,outcome,compile_time,install_time")
            metrics = {name: float(value) for name, value in
                       (line.split(",") for line in lines[1:per_intent])}
            assert metrics["offered"] == metrics["blocked"] + metrics["installed_ok"]
            assert metrics["offered"] == len(lines) - per_intent - 1
            assert_finite_artifacts(out)
            for domain in json.loads((out / "topology.json").read_text())["domains"]:
                assert all(not link["slots"] for link in domain["fiber_links"])
                assert all(not node["ports_used"] and not node["add_drop_used"]
                           for node in domain["nodes"])
