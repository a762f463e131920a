import contextlib
import functools
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibnsim import cli
from ibnsim.cli import main
from ibnsim.scenario import MAX_DOMAIN_ID
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
    assert (out / "metrics.csv").exists()
    assert (out / "events.log").exists()
    assert (out / "topology.json").exists()
    assert (out / "dag_1.dot").exists()
    assert (out / "state.json").exists()
    stdout = capsys.readouterr().out
    assert "offered=1" in stdout


def test_export_rerenders_from_state(tmp_path):
    run_dir = tmp_path / "run"
    assert main(["run", str(SCENARIOS / "single_link.json"), "--out", str(run_dir)]) == 0
    re_dir = tmp_path / "re"
    assert main(["export-dag", str(run_dir / "state.json"), "--out", str(re_dir)]) == 0
    assert main(["export-topology", str(run_dir / "state.json"), "--out", str(re_dir)]) == 0
    assert (re_dir / "dag_1.dot").read_bytes() == (run_dir / "dag_1.dot").read_bytes()
    assert (
        re_dir / "topology.json"
    ).read_bytes() == (run_dir / "topology.json").read_bytes()


def test_metrics_csv_shape(tmp_path):
    out = tmp_path / "run"
    main(["run", str(SCENARIOS / "single_link.json"), "--out", str(out)])
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "metric,value"
    offered = int(next(l for l in lines if l.startswith("offered,")).split(",")[1])
    assert offered == 3
    state = json.loads((out / "state.json").read_text())
    assert "topology" in state and "dags" in state


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


@pytest.mark.parametrize("command", ["export-dag", "export-topology"])
@pytest.mark.parametrize(
    "doc",
    [[1, 2], {"dags": {"1": {"nodes": 3}}}, {"dags": [1]}],
    ids=["not-an-object", "nodes-not-a-list", "dags-not-an-object"],
)
def test_malformed_state_exits_2_with_one_line(tmp_path, capsys, command, doc):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(doc))
    assert main([command, str(state), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith(f"ibnsim: {state}: ")
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command", ["run", "export-dag", "export-topology"])
def test_unwritable_out_exits_3(tmp_path, capsys, command):
    run_dir = tmp_path / "run"
    assert main(["run", str(SCENARIOS / "single_link.json"), "--out", str(run_dir)]) == 0
    capsys.readouterr()
    blocker = tmp_path / "file"
    blocker.write_text("")
    source = SCENARIOS / "single_link.json" if command == "run" else run_dir / "state.json"
    assert main([command, str(source), "--out", str(blocker)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"ibnsim: cannot write {blocker}: File exists\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["validate", "run", "export-dag", "export-topology"])
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


@pytest.mark.parametrize("command", ["validate", "run", "export-dag", "export-topology"])
def test_overlong_json_integer_exits_2_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    if command in ("validate", "run"):
        text = (SCENARIOS / "single_link.json").read_text()
        path.write_text(text.replace("{", '{"seed": ' + LONG_INT + ", ", 1))
    else:
        path.write_text('{"dags": {}, "topology": {"n": ' + LONG_INT + "}}")
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
    # A run names dag_<id>.dot and its state.json keys after the domain id,
    # and export-dag reads back only ids >= 0: a domain -1 used to run and
    # leave a state.json that export-dag and export-topology refused.
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


@pytest.mark.parametrize("command", ["export-dag", "export-topology"])
@pytest.mark.parametrize("past", [MAX_DOMAIN_ID + 1, 10**300])
def test_state_domain_id_bound_admits_the_bound_and_refuses_one_more(tmp_path, capsys, command,
                                                                     past):
    doc = json.loads((SCENARIOS / "minimal.json").read_text())
    doc["domains"][0]["id"] = MAX_DOMAIN_ID
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    assert main(["run", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "run")]) == 0
    state = tmp_path / "run" / "state.json"
    assert main([command, str(state), "--out", str(tmp_path / "re")]) == 0
    if command == "export-dag":
        assert (tmp_path / "re" / f"dag_{MAX_DOMAIN_ID}.dot").exists()

    state_doc = json.loads(state.read_text())
    state_doc["dags"] = {str(past): state_doc["dags"].pop(str(MAX_DOMAIN_ID))}
    past_state = tmp_path / "past_state.json"
    past_state.write_text(json.dumps(state_doc))
    capsys.readouterr()
    assert main([command, str(past_state), "--out", str(tmp_path / "past")]) == 2
    assert capsys.readouterr().err == (
        f"ibnsim: {past_state}: dags key '{past}' is past the largest domain id, "
        f"{MAX_DOMAIN_ID}\n")
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


@functools.lru_cache(maxsize=None)
def state_text() -> str:
    """state.json of a run of triangle.json: one compiled intent, a failure."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", str(SCENARIOS / "triangle.json"), "--out", out]) == 0
        return (Path(out) / "state.json").read_text()


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


@pytest.mark.parametrize("command", ["validate", "run", "export-dag", "export-topology"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_text_exits_cleanly(command, data):
    # Whatever the text, main returns 0, 2 or 3 with one "ibnsim: " line on
    # stderr for a refusal, and an accepted run conserves its intents, ends
    # with every resource released and leaves a state.json the exports read.
    if command in ("validate", "run"):
        base = data.draw(st.sampled_from(SCENARIO_TEXTS), label="scenario")
    else:
        base = state_text()
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
            for domain in json.loads((out / "state.json").read_text())["topology"]["domains"]:
                assert all(not link["slots"] for link in domain["fiber_links"])
                assert all(not node["ports_used"] and not node["add_drop_used"]
                           for node in domain["nodes"])
            for export in ("export-dag", "export-topology"):  # a run's state reads back
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main([export, str(out / "state.json"), "--out", str(out / "re")]) == 0
