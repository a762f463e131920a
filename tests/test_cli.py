import json
from pathlib import Path

from ibnsim.cli import main

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
