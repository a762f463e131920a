"""Command-line entry points.

Subcommands:
  run              simulate a scenario and write metrics/log/export artifacts
  validate         parse and validate a scenario, reporting problems
  export-dag       re-render intent DAGs from a saved run's state.json
  export-topology  re-render the topology export from a saved state.json

Exit codes: 0 success, 1 usage error, 2 parse/validation error, 3 runtime
error.  The IBNSIM_LOG environment variable (debug|info|warning) selects log
verbosity.
"""

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path
from typing import Optional

from .errors import IbnError, ScenarioError
from .export import dot_from_document, write_run_artifacts
from .scenario import MAX_DOMAIN_ID, parse_scenario
from .simulation import Simulation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCENARIO = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ibnsim", description="intent-driven network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario")
    run.add_argument("scenario", help="scenario JSON file")
    run.add_argument("--out", default="ibnsim-out", help="artifact directory")
    run.add_argument("--seed", type=int, default=None, help="override scenario seed")

    validate = sub.add_parser("validate", help="check a scenario file")
    validate.add_argument("scenario", help="scenario JSON file")

    export_dag = sub.add_parser("export-dag", help="re-render DAGs from a saved run")
    export_dag.add_argument("state", help="state.json written by run")
    export_dag.add_argument("--out", default=".", help="output directory")

    export_topo = sub.add_parser(
        "export-topology", help="re-render topology from a saved run"
    )
    export_topo.add_argument("state", help="state.json written by run")
    export_topo.add_argument("--out", default=".", help="output directory")
    return parser


def _configure_logging():
    level = os.environ.get("IBNSIM_LOG", "warning").lower()
    levels = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING}
    logging.basicConfig(level=levels.get(level, logging.WARNING))


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path} is not UTF-8 text: {exc}") from None


@contextlib.contextmanager
def _writing(out: str):
    """Turn a failure to write under ``out`` into a runtime error."""
    try:
        yield
    except OSError as exc:
        raise IbnError(f"cannot write {exc.filename or out}: {exc.strerror or exc}") from None


def _read_scenario(path: str):
    text = _read_text(path)
    try:
        return parse_scenario(text)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _cmd_run(args) -> int:
    scenario = _read_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    result = Simulation(scenario).run()
    with _writing(args.out):
        written = write_run_artifacts(args.out, result)
    print(
        f"offered={result.metrics.offered} blocked={result.metrics.blocked} "
        f"installed={result.metrics.installed_ok} "
        f"recovered={result.metrics.failures_recovered}"
    )
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    _read_scenario(args.scenario)
    print(f"{args.scenario}: ok")
    return EXIT_OK


def _read_state(path: str) -> dict:
    text = _read_text(path)
    try:
        state = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ScenarioError(f"{path} is nested too deeply") from None
    except ValueError as exc:  # an integer past CPython's digit limit
        raise ScenarioError(f"{path}: {exc}") from None
    problem = _state_problem(state)
    if problem is not None:
        raise ScenarioError(f"{path}: {problem}")
    return state


def _state_problem(state) -> Optional[str]:
    """How ``state`` departs from the shape ``run`` writes, or None."""
    if not isinstance(state, dict):
        return "state must be a JSON object"
    if not isinstance(state.get("topology", {}), dict):
        return "topology must be an object"
    dags = state.get("dags", {})
    if not isinstance(dags, dict):
        return "dags must be an object keyed by domain id"
    for did, doc in dags.items():
        if not (did.isascii() and did.isdigit()):
            return f"dags key {did!r} is not a domain id"
        if int(did.lstrip("0")[:11] or 0) > MAX_DOMAIN_ID:  # 11 digits exceed it
            return f"dags key {did!r} is past the largest domain id, {MAX_DOMAIN_ID}"
        if not isinstance(doc, dict):
            return f"dags.{did} must be an object"
        nodes, edges = doc.get("nodes"), doc.get("edges")
        if not isinstance(nodes, list) or not all(
            isinstance(n, dict) and all(isinstance(n.get(k), str) for k in ("id", "kind", "state"))
            for n in nodes
        ):
            return f"dags.{did}.nodes must be a list of objects with string id, kind and state"
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)
            for e in edges
        ):
            return f"dags.{did}.edges must be a list of [parent, child] id pairs"
    return None


def _cmd_export_dag(args) -> int:
    state = _read_state(args.state)
    out = Path(args.out)
    with _writing(args.out):
        out.mkdir(parents=True, exist_ok=True)
        for did in sorted(state.get("dags", {})):
            path = out / f"dag_{did}.dot"
            path.write_text(dot_from_document(state["dags"][did]))
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_export_topology(args) -> int:
    state = _read_state(args.state)
    out = Path(args.out)
    path = out / "topology.json"
    with _writing(args.out):
        out.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(state.get("topology", {}), indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "export-dag": _cmd_export_dag,
    "export-topology": _cmd_export_topology,
}


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"ibnsim: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ScenarioError as exc:
        print(f"ibnsim: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except IbnError as exc:
        print(f"ibnsim: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
