"""Command-line entry points.

Subcommands:
  run              simulate a scenario and write metrics/log/export artifacts
  validate         parse and validate a scenario, reporting problems

Exit codes: 0 success, 1 usage error, 2 parse/validation error, 3 runtime
error.  The IBNSIM_LOG environment variable (debug|info|warning) selects log
verbosity.
"""

import argparse
import contextlib
import dataclasses
import logging
import os
import sys
from pathlib import Path

from .errors import IbnError, ScenarioError
from .export import write_run_artifacts
from .scenario import parse_scenario
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


_COMMANDS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
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
