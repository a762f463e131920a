"""Rewrite pins.json: the expected output of each workload, per scenario seed.

``reference`` is pinned for its shipped seed 7; the generated workloads for
seeds 0 to 99.  Each pin holds the sha256 of
``metrics.csv`` and ``events.log`` and the counts the benchmark prints.
Re-pin only when a change alters the simulator's output on purpose, and
say why in CHANGES.md.

Usage: python3 perfbench/pin.py
"""

import json
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ibnsim import scenario, simulation  # noqa: E402

from run import PINS, result_record  # noqa: E402
from workloads import scenario_text  # noqa: E402

PINNED_SEEDS = 100


def pin(job):
    workload, seed = job
    text = scenario_text(workload, seed)
    parsed = scenario.parse_scenario(text)
    return workload, str(parsed.seed), result_record(simulation.Simulation(parsed).run())


def main() -> None:
    jobs = [("reference", 0)]
    jobs += [(w, s) for w in ("intra-mesh", "multidomain-churn") for s in range(PINNED_SEEDS)]
    pins = {}
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("spawn")) as pool:
        for workload, seed, record in pool.map(pin, jobs):
            pins.setdefault(workload, {})[seed] = record
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(jobs)} pins to {PINS}")


if __name__ == "__main__":
    main()
