"""Scenario documents for the benchmark workloads.

``reference`` is ``scenarios/reference.json`` exactly as shipped (seed 7);
the benchmark seed does not change it, so its output digest stays the
ROADMAP pin.  ``intra-mesh`` and ``multidomain-churn`` are generated here
from the benchmark seed: the same seed gives byte-identical JSON, which the
simulator then receives as an ordinary scenario file.

Every domain is a jittered grid mesh drawn from the seed (see ``_mesh``).
Border fibers join random nodes on the facing edges of adjacent domains;
nothing about the draw is chosen to avoid or to trigger a known defect.

Usage: python3 perfbench/workloads.py <workload> <seed>   (prints the JSON)
"""

import json
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("reference", "intra-mesh", "multidomain-churn")

RATES = [{"gbps": 100, "weight": 3.0}, {"gbps": 200, "weight": 2.0},
         {"gbps": 400, "weight": 1.0}]

# intra-mesh: one domain, wide flex grid, load high enough that spectrum
# is a leading block reason.
MESH_COLS, MESH_ROWS = 8, 5
MESH_SPACING_KM = 60.0
MESH_GRID = 320
MESH_ARRIVALS = 1500
MESH_RATE = 40.0
MESH_HOLDING = 10.0

# multidomain-churn: a chain of domains, mostly cross-domain traffic, one
# link event (down or up) per ~6 arrivals on intra-domain and border fibers.
CHURN_DOMAINS = 4
CHURN_SIDE = 5  # each domain is a 5 x 5 grid
CHURN_SPACING_KM = 80.0
CHURN_BORDERS = 2  # border fibers between each adjacent pair of domains
CHURN_ARRIVALS = 1500
CHURN_RATE = 10.0
CHURN_HOLDING = 15.0
CHURN_CROSS_SHARE = 0.8
CHURN_DOWN_RATE = CHURN_RATE / 12.0  # each down is followed by one up
CHURN_MEAN_REPAIR = 4.0


def _expo(rng: random.Random, mean: float) -> float:
    return -math.log1p(-rng.random()) * mean


def _mesh(rng: random.Random, cols: int, rows: int, spacing: float) -> list:
    """Fiber list [(a, b, km)] of a jittered grid mesh over nodes 1..cols*rows.

    Node n sits at grid cell ((n-1) % cols, (n-1) // cols), moved by up to
    a third of the spacing in each axis; fibers join horizontal and vertical
    neighbours and their length is the distance between the moved points.
    """
    pos = {}
    for n in range(1, cols * rows + 1):
        col, row = (n - 1) % cols, (n - 1) // cols
        pos[n] = (
            (col + rng.uniform(-1 / 3, 1 / 3)) * spacing,
            (row + rng.uniform(-1 / 3, 1 / 3)) * spacing,
        )
    links = []
    for n in pos:
        col, row = (n - 1) % cols, (n - 1) // cols
        for m, ok in ((n + 1, col + 1 < cols), (n + cols, row + 1 < rows)):
            if ok:
                links.append((n, m, round(math.dist(pos[n], pos[m]), 1)))
    return links


def _domain(did: int, count: int, links: list, ports: int, add_drop: int) -> dict:
    return {
        "id": did,
        "nodes": [
            {"local": n, "ports": ports, "port_rate": 400, "add_drop": add_drop}
            for n in range(1, count + 1)
        ],
        "links": [{"a": a, "b": b, "length": km} for a, b, km in links],
    }


def intra_mesh(seed: int) -> dict:
    rng = random.Random(f"intra-mesh/{seed}")
    links = _mesh(rng, MESH_COLS, MESH_ROWS, MESH_SPACING_KM)
    return {
        "schema": 1,
        "grid_size": MESH_GRID,
        "k_paths": 3,
        "recovery": "auto-recompile",
        "seed": seed,
        "domains": [_domain(1, MESH_COLS * MESH_ROWS, links, ports=64, add_drop=64)],
        "border_links": [],
        "traffic": {
            "arrivals": MESH_ARRIVALS,
            "arrival_rate": MESH_RATE,
            "mean_holding": MESH_HOLDING,
            "pairs": "all",
            "rates": RATES,
        },
    }


def multidomain_churn(seed: int) -> dict:
    rng = random.Random(f"multidomain-churn/{seed}")
    domains = []
    fibers = []  # [(NodeRef, NodeRef)] every fiber a link event may hit
    for did in range(1, CHURN_DOMAINS + 1):
        links = _mesh(rng, CHURN_SIDE, CHURN_SIDE, CHURN_SPACING_KM)
        domains.append(_domain(did, CHURN_SIDE ** 2, links, ports=32, add_drop=32))
        fibers += [([did, a], [did, b]) for a, b, _ in links]
    # Domain d's east column faces domain d+1's west column.
    east = [row * CHURN_SIDE + CHURN_SIDE for row in range(CHURN_SIDE)]
    west = [row * CHURN_SIDE + 1 for row in range(CHURN_SIDE)]
    borders = []
    for did in range(1, CHURN_DOMAINS):
        pairs = rng.sample([(a, b) for a in east for b in west], CHURN_BORDERS)
        for a, b in sorted(pairs):
            a, b = [did, a], [did + 1, b]
            km = round(rng.uniform(1.0, 3.0) * CHURN_SPACING_KM, 1)
            borders.append({"a": a, "b": b, "length": km})
            fibers.append((a, b))

    nodes = [[d, n] for d in range(1, CHURN_DOMAINS + 1)
             for n in range(1, CHURN_SIDE ** 2 + 1)]
    events = []
    now = 0.0
    next_down = _expo(rng, 1 / CHURN_DOWN_RATE)
    repairs = []  # [(time, fiber index)] pending link_up events, time-ordered
    down = set()
    arrivals = 0
    while arrivals < CHURN_ARRIVALS:
        next_arrival = now + _expo(rng, 1 / CHURN_RATE)
        # Link events due before the next arrival, in time order.
        while True:
            due_up = repairs[0][0] if repairs else math.inf
            t = min(due_up, next_down)
            if t > next_arrival:
                break
            if due_up <= next_down:
                _, idx = repairs.pop(0)
                down.discard(idx)
                kind = "link_up"
            else:
                idx = rng.choice([i for i in range(len(fibers)) if i not in down])
                down.add(idx)
                repairs.append((t + _expo(rng, CHURN_MEAN_REPAIR), idx))
                repairs.sort()
                next_down = t + _expo(rng, 1 / CHURN_DOWN_RATE)
                kind = "link_down"
            a, b = fibers[idx]
            events.append({"time": round(t, 6), "kind": kind, "a": a, "b": b})
        now = next_arrival
        src = rng.choice(nodes)
        if rng.random() < CHURN_CROSS_SHARE:
            dst = rng.choice([n for n in nodes if n[0] != src[0]])
        else:
            dst = rng.choice([n for n in nodes if n[0] == src[0] and n != src])
        rate = rng.choices([r["gbps"] for r in RATES], [r["weight"] for r in RATES])[0]
        events.append({
            "time": round(now, 6), "kind": "arrival", "src": src, "dst": dst,
            "rate": rate, "holding": round(_expo(rng, CHURN_HOLDING), 6),
        })
        arrivals += 1
    # Bring every fiber back so the run ends on a fully repaired network.
    for t, idx in repairs:
        a, b = fibers[idx]
        events.append({"time": round(t, 6), "kind": "link_up", "a": a, "b": b})

    return {
        "schema": 1,
        "grid_size": 80,
        "k_paths": 3,
        "recovery": "auto-recompile",
        "seed": seed,
        "domains": domains,
        "border_links": borders,
        "events": events,
    }


def scenario_text(workload: str, seed: int) -> str:
    """JSON text of the scenario a workload runs for ``seed``."""
    if workload == "reference":
        return (ROOT / "scenarios" / "reference.json").read_text()
    if workload == "intra-mesh":
        doc = intra_mesh(seed)
    elif workload == "multidomain-churn":
        doc = multidomain_churn(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[-1])
    sys.stdout.write(scenario_text(sys.argv[1], int(sys.argv[2])))
