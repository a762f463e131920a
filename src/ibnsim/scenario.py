"""Scenario documents: parsing, validation, and world-building.

A scenario is a single JSON document (schema version 1) describing domains
with their nodes and fiber links, border links, shared configuration (grid
size, candidate path count, transceiver mode table, recovery policy), and
either synthetic traffic parameters or an explicit event list.  See
docs/schema.md for the field-by-field reference.

Traffic synthesis draws from numpy's PCG64 stream (``Generator(PCG64(seed))
.random()``), reproduced in pure Python by ``pcg64``, so every seed gives
the same traffic with or without numpy installed.  Inverse-CDF sampling
gives the exponential inter-arrival and holding times, which makes event
lists reproducible bit-for-bit across platforms.
"""

import json
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .errors import ScenarioParseError, ScenarioValidationError
from .intents import ConnectivityIntent
from .multidomain import DomainConfig, DomainController, route_domains
from .network import DEFAULT_MODE_TABLE, DEFAULT_SLOT_COUNT, NodeId, TransmissionMode, link_key
from .pcg64 import random_doubles
from .simulation import POLICY_AUTO, POLICY_NONE, Event, EventKind

SCHEMA_VERSION = 1

RECOVERY_POLICIES = (POLICY_AUTO, POLICY_NONE)

# Upper bounds on sizes that set what a run allocates (docs/schema.md says
# why each is where it is).
MAX_GRID_SIZE = 1024
MAX_K_PATHS = 64
MAX_DOMAIN_ID = 2**31 - 1  # not a size: dag_<id>.dot must be a valid file name
MAX_TRAFFIC_PAIRS = 10**6  # traffic pairs "all" makes N*(N-1) of them
MAX_ARRIVALS = 100_000  # set-up holds every synthetic arrival (~0.3 kB each)

# The largest exponential draw, -log1p(-u) for the largest double u < 1.
MAX_DRAW = 53 * math.log(2)
# Traffic whose event times could pass this is refused; the margin covers
# rounding in the running sum of inter-arrival gaps.
MAX_EVENT_TIME = sys.float_info.max / 2
# mean_holding must be this many times the spacing of doubles at the latest
# possible arrival time, so that only holding draws below about 2**-21 of
# the mean can round away and leave a departure at its arrival's instant.
HOLDING_ULPS = 2**20

_EVENT_KINDS = {kind.value: kind for kind in EventKind}


# -- traffic synthesis ---------------------------------------------------------


@dataclass(frozen=True)
class TrafficConfig:
    arrivals: int
    arrival_rate: float  # intents per second
    mean_holding: float  # seconds
    pairs: tuple  # ((src: NodeId, dst: NodeId, weight), ...)
    rates: tuple = ((100, 1.0),)  # ((gbps, weight), ...)

    def __post_init__(self):
        if self.arrivals < 0:
            raise ScenarioValidationError("traffic: arrivals must be >= 0")
        if self.arrivals > MAX_ARRIVALS:
            raise ScenarioValidationError(f"traffic: arrivals must be <= {MAX_ARRIVALS}")
        if self.arrival_rate <= 0:
            raise ScenarioValidationError("traffic: arrival rate must be > 0")
        if self.mean_holding <= 0:
            raise ScenarioValidationError("traffic: mean holding time must be > 0")
        if (self.arrivals * MAX_DRAW / self.arrival_rate
                + MAX_DRAW * self.mean_holding > MAX_EVENT_TIME):
            raise ScenarioValidationError(
                "traffic: arrivals / arrival_rate + mean_holding must be at most about "
                f"{MAX_EVENT_TIME / MAX_DRAW:.4g}, or event times overflow")
        least = HOLDING_ULPS * math.ulp(self.arrivals * MAX_DRAW / self.arrival_rate)
        if self.mean_holding < least:
            raise ScenarioValidationError(
                f"traffic: mean holding time must be >= {least!r}, {HOLDING_ULPS} times "
                "the spacing of doubles at the latest arrival time")
        if not self.pairs:
            raise ScenarioValidationError("traffic: needs at least one node pair")
        for src, dst, weight in self.pairs:
            if src == dst:
                raise ScenarioValidationError(f"traffic: pair {src}->{dst} is a loop")
            if weight <= 0:
                raise ScenarioValidationError(
                    f"traffic: pair {src}->{dst} needs a positive weight")
        if not self.rates or any(w <= 0 or r <= 0 for r, w in self.rates):
            raise ScenarioValidationError("traffic: rates need positive gbps and weights")
        # _pick scales a draw by the total; an infinite one picks the last.
        for name, weights in (("pair", [w for _, _, w in self.pairs]),
                              ("rate", [w for _, w in self.rates])):
            if not math.isfinite(_cumulative(weights)[-1]):
                raise ScenarioValidationError(
                    f"traffic: {name} weights must have a finite total")


def generate_traffic(config: TrafficConfig, seed: int) -> list:
    """Synthesize ARRIVAL events with exponential inter-arrival/holding times.

    Four draws per arrival from numpy's PCG64 stream for ``seed`` (see
    ``pcg64``), in fixed order: inter-arrival, node pair, rate, holding
    time.  Exponentials come from the inverse CDF (-ln(1-u) / rate), so
    scaling the arrival rate rescales arrival times exactly while leaving
    the rest of the stream untouched.
    """
    pairs, rates = config.pairs, config.rates
    pair_cum = _cumulative([w for _, _, w in pairs])
    rate_cum = _cumulative([w for _, w in rates])
    arrival_rate, mean_holding = config.arrival_rate, config.mean_holding
    log1p, pick, arrival = math.log1p, _pick, EventKind.ARRIVAL
    draws = iter(random_doubles(seed, 4 * config.arrivals))

    events = []
    append = events.append
    now = 0.0
    seq = 0
    for u_gap, u_pair, u_rate, u_hold in zip(draws, draws, draws, draws):
        now += -log1p(-u_gap) / arrival_rate
        src, dst, _ = pairs[pick(pair_cum, u_pair)]
        intent = ConnectivityIntent(src, dst, rates[pick(rate_cum, u_rate)][0])
        append(Event(now, seq, arrival, intent, -log1p(-u_hold) * mean_holding))
        seq += 1
    return events


def _cumulative(weights):
    total = 0.0
    out = []
    for w in weights:
        total += w
        out.append(total)
    return out


def _pick(cumulative, u: float) -> int:
    """First index whose edge exceeds u * total, else the last index."""
    i = bisect_right(cumulative, u * cumulative[-1])
    return i if i < len(cumulative) else i - 1


# -- specs -------------------------------------------------------------------


@dataclass(frozen=True)
class NodeSpec:
    local: int
    ports: int
    port_rate: int
    add_drop: int


@dataclass(frozen=True)
class LinkSpec:
    a: int
    b: int
    length: float


@dataclass(frozen=True)
class DomainSpec:
    id: int
    nodes: tuple
    links: tuple


@dataclass(frozen=True)
class BorderSpec:
    a: NodeId
    b: NodeId
    length: float


@dataclass
class Scenario:
    domains: tuple
    border_links: tuple = ()
    grid_size: int = DEFAULT_SLOT_COUNT
    k_paths: int = DomainConfig.k_paths
    mode_table: tuple = DEFAULT_MODE_TABLE
    recovery: str = POLICY_AUTO
    seed: int = 0
    traffic: Optional[TrafficConfig] = None
    events: tuple = ()

    def __post_init__(self):
        # Here rather than in the parser, so a seed given on the command
        # line is checked too.
        if self.seed < 0:
            raise ScenarioValidationError("seed must be >= 0")

    # -- world building ------------------------------------------------------

    def build_domains(self) -> dict:
        """Instantiate one controller per domain; they share no state."""
        controllers: dict = {}
        for dspec in sorted(self.domains, key=lambda d: d.id):
            ctrl = controllers[dspec.id] = DomainController(
                id=dspec.id,
                config=DomainConfig(k_paths=self.k_paths, mode_table=self.mode_table),
            )
            ctrl.graph.slot_count = self.grid_size
            for node in dspec.nodes:
                ctrl.add_node(node.local, node.ports, node.port_rate, node.add_drop)
            for link in dspec.links:
                ctrl.graph.add_fiber_link(
                    NodeId(dspec.id, link.a), NodeId(dspec.id, link.b), link.length
                )
        for border in self.border_links:
            controllers[border.a.domain].add_border_link(border.a, border.b, border.length)
            controllers[border.b.domain].add_border_link(border.b, border.a, border.length)
        route_domains(controllers)
        return controllers

    def build_events(self) -> list:
        """The run's initial events, with ``seq`` 0..n-1 in list order."""
        if self.traffic is not None:
            return generate_traffic(self.traffic, self.seed)
        kinds, arrival = _EVENT_KINDS, EventKind.ARRIVAL
        out = []
        append = out.append
        for i, spec in enumerate(self.events):
            kind = kinds[spec["kind"]]
            if kind is arrival:
                intent = ConnectivityIntent(spec["src"], spec["dst"], spec["rate"])
                append(Event(spec["time"], i, kind, intent, spec["holding"]))
            else:
                append(Event(spec["time"], i, kind, link=spec["link"]))
        return out


# -- parsing -----------------------------------------------------------------


def parse_scenario(document) -> Scenario:
    """Parse and validate a scenario document (JSON text or dict).

    Raises ScenarioParseError for malformed documents and
    ScenarioValidationError when cross-references or invariants are broken.
    """
    if isinstance(document, str):
        try:
            raw = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ScenarioParseError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
        except RecursionError:
            raise ScenarioParseError("JSON is nested too deeply") from None
        except ValueError as exc:  # an integer past CPython's digit limit
            raise ScenarioParseError(f"invalid JSON: {exc}") from None
    elif isinstance(document, dict):
        raw = document
    else:
        raise ScenarioParseError(f"expected JSON text or dict, got {type(document)}")

    schema = _require(raw, "schema", int)
    if schema != SCHEMA_VERSION:
        raise ScenarioParseError(f"unsupported schema version {schema}")

    grid_size = _optional(raw, "grid_size", int, DEFAULT_SLOT_COUNT)
    k_paths = _optional(raw, "k_paths", int, DomainConfig.k_paths)
    recovery = _optional(raw, "recovery", str, POLICY_AUTO)
    seed = _optional(raw, "seed", int, 0)
    if grid_size < 1:
        raise ScenarioValidationError("grid_size must be >= 1")
    if grid_size > MAX_GRID_SIZE:
        raise ScenarioValidationError(f"grid_size must be <= {MAX_GRID_SIZE}")
    if k_paths < 1:
        raise ScenarioValidationError("k_paths must be >= 1")
    if k_paths > MAX_K_PATHS:
        raise ScenarioValidationError(f"k_paths must be <= {MAX_K_PATHS}")
    if recovery not in RECOVERY_POLICIES:
        raise ScenarioValidationError(
            f"recovery must be one of {RECOVERY_POLICIES}, got {recovery!r}"
        )

    mode_table = _parse_mode_table(raw.get("mode_table"))
    domains = _parse_domains(_require(raw, "domains", list))
    declared = {NodeId(d.id, n.local) for d in domains for n in d.nodes}
    border_links = _parse_borders(_optional(raw, "border_links", list, []), declared)

    traffic = None
    events: tuple = ()
    if "traffic" in raw and "events" in raw:
        raise ScenarioValidationError("give either traffic or events, not both")
    if "traffic" in raw:
        traffic = _parse_traffic(raw["traffic"], declared)
    elif "events" in raw:
        fibers = {link_key(b.a, b.b) for b in border_links}
        for d in domains:
            fibers.update(link_key(NodeId(d.id, l.a), NodeId(d.id, l.b)) for l in d.links)
        events = _parse_events(_require(raw, "events", list), declared, fibers)

    return Scenario(
        domains=domains,
        border_links=border_links,
        grid_size=grid_size,
        k_paths=k_paths,
        mode_table=mode_table,
        recovery=recovery,
        seed=seed,
        traffic=traffic,
        events=events,
    )


_isfinite = math.isfinite


def _require(mapping, key, kind):
    # Fast path: a plain dict holding a value of exactly the wanted type
    # (bool is not int, and a number must be finite); a missing key reads as
    # None, which is never that type.  Everything else takes the full checks
    # below.  A dict subclass never takes it, so that a defaultdict is asked
    # ``key in mapping`` and does not grow the key.
    if type(mapping) is dict:
        value = mapping.get(key)
        if type(value) is kind and (kind is not float or _isfinite(value)):
            return value
    if not isinstance(mapping, dict):
        raise ScenarioParseError(
            f"expected an object holding {key!r}, got {type(mapping).__name__}"
        )
    if key not in mapping:
        raise ScenarioParseError(f"missing required field {key!r}")
    value = mapping[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ScenarioParseError(f"field {key!r} must be a number")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the largest double
            value = math.inf
        if not math.isfinite(value):
            raise ScenarioParseError(f"field {key!r} must be finite")
        return value
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ScenarioParseError(f"field {key!r} must be {kind.__name__}")
    return value


def _optional(mapping, key, kind, default):
    if key not in mapping:
        return default
    return _require(mapping, key, kind)


def _parse_node_ref(value, context: str) -> NodeId:
    # Fast path: a plain list of two plain ints; the rest is checked below.
    if type(value) is list and len(value) == 2:
        domain, local = value
        if type(domain) is int and type(local) is int:
            return NodeId(domain, local)
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(x, int) and not isinstance(x, bool) for x in value)
    ):
        raise ScenarioParseError(
            f"{context}: node reference must be [domain, local], got {value!r}"
        )
    return NodeId(value[0], value[1])


def _parse_mode_table(raw) -> tuple:
    if raw is None:
        return DEFAULT_MODE_TABLE
    if not isinstance(raw, list) or not raw:
        raise ScenarioParseError("mode_table must be a non-empty list")
    modes = []
    for entry in raw:
        rate = _require(entry, "rate", int)
        reach = _require(entry, "reach", float)
        slots = _require(entry, "slots", int)
        if rate <= 0 or reach <= 0 or slots <= 0:
            raise ScenarioValidationError(
                f"mode table entries must be positive, got {entry!r}"
            )
        modes.append(TransmissionMode(rate, reach, slots))
    return tuple(modes)


def _parse_domains(raw) -> tuple:
    if not raw:
        raise ScenarioValidationError("scenario needs at least one domain")
    domains = []
    seen_ids = set()
    for dentry in raw:
        did = _require(dentry, "id", int)
        if did < 0:  # run names a file after it
            raise ScenarioValidationError(f"domain id must be >= 0, got {did}")
        if did > MAX_DOMAIN_ID:
            raise ScenarioValidationError(f"domain id must be <= {MAX_DOMAIN_ID}")
        if did in seen_ids:
            raise ScenarioValidationError(f"duplicate domain id {did}")
        seen_ids.add(did)
        nodes = []
        seen_local = set()
        for nentry in _require(dentry, "nodes", list):
            local = _require(nentry, "local", int)
            if local in seen_local:
                raise ScenarioValidationError(
                    f"duplicate node {local} in domain {did}"
                )
            seen_local.add(local)
            node = NodeSpec(
                local=local,
                ports=_require(nentry, "ports", int),
                port_rate=_require(nentry, "port_rate", int),
                add_drop=_require(nentry, "add_drop", int),
            )
            if min(node.ports, node.port_rate, node.add_drop) < 0:
                raise ScenarioValidationError(
                    f"node {local} in domain {did}: ports, port_rate and "
                    "add_drop must be >= 0"
                )
            nodes.append(node)
        links = []
        seen_links = set()
        for lentry in _optional(dentry, "links", list, []):
            a = _require(lentry, "a", int)
            b = _require(lentry, "b", int)
            length = _require(lentry, "length", float)
            for end in (a, b):
                if end not in seen_local:
                    raise ScenarioValidationError(
                        f"link {a}-{b} in domain {did} references unknown node {end}"
                    )
            if length <= 0:
                raise ScenarioValidationError(
                    f"link {a}-{b} in domain {did} must have positive length"
                )
            if (min(a, b), max(a, b)) in seen_links:
                raise ScenarioValidationError(f"duplicate link {a}-{b} in domain {did}")
            seen_links.add((min(a, b), max(a, b)))
            links.append(LinkSpec(a, b, length))
        domains.append(DomainSpec(id=did, nodes=tuple(nodes), links=tuple(links)))
    return tuple(domains)


def _parse_borders(raw, declared) -> tuple:
    borders = []
    seen = set()
    for entry in raw:
        a = _parse_node_ref(_require(entry, "a", list), "border link")
        b = _parse_node_ref(_require(entry, "b", list), "border link")
        length = _require(entry, "length", float)
        for end in (a, b):
            if end not in declared:
                raise ScenarioValidationError(
                    f"border link references unknown node {end}"
                )
        if a.domain == b.domain:
            raise ScenarioValidationError(
                f"border link {a}-{b} must join two different domains"
            )
        if length <= 0:
            raise ScenarioValidationError(
                f"border link {a}-{b} must have positive length"
            )
        key = link_key(a, b)
        if key in seen:
            raise ScenarioValidationError(f"duplicate border link {a}-{b}")
        seen.add(key)
        borders.append(BorderSpec(a, b, length))
    return tuple(borders)


def _parse_traffic(raw, declared) -> TrafficConfig:
    arrivals = _require(raw, "arrivals", int)
    rate = _require(raw, "arrival_rate", float)
    holding = _require(raw, "mean_holding", float)

    pairs_raw = raw.get("pairs", "all")
    if pairs_raw == "all":
        nodes = sorted(declared)
        if len(nodes) * (len(nodes) - 1) > MAX_TRAFFIC_PAIRS:
            raise ScenarioValidationError(
                f'traffic: pairs "all" over {len(nodes)} nodes must make at most '
                f"{MAX_TRAFFIC_PAIRS} pairs")
        pairs = tuple(
            (src, dst, 1.0) for src in nodes for dst in nodes if src != dst
        )
    elif not isinstance(pairs_raw, list):
        raise ScenarioParseError('field \'pairs\' must be "all" or a list')
    else:
        pairs = []
        for entry in pairs_raw:
            src = _parse_node_ref(_require(entry, "src", list), "traffic pair")
            dst = _parse_node_ref(_require(entry, "dst", list), "traffic pair")
            weight = _optional(entry, "weight", float, 1.0)
            for end in (src, dst):
                if end not in declared:
                    raise ScenarioValidationError(
                        f"traffic pair references unknown node {end}"
                    )
            pairs.append((src, dst, weight))
        pairs = tuple(pairs)

    rates = tuple(
        (_require(entry, "gbps", int), _optional(entry, "weight", float, 1.0))
        for entry in _optional(raw, "rates", list, [{"gbps": 100}])
    )
    return TrafficConfig(arrivals, rate, holding, pairs, rates)


def _parse_events(raw, declared, fibers) -> tuple:
    """Check each entry as it is read, so the first offending one in file
    order is the one reported."""
    events = []
    last = 0.0
    down = set()
    for entry in raw:
        time = _require(entry, "time", float)
        kind = _require(entry, "kind", str)
        if time < 0:
            raise ScenarioValidationError("event times must be >= 0")
        if time < last:
            raise ScenarioValidationError("explicit events must be time-ordered")
        last = time
        if kind == "arrival":
            src = _parse_node_ref(_require(entry, "src", list), "arrival event")
            dst = _parse_node_ref(_require(entry, "dst", list), "arrival event")
            for end in (src, dst):
                if end not in declared:
                    raise ScenarioValidationError(
                        f"arrival references unknown node {end}"
                    )
            if src == dst:
                raise ScenarioValidationError("arrival src and dst must differ")
            rate = _require(entry, "rate", int)
            holding = _require(entry, "holding", float)
            if rate <= 0 or holding <= 0:
                raise ScenarioValidationError("arrival rate/holding must be positive")
            if not math.isfinite(time + holding):
                raise ScenarioValidationError(
                    f"arrival at time {time}: time + holding overflows a float")
            if time + holding == time:
                raise ScenarioValidationError(
                    f"arrival at time {time}: holding {holding} vanishes next to "
                    "its time, so it would depart at its arrival's instant")
            events.append(
                {
                    "time": time,
                    "kind": "arrival",
                    "src": src,
                    "dst": dst,
                    "rate": rate,
                    "holding": holding,
                }
            )
        elif kind in ("link_down", "link_up"):
            a = _parse_node_ref(_require(entry, "a", list), "link event")
            b = _parse_node_ref(_require(entry, "b", list), "link event")
            key = link_key(a, b)
            if key not in fibers:
                raise ScenarioValidationError(f"link event on unknown fiber {a}-{b}")
            # The engine runs time-ordered events in file order.  Every
            # fiber starts up; only an up fiber can go down, a down one up.
            if (key in down) == (kind == "link_down"):
                state = "down" if key in down else "up"
                raise ScenarioValidationError(
                    f"{kind} at time {time}: fiber {a}-{b} already {state}")
            down ^= {key}
            events.append({"time": time, "kind": kind, "link": (a, b)})
        else:
            raise ScenarioParseError(f"unknown event kind {kind!r}")
    return tuple(events)
