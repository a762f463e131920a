"""Deterministic discrete-event simulation of intent-driven domains.

Events (intent arrivals and departures, link failures and repairs) are
processed in (time, sequence) order; after every event all inter-domain
messages are delivered to quiescence, so each event resolves fully before
the next one runs.  The engine is single-threaded and replay-deterministic:
the same scenario and seed always produce identical metrics and logs.

Traffic synthesis uses the PCG64 generator (numpy's 64-bit permuted
congruential generator) with inverse-CDF sampling for exponential
inter-arrival and holding times, which makes event lists reproducible
bit-for-bit across platforms.
"""

import enum
import heapq
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .compilation import (
    CompileOutcome,
    InstallOutcome,
    compile_connectivity,
    compile_probe,
    install_intent,
)
from .errors import InvalidConfigError, LinkStateError, UnknownLinkError
from .intents import ConnectivityIntent, IntentId, IntentState, LightpathIntent, RemoteIntent
from .multidomain import DomainController, deliver_messages
from .network import NodeId, link_key

log = logging.getLogger(__name__)

POLICY_AUTO = "auto-recompile"
POLICY_NONE = "none"


class EventKind(enum.Enum):
    ARRIVAL = "arrival"
    DEPARTURE = "departure"
    LINK_DOWN = "link_down"
    LINK_UP = "link_up"


@dataclass(frozen=True)
class Event:
    """One simulation event; processed in (time, seq) order."""

    time: float
    seq: int
    kind: EventKind
    intent: Optional[ConnectivityIntent] = None
    holding: Optional[float] = None
    intent_id: Optional[IntentId] = None
    domain: Optional[int] = None
    link: Optional[tuple] = None  # (NodeId, NodeId)


@dataclass
class IntentRecord:
    intent_id: IntentId
    outcome: str  # installed | blocked
    compile_time: Optional[float] = None
    install_time: Optional[float] = None


@dataclass
class Metrics:
    offered: int = 0
    blocked: int = 0
    installed_ok: int = 0
    failures_recovered: int = 0
    slot_utilization_samples: list = field(default_factory=list)  # (time, fraction)
    per_intent: list = field(default_factory=list)

    def mean_slot_utilization(self) -> float:
        """Time-weighted mean of the utilization samples."""
        samples = self.slot_utilization_samples
        if not samples:
            return 0.0
        span = samples[-1][0] - samples[0][0]
        if span <= 0:
            return samples[-1][1]
        total = 0.0
        for (t0, value), (t1, _) in zip(samples, samples[1:]):
            total += value * (t1 - t0)
        return total / span

    def finalize(self) -> None:
        if self.offered != self.blocked + self.installed_ok:
            raise AssertionError(
                f"conservation violated: offered={self.offered} "
                f"blocked={self.blocked} installed={self.installed_ok}"
            )


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
            raise InvalidConfigError("arrivals must be >= 0")
        if self.arrival_rate <= 0:
            raise InvalidConfigError("arrival rate must be > 0")
        if self.mean_holding <= 0:
            raise InvalidConfigError("mean holding time must be > 0")
        if not self.pairs:
            raise InvalidConfigError("traffic needs at least one node pair")
        for src, dst, weight in self.pairs:
            if src == dst or weight <= 0:
                raise InvalidConfigError(f"bad traffic pair ({src}, {dst}, {weight})")
        if not self.rates or any(w <= 0 or r <= 0 for r, w in self.rates):
            raise InvalidConfigError("rates need positive gbps and weights")


def generate_traffic(config: TrafficConfig, seed: int) -> list:
    """Synthesize ARRIVAL events with exponential inter-arrival/holding times.

    Four PCG64 draws per arrival, in fixed order: inter-arrival, node pair,
    rate, holding time.  Exponentials come from the inverse CDF
    (-ln(1-u) / rate), so scaling the arrival rate rescales arrival times
    exactly while leaving the rest of the stream untouched.
    """
    if config.arrivals == 0:
        return []
    rng = np.random.Generator(np.random.PCG64(seed))
    pair_cum = _cumulative([w for _, _, w in config.pairs])
    rate_cum = _cumulative([w for _, w in config.rates])

    events = []
    now = 0.0
    for i in range(config.arrivals):
        now += -math.log1p(-rng.random()) / config.arrival_rate
        src, dst, _ = config.pairs[_pick(pair_cum, rng.random())]
        rate = config.rates[_pick(rate_cum, rng.random())][0]
        holding = -math.log1p(-rng.random()) * config.mean_holding
        events.append(
            Event(
                time=now,
                seq=i,
                kind=EventKind.ARRIVAL,
                intent=ConnectivityIntent(src, dst, rate),
                holding=holding,
            )
        )
    return events


def _cumulative(weights):
    total = 0.0
    out = []
    for w in weights:
        total += w
        out.append(total)
    return out


def _pick(cumulative, u: float) -> int:
    threshold = u * cumulative[-1]
    for i, edge in enumerate(cumulative):
        if threshold < edge:
            return i
    return len(cumulative) - 1


# -- monitoring ----------------------------------------------------------------


def monitor_failure(domains: dict, a: NodeId, b: NodeId,
                    policy: str = POLICY_AUTO) -> int:
    """React to a fiber going down.

    Marks the link non-operational in every domain that knows it, fails the
    installed lightpaths riding it (reservations persist: failure is not a
    release), and under the auto-recompile policy tries to move each affected
    intent onto surviving resources.  Returns the number of recovered intents.
    """
    _set_link_state(domains, a, b, up=False)
    key = link_key(a, b)

    affected = []
    for did in sorted(domains):
        ctrl = domains[did]
        for iid in list(ctrl.dag.nodes):
            payload = ctrl.dag.payload(iid)
            if not isinstance(payload, LightpathIntent):
                continue
            if ctrl.dag.state(iid) is not IntentState.INSTALLED:
                continue
            if _traverses(payload.path, key):
                ctrl.dag.transition(iid, IntentState.FAILED)
                root = _top_ancestor(ctrl.dag, iid)
                if (did, root) not in affected:
                    affected.append((did, root))
        ctrl.flush_notifications()

    recovered = 0
    if policy == POLICY_AUTO:
        for did, root in affected:
            recovered += _attempt_recovery(domains[did], root)
    return recovered


def monitor_repair(domains: dict, a: NodeId, b: NodeId,
                   policy: str = POLICY_AUTO) -> int:
    """React to a fiber coming back: every failed intent gets one recompile."""
    _set_link_state(domains, a, b, up=True)
    recovered = 0
    if policy == POLICY_AUTO:
        for did in sorted(domains):
            ctrl = domains[did]
            failed_roots = [
                iid
                for iid in list(ctrl.dag.nodes)
                if not ctrl.dag.parents(iid)
                and ctrl.dag.aggregate_state(iid) is IntentState.FAILED
            ]
            for root in failed_roots:
                recovered += _attempt_recovery(ctrl, root)
    return recovered


def _set_link_state(domains, a, b, up: bool) -> None:
    holders = [d for d in sorted(domains) if domains[d].graph.link_between(a, b)]
    if not holders:
        raise UnknownLinkError(f"no domain knows a fiber {a}-{b}")
    changeable = [
        d for d in holders
        if domains[d].graph.link_between(a, b).operational != up
    ]
    if not changeable:
        state = "up" if up else "down"
        raise LinkStateError(f"fiber {a}-{b} already {state}")
    for d in changeable:
        domains[d].graph.set_link_operational(a, b, up)


def _traverses(path, key) -> bool:
    return any(link_key(u, v) == key for u, v in zip(path, path[1:]))


def _top_ancestor(dag, iid):
    node = iid
    while True:
        parents = dag.parents(node)
        if not parents:
            return node
        node = parents[0]


def _attempt_recovery(ctrl: DomainController, root) -> int:
    """Recompile what failed under ``root``; returns 1 when it reinstalls.

    A feasibility probe runs first, treating the intent's own holdings as
    free; only a feasible recompilation tears the old implementation down,
    so infeasible intents keep their reservations and stay failed.  For an
    intent with delegated parts only the failed local pieces are rebuilt;
    remote failures are recovered by the domain that owns them.
    """
    dag = ctrl.dag
    if root not in dag.nodes or dag.aggregate_state(root) is not IntentState.FAILED:
        return 0

    if ctrl.has_remote_parts(root):
        units = [
            child
            for child in dag.children(root)
            if not isinstance(dag.payload(child), RemoteIntent)
            and dag.aggregate_state(child) is IntentState.FAILED
        ]
    else:
        units = [root]
    if not units:
        return 0

    recovered_all = True
    for unit in units:
        payload = dag.payload(unit)
        held = set(dag.leaves_under(unit))
        feasible = compile_probe(
            ctrl,
            payload.src,
            payload.dst,
            payload.rate,
            excluded_links=payload.excluded_links(),
            as_free=held,
        )
        if not feasible:
            recovered_all = False
            continue
        compile_connectivity(ctrl, unit)
        ctrl.flush_notifications(unit)
        install_intent(ctrl, unit)
        ctrl.flush_notifications(unit)

    if recovered_all and dag.aggregate_state(root) is IntentState.INSTALLED:
        log.debug("domain %d recovered intent %s", ctrl.id, root)
        return 1
    return 0


# -- engine ---------------------------------------------------------------------


@dataclass
class SimulationResult:
    metrics: Metrics
    event_log: list
    domains: dict


class Simulation:
    """Single-threaded reference engine driving a set of domain controllers.

    ``on_event`` (if given) is called as ``on_event(sim, event)`` after each
    event has fully resolved, message quiescence included; tests use it to
    audit invariants after every step.
    """

    def __init__(self, scenario, on_event: Optional[Callable] = None):
        self.scenario = scenario
        self.domains = scenario.build_domains()
        self.policy = scenario.recovery
        self.on_event = on_event
        self.metrics = Metrics()
        self.event_log = []
        self.now = 0.0
        self._heap = []
        self._seq = 0
        for event in scenario.build_events():
            heapq.heappush(self._heap, (event.time, event.seq, event))
            self._seq = max(self._seq, event.seq + 1)
        registries = [d.registry for d in self.domains.values()]
        self._registry = registries[0] if registries else {}
        # Border fibers live in two graphs; count capacity once, at the
        # administering (lower-id) side.
        self._total_cells = 0
        for ctrl in self.domains.values():
            for key in ctrl.graph.fiber_links:
                if min(key[0].domain, key[1].domain) == ctrl.id:
                    self._total_cells += ctrl.graph.slot_count

    # -- scheduling ----------------------------------------------------------

    def schedule(self, time: float, kind: EventKind, **fields) -> None:
        event = Event(time=time, seq=self._seq, kind=kind, **fields)
        self._seq += 1
        heapq.heappush(self._heap, (event.time, event.seq, event))

    # -- main loop -----------------------------------------------------------

    def run(self) -> SimulationResult:
        while self._heap:
            _, _, event = heapq.heappop(self._heap)
            self.now = event.time
            if event.kind is EventKind.ARRIVAL:
                self._handle_arrival(event)
            elif event.kind is EventKind.DEPARTURE:
                self._handle_departure(event)
            elif event.kind is EventKind.LINK_DOWN:
                self._handle_link_change(event, up=False)
            else:
                self._handle_link_change(event, up=True)
            self._deliver()
            self._sample_utilization()
            if self.on_event is not None:
                self.on_event(self, event)
        self.metrics.finalize()
        return SimulationResult(self.metrics, self.event_log, self.domains)

    # -- event handlers --------------------------------------------------------

    def _handle_arrival(self, event: Event) -> None:
        intent = event.intent
        ctrl = self.domains[self._registry[intent.src]]
        self.metrics.offered += 1
        iid = ctrl.add_intent(intent)
        record = IntentRecord(iid, "blocked")

        result = compile_connectivity(ctrl, iid)
        self._deliver()
        reason = result.reason.value if result.reason else ""

        installed = False
        if (
            result.outcome is CompileOutcome.COMPILED
            and ctrl.dag.aggregate_state(iid) is IntentState.COMPILED
        ):
            record.compile_time = self.now
            outcome = ctrl.install(iid)
            if outcome is InstallOutcome.PENDING:
                self._deliver()
                outcome = ctrl.finalize_install(iid)
            installed = outcome is InstallOutcome.INSTALLED

        if installed:
            self.metrics.installed_ok += 1
            record.outcome = "installed"
            record.install_time = self.now
            self.schedule(
                self.now + event.holding,
                EventKind.DEPARTURE,
                intent_id=iid,
                domain=ctrl.id,
            )
        else:
            self.metrics.blocked += 1
            # Metrics and the event log keep the record of a blocked request;
            # the DAG drops it, and the neighbors drop its delegated pieces.
            ctrl.remove(iid)

        self.metrics.per_intent.append(record)
        self.event_log.append(
            {
                "time": self.now,
                "seq": event.seq,
                "event": "arrival",
                "intent": str(iid),
                "src": str(intent.src),
                "dst": str(intent.dst),
                "rate": intent.rate,
                "outcome": record.outcome,
                "reason": reason if not installed else "",
            }
        )

    def _handle_departure(self, event: Event) -> None:
        ctrl = self.domains[event.domain]
        iid = event.intent_id
        agg = ctrl.dag.aggregate_state(iid)
        if agg in (IntentState.INSTALLED, IntentState.FAILED):
            ctrl.uninstall(iid)
            self._deliver()
        ctrl.remove(iid)
        self.event_log.append(
            {
                "time": self.now,
                "seq": event.seq,
                "event": "departure",
                "intent": str(iid),
                "state_at_departure": agg.value,
            }
        )

    def _handle_link_change(self, event: Event, up: bool) -> None:
        a, b = event.link
        if up:
            recovered = monitor_repair(self.domains, a, b, policy=self.policy)
        else:
            recovered = monitor_failure(self.domains, a, b, policy=self.policy)
        self.metrics.failures_recovered += recovered
        self.event_log.append(
            {
                "time": self.now,
                "seq": event.seq,
                "event": "link_up" if up else "link_down",
                "link": f"{a}-{b}",
                "recovered": recovered,
            }
        )

    # -- plumbing ----------------------------------------------------------------

    def _deliver(self) -> None:
        for msg in deliver_messages(self.domains):
            self.event_log.append(
                {
                    "time": self.now,
                    "event": "message",
                    "from": msg.sender,
                    "to": msg.receiver,
                    "mseq": msg.seq,
                    "kind": msg.kind(),
                    "body": repr(msg.body),
                }
            )

    def _sample_utilization(self) -> None:
        reserved = sum(d.graph.reserved_cells for d in self.domains.values())
        value = reserved / self._total_cells if self._total_cells else 0.0
        self.metrics.slot_utilization_samples.append((self.now, value))


def run(scenario, on_event: Optional[Callable] = None) -> SimulationResult:
    """Run a scenario to completion and return metrics, log, and final state."""
    return Simulation(scenario, on_event=on_event).run()
