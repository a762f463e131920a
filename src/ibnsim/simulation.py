"""Deterministic discrete-event simulation of intent-driven domains.

Events (intent arrivals and departures, link failures and repairs) are
processed in (time, sequence) order; after every event all inter-domain
messages are delivered to quiescence, so each event resolves fully before
the next one runs.  The engine is single-threaded and replay-deterministic:
the same scenario and seed always produce identical metrics and logs.
"""

import enum
import heapq
import logging
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .compilation import (
    InstallOutcome,
    compile_connectivity,
    compile_probe,
    implement,
    install_intent,
    release_leaves,
)
from .errors import ConservationError, UnknownLinkError
from .intents import ConnectivityIntent, IntentId, IntentState, LightpathIntent, walk_state
from .multidomain import DomainController, deliver_messages
from .network import NodeId

log = logging.getLogger(__name__)

POLICY_AUTO = "auto-recompile"
POLICY_NONE = "none"


class EventKind(enum.Enum):
    ARRIVAL = "arrival"
    DEPARTURE = "departure"
    LINK_DOWN = "link_down"
    LINK_UP = "link_up"


class Event(NamedTuple):
    """One simulation event, and its own heap entry: events pop in (time,
    seq) order.  ``seq`` is unique within a run, so a heap comparison never
    reaches ``kind``, which has no order.  Like any tuple, an event equals
    the tuple of its fields."""

    time: float
    seq: int
    kind: EventKind
    intent: Optional[ConnectivityIntent] = None
    holding: Optional[float] = None
    intent_id: Optional[IntentId] = None  # its domain holds the intent
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
            raise ConservationError(
                f"conservation violated: offered={self.offered} "
                f"blocked={self.blocked} installed={self.installed_ok}"
            )


# -- monitoring ----------------------------------------------------------------


def monitor_failure(domains: dict, a: NodeId, b: NodeId,
                    policy: str = POLICY_AUTO) -> int:
    """React to a fiber going down.

    Marks the link non-operational in every domain that knows it, fails the
    installed lightpaths holding its slots (reservations persist: failure is
    not a release), and under the auto-recompile policy tries to rebuild the
    piece holding each failed lightpath, its parent, on surviving
    resources.  Returns the number of recovered intents.
    """
    affected = []
    for ctrl, link in _set_link_state(domains, a, b, up=False):
        failed = []
        # Ids are never reused, so sorted ids follow DAG insertion order.
        for iid in sorted(link.holders):
            if ctrl.dag.state(iid) is not IntentState.INSTALLED:
                continue
            ctrl.dag.transition(iid, IntentState.FAILED)
            piece = ctrl.dag.parent(iid)
            if piece not in failed:
                failed.append(piece)
        # Between events every delegator has heard the current aggregate,
        # so only the roots of the pieces failed here can have news for one.
        # A piece is its root or the root's first child, so pieces sort
        # like their roots.
        for piece in sorted(failed):
            ctrl.flush_notifications(piece)
        affected += [(ctrl, piece) for piece in failed]

    recovered = 0
    if policy == POLICY_AUTO:
        for ctrl, piece in affected:
            recovered += _attempt_recovery(ctrl, piece)
    return recovered


def monitor_repair(domains: dict, a: NodeId, b: NodeId,
                   policy: str = POLICY_AUTO) -> int:
    """React to a fiber coming back: the piece holding each failed lightpath
    gets one recompile.  A failed mirror is left to the domain that owns
    the delegated intent, which recovers its own lightpath."""
    _set_link_state(domains, a, b, up=True)
    recovered = 0
    if policy == POLICY_AUTO:
        for did in sorted(domains):
            dag = domains[did].dag
            # No lightpath fails during recovery.  Ids are never reused, so
            # sorted ids follow DAG insertion order.
            pieces = {dag.parent(leaf) for leaf in dag.failed
                      if isinstance(dag.payload(leaf), LightpathIntent)}
            for piece in sorted(pieces):
                recovered += _attempt_recovery(domains[did], piece)
    return recovered


def _set_link_state(domains, a, b, up: bool) -> list:
    """Set fiber a-b up or down in every graph that holds it; returns the
    (controller, fiber) pairs in domain id order.  As the only writer of
    link state, it keeps the copies equal, so a LinkStateError from the
    first graph leaves all of them unchanged."""
    pairs = [(domains[d], domains[d].graph.set_link_operational(a, b, up))
             for d in sorted(domains) if domains[d].graph.link_between(a, b)]
    if not pairs:
        raise UnknownLinkError(f"no domain knows a fiber {a}-{b}")
    return pairs


def _attempt_recovery(ctrl: DomainController, piece) -> int:
    """Rebuild ``piece``, the parent of a failed lightpath, from one walk
    of it; returns 1 when the piece's root is installed again.

    The piece is the root itself or, when the root has delegated parts,
    its local segment; its children are the leaves ``implement`` made.  It
    is probed once, counting its own leaves as free, so an infeasible one
    keeps its reservations and stays failed.  A feasible one is released,
    stripped of its children, rebuilt from the probe's plan and
    reinstalled.  Compiling it again would find the same plan: the probe
    counted as free exactly what the release frees, and routing reads only
    link state.
    """
    dag = ctrl.dag
    walk = dag.walk(piece)
    # Precondition: both callers hand in parents of failed lightpaths only.
    if walk_state(walk) is not IntentState.FAILED:
        return 0
    payload = walk[0][1].payload
    leaves = walk[1:]
    plan = compile_probe(ctrl, payload.src, payload.dst, payload.rate,
                         payload.excluded_links(), [leaf for leaf, _ in leaves])
    if plan is None:
        return 0

    release_leaves(ctrl, piece, walk)
    for leaf in leaves:
        dag.drop([leaf])
    implement(dag, piece, payload, plan)
    ctrl.flush_notifications(piece)
    install_intent(ctrl, piece)
    ctrl.flush_notifications(piece)
    root = dag.root(piece)
    if dag.aggregate_state(root) is not IntentState.INSTALLED:
        return 0
    log.debug("domain %d recovered intent %s", ctrl.id, root)
    return 1


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
        self.domains = scenario.build_domains()
        # Domain-id order, the order deliver_messages drains outboxes in.
        self._controllers = [self.domains[did] for did in sorted(self.domains)]
        self._graphs = [ctrl.graph for ctrl in self._controllers]
        self.policy = scenario.recovery
        self.on_event = on_event
        self.metrics = Metrics()
        self.event_log = []
        self.now = 0.0
        # build_events numbers its events 0..n-1, so the next seq is n.
        self._heap = scenario.build_events()
        heapq.heapify(self._heap)
        self._seq = len(self._heap)
        # Border fibers live in two graphs; count capacity once, at the
        # lower domain id.  Cross-domain lightpaths end at the border node,
        # so only a path through a foreign stub books a border fiber.
        self._total_cells = 0
        for ctrl in self._controllers:
            for key in ctrl.graph.fiber_links:
                if min(key[0].domain, key[1].domain) == ctrl.id:
                    self._total_cells += ctrl.graph.slot_count

    # -- scheduling ----------------------------------------------------------

    def schedule(self, time: float, kind: EventKind, **fields) -> None:
        heapq.heappush(self._heap, Event(time, self._seq, kind, **fields))
        self._seq += 1

    # -- main loop -----------------------------------------------------------

    def run(self) -> SimulationResult:
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
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
        ctrl = self.domains[intent.src.domain]
        self.metrics.offered += 1
        iid = ctrl.add_intent(intent)
        record = IntentRecord(iid, "blocked")

        result = compile_connectivity(ctrl, iid)
        self._deliver()
        reason = result.reason.value if result.reason else ""

        installed = False
        # A blocked compile leaves the root an uncompiled leaf.
        if ctrl.dag.aggregate_state(iid) is IntentState.COMPILED:
            record.compile_time = self.now
            # A verdict that is not installed has rolled its level back.
            if ctrl.install(iid) is InstallOutcome.PENDING:
                self._deliver()
            installed = ctrl.dag.aggregate_state(iid) is IntentState.INSTALLED

        if installed:
            self.metrics.installed_ok += 1
            record.outcome = "installed"
            record.install_time = self.now
            self.schedule(
                self.now + event.holding,
                EventKind.DEPARTURE,
                intent_id=iid,
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
                "reason": reason,
            }
        )

    def _handle_departure(self, event: Event) -> None:
        iid = event.intent_id
        ctrl = self.domains[iid.domain]
        agg = ctrl.dag.aggregate_state(iid)
        if ctrl.withdraw(iid):
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
        # Most steps send nothing; a round with every outbox empty is a no-op.
        for ctrl in self._controllers:
            if ctrl.outbox:
                break
        else:
            return
        # The frozen Message is kept as is; export.event_log_text renders it.
        self.event_log += [{"time": self.now, "event": "message", "message": msg}
                           for msg in deliver_messages(self.domains)]

    def _sample_utilization(self) -> None:
        reserved = 0
        for graph in self._graphs:
            reserved += graph.reserved_cells
        value = reserved / self._total_cells if self._total_cells else 0.0
        self.metrics.slot_utilization_samples.append((self.now, value))


def run(scenario, on_event: Optional[Callable] = None) -> SimulationResult:
    """Run a scenario to completion and return metrics, log, and final state."""
    return Simulation(scenario, on_event=on_event).run()
