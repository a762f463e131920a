"""Decentralized coordination between autonomous domain controllers.

Each controller owns one domain's graph (its booking record) and intent DAG,
and exchanges ordered messages with its neighbors through its one outbox.
Cross-domain connectivity is split at a border link: the local piece is
compiled in place while the rest is delegated to the next-hop neighbor, which
may recursively delegate further.  A RemoteIntent leaf mirrors the delegated
intent's aggregate state via STATE_NOTIFY messages.

Message handling is synchronous and deterministic: ``deliver_messages`` drains
all outboxes in ascending (sender id, sequence) order until quiescence.
"""

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .compilation import (
    BlockReason,
    CompilationResult,
    CompileOutcome,
    InstallOutcome,
    blocked,
    compile_connectivity,
    install_intent,
    uninstall_intent,
)
from .errors import UnknownRemoteError
from .intents import (
    HOLDING_STATES,
    ConnectivityIntent,
    IntentDAG,
    IntentId,
    IntentState,
    RemoteIntent,
    RouterPortIntent,
)
from .network import DEFAULT_MODE_TABLE, FiberLink, NetworkGraph, NodeId, OxcView, RouterView

log = logging.getLogger(__name__)


@dataclass
class DomainConfig:
    k_paths: int = 3
    mode_table: tuple = DEFAULT_MODE_TABLE


# -- message vocabulary -------------------------------------------------------


@dataclass(frozen=True)
class Delegate:
    """Hand an intent to a neighbor; ``parent`` is the sender's mirror node."""

    payload: object
    parent: IntentId


@dataclass(frozen=True)
class Ack:
    """Delegation bookkeeping: the id the receiver assigned to the intent."""

    remote_id: IntentId
    parent: IntentId


@dataclass(frozen=True)
class StateNotify:
    """Aggregate state of the sender-side intent ``remote_id`` changed."""

    remote_id: IntentId
    state: IntentState


@dataclass(frozen=True)
class InstallRequest:
    """Ask the holding domain to realize a delegated intent."""

    remote_id: IntentId


@dataclass(frozen=True)
class Uninstall:
    """Ask the holding domain to release a delegated intent's resources."""

    remote_id: IntentId


@dataclass(frozen=True)
class Remove:
    """Delegated intent is being withdrawn; drop it entirely."""

    remote_id: IntentId


@dataclass(frozen=True)
class Message:
    sender: int
    receiver: int
    seq: int  # strictly increasing per sender
    body: object

    def kind(self) -> str:
        return type(self.body).__name__.lower()


# -- controller ---------------------------------------------------------------


@dataclass
class DomainController:
    """Centralized controller of one autonomous domain.

    Holds only its own nodes plus border-link stubs; everything beyond the
    border is reached through delegation.  A node's owner is its
    ``NodeId.domain``, so controllers share no state: each knows its own
    graph, its ``border_links`` (the border fibers in that graph) and its
    ``next_hop`` table, which ``route_domains`` sets.  Sequential actor: one
    message or event is processed at a time.
    """

    id: int
    graph: NetworkGraph = field(default_factory=NetworkGraph)
    dag: IntentDAG = None
    config: DomainConfig = field(default_factory=DomainConfig)
    border_links: list = field(default_factory=list)  # FiberLinks; endpoints (local, remote)
    next_hop: dict = field(default_factory=dict)  # foreign domain -> neighbor
    outbox: deque = field(default_factory=deque)  # Messages in seq order

    # Coordination bookkeeping.
    origins: dict = field(default_factory=dict)  # delegated id -> delegator domain
    last_notified: dict = field(default_factory=dict)  # delegated id -> IntentState
    mirror_index: dict = field(default_factory=dict)  # remote id -> local mirror id
    pending_installs: set = field(default_factory=set)  # mirror ids awaiting verdict

    def __post_init__(self):
        if self.dag is None:
            self.dag = IntentDAG(domain=self.id)
        self._seq = 0

    # -- topology ----------------------------------------------------------

    def add_node(self, local: int, port_count: int, port_rate: int,
                 add_drop: int) -> NodeId:
        node = NodeId(self.id, local)
        self.graph.add_node(
            RouterView(node, port_count, port_rate), OxcView(node, add_drop)
        )
        return node

    def add_border_link(self, local: NodeId, remote: NodeId, length: float) -> None:
        """Register a border fiber; the remote endpoint becomes a stub node."""
        if not self.graph.has_node(remote):
            self.graph.add_node(RouterView(remote, 0, 0), OxcView(remote, 0))
        self.border_links.append(self.graph.add_fiber_link(local, remote, length))

    def neighbors(self) -> list:
        return sorted({fiber.endpoints[1].domain for fiber in self.border_links})

    # -- messaging ---------------------------------------------------------

    def send(self, receiver: int, body) -> Message:
        self._seq += 1
        msg = Message(self.id, receiver, self._seq, body)
        self.outbox.append(msg)
        return msg

    # -- intent operations ---------------------------------------------------

    def add_intent(self, payload) -> IntentId:
        return self.dag.add_intent(payload)

    def compile(self, iid: IntentId) -> CompilationResult:
        return compile_connectivity(self, iid)

    def mirrors(self, iid: IntentId) -> list:
        """(node, RemoteIntent) of every delegated child of ``iid``."""
        nodes = self.dag.nodes
        return [
            (child, nodes[child].payload)
            for child in nodes[iid].children
            if isinstance(nodes[child].payload, RemoteIntent)
        ]

    def install(self, iid: IntentId) -> InstallOutcome:
        """Book the local leaves, then ask each neighbor to install its piece.

        Returns PENDING while remote verdicts are outstanding: deliver
        messages to quiescence, then read the aggregate state.  A verdict
        that is not installed rolls this level back when it arrives.
        """
        outcome = install_intent(self, iid)
        if outcome is InstallOutcome.PENDING:
            for child, mirror in self.mirrors(iid):
                if mirror.remote_id is None:
                    raise UnknownRemoteError(f"mirror {child} was never acknowledged")
                self.pending_installs.add(child)
                self.send(mirror.neighbor, InstallRequest(mirror.remote_id))
        return outcome

    def uninstall(self, iid: IntentId, skip: Optional[IntentId] = None) -> None:
        """Release the local leaves and ask every neighbor holding a piece,
        other than the mirror ``skip``, to release it; drops pending verdicts.

        A failed piece keeps its reservations until it is uninstalled.
        """
        uninstall_intent(self, iid)
        for child, mirror in self.mirrors(iid):
            if child == skip:
                continue
            self.pending_installs.discard(child)
            if self.dag.state(child) in HOLDING_STATES:
                self.send(mirror.neighbor, Uninstall(mirror.remote_id))

    def remove(self, iid: IntentId) -> None:
        """Remove an intent subtree and withdraw its delegated parts; a refusal has no effect."""
        nodes = self.dag.nodes
        mirrors = [(node, nodes[node].payload) for node in self.dag.subtree(iid)
                   if isinstance(nodes[node].payload, RemoteIntent)]
        self.dag.remove_intent(iid)
        for node, payload in sorted(mirrors):
            if payload.remote_id is not None:
                self.send(payload.neighbor, Remove(payload.remote_id))
                self.mirror_index.pop(payload.remote_id, None)
                self.pending_installs.discard(node)
        # Delegated intents are roots, so no other removed id is a key here.
        self.origins.pop(iid, None)
        self.last_notified.pop(iid, None)

    # -- state notification --------------------------------------------------

    def flush_notifications(self, touched: IntentId) -> None:
        """Notify the delegator of ``touched``'s root (delegated intents are
        roots) if the root's aggregate state changed since it last heard."""
        root = self.dag.lineage(touched)[-1]
        if root in self.origins:
            state = self.dag.aggregate_state(root)
            if self.last_notified.get(root) != state:
                self.last_notified[root] = state
                self.send(self.origins[root], StateNotify(root, state))


# -- cross-domain compilation -------------------------------------------------


def route_domains(controllers: dict) -> None:
    """Set every controller's ``next_hop``: for each domain it can reach, the
    neighbor with the fewest domain hops to it, ties to the lower id.

    Link state is not consulted.  A breadth-first search from each domain
    over the controllers' ``neighbors()`` carries every domain's first hop;
    each level is expanded in ascending first-hop order, so a domain that
    several shortest routes reach takes the lowest first hop among them.
    """
    adjacency = {did: ctrl.neighbors() for did, ctrl in controllers.items()}
    for did, ctrl in controllers.items():
        ctrl.next_hop = {}
        frontier = [(neighbor, neighbor) for neighbor in adjacency[did]]
        while frontier:
            reached = []
            for domain, hop in frontier:
                if domain != did and domain not in ctrl.next_hop:
                    ctrl.next_hop[domain] = hop
                    reached += [(n, hop) for n in adjacency.get(domain, ())]
            frontier = reached


def compile_crossdomain(domain: DomainController, iid: IntentId) -> CompilationResult:
    """Split an intent at a border link and delegate the far piece.

    The neighbor is the destination domain's ``next_hop`` (see
    ``route_domains``); among its operational border links the one closest
    to the source wins.  The local piece is compiled immediately; the
    intent's own state follows the delegated mirror, so it stays
    uncompiled until the neighbor confirms.
    """
    dag = domain.dag
    payload = dag.payload(iid)

    neighbor = domain.next_hop.get(payload.dst.domain)
    if neighbor is None:
        return blocked(BlockReason.NO_PATH)
    border = _pick_border(domain, neighbor, payload)
    if border is None:
        return blocked(BlockReason.NO_PATH)
    local, remote = border.endpoints

    # Local piece: a segment to the border node, or just the terminating
    # port when the source already sits on the border.
    if payload.src != local:
        segment = dag.add_child(
            iid,
            ConnectivityIntent(
                payload.src, local, payload.rate, payload.constraints
            ),
        )
        result = compile_connectivity(domain, segment)
        if result.outcome is CompileOutcome.BLOCKED:
            dag.remove_intent(segment)
            return result
    else:
        if not domain.graph.routers[payload.src].has_free_port(payload.rate):
            return blocked(BlockReason.NO_PORT)
        segment = dag.add_child(iid, RouterPortIntent(payload.src, payload.rate))
        dag.transition(segment, IntentState.COMPILED)

    if payload.dst != remote:
        remote_payload = ConnectivityIntent(
            remote, payload.dst, payload.rate, payload.constraints
        )
    else:
        remote_payload = RouterPortIntent(payload.dst, payload.rate)

    mirror = dag.add_child(iid, RemoteIntent(neighbor=neighbor))
    domain.send(neighbor, Delegate(remote_payload, parent=mirror))
    log.debug("domain %d delegated %s to domain %d", domain.id, iid, neighbor)
    return CompilationResult(CompileOutcome.COMPILED, (segment, mirror))


def _pick_border(domain, neighbor: int, payload) -> Optional[FiberLink]:
    excluded = payload.excluded_links()
    best = None
    best_key = None
    for fiber in domain.border_links:
        local, remote = fiber.endpoints
        if remote.domain != neighbor:
            continue
        if fiber.key in excluded or not fiber.operational:
            continue
        if payload.src == local:
            distance = 0.0
        else:
            paths = domain.graph.k_shortest_paths(
                payload.src, local, 1, exclude_links=excluded
            )
            if not paths:
                continue
            distance = domain.graph.path_length(paths[0])
        key = (distance, local, remote)
        if best is None or key < best_key:
            best, best_key = fiber, key
    return best


# -- message handling -----------------------------------------------------------


def handle_message(domain: DomainController, msg: Message) -> None:
    """Apply one inbound message to the receiving controller."""
    if msg.receiver != domain.id:
        raise ValueError(f"message for domain {msg.receiver} given to {domain.id}")
    handler = _HANDLERS.get(type(msg.body))
    if handler is None:
        raise ValueError(f"unknown message body {msg.body!r}")
    handler(domain, msg)


def _handle_delegate(domain, msg):
    body = msg.body
    rid = domain.dag.add_intent(body.payload)
    domain.origins[rid] = msg.sender
    domain.send(msg.sender, Ack(remote_id=rid, parent=body.parent))

    # Eager compilation on receipt.
    if isinstance(body.payload, ConnectivityIntent):
        compile_connectivity(domain, rid)
    elif isinstance(body.payload, RouterPortIntent):
        if domain.graph.routers[body.payload.node].has_free_port(body.payload.rate):
            domain.dag.transition(rid, IntentState.COMPILED)
    _reply_state(domain, msg.sender, rid)


def _handle_ack(domain, msg):
    body = msg.body
    if body.parent not in domain.dag.nodes:
        raise UnknownRemoteError(f"ack for unknown mirror {body.parent}")
    mirror = domain.dag.payload(body.parent)
    mirror.remote_id = body.remote_id
    domain.mirror_index[body.remote_id] = body.parent


def _handle_state_notify(domain, msg):
    body = msg.body
    node = domain.mirror_index.get(body.remote_id)
    if node is None or node not in domain.dag.nodes:
        raise UnknownRemoteError(f"notify for unknown remote intent {body.remote_id}")
    if domain.dag.state(node) is not body.state:
        domain.dag.transition(node, body.state)

    if node in domain.pending_installs:
        domain.pending_installs.discard(node)
        if body.state is not IntentState.INSTALLED:
            _compensate_failed_install(domain, node)

    domain.flush_notifications(node)


def _compensate_failed_install(domain, mirror_node):
    """A remote install failed: roll back this delegation level locally."""
    parent = domain.dag.parent(mirror_node)
    domain.uninstall(parent, skip=mirror_node)
    # Send the definitive verdict upstream even though the aggregate is
    # back to its pre-install value.
    if parent in domain.origins:
        _reply_state(domain, domain.origins[parent], parent)


def _handle_install_request(domain, msg):
    body = msg.body
    rid = body.remote_id
    if rid not in domain.dag.nodes:
        raise UnknownRemoteError(f"install request for unknown intent {rid}")
    agg = domain.dag.aggregate_state(rid)
    if agg is not IntentState.COMPILED:
        _reply_state(domain, msg.sender, rid)
        return
    # On PENDING the verdict is sent once our own mirrors resolve.
    if domain.install(rid) is not InstallOutcome.PENDING:
        _reply_state(domain, msg.sender, rid)


def _handle_uninstall(domain, msg):
    rid = msg.body.remote_id
    if rid not in domain.dag.nodes:
        raise UnknownRemoteError(f"uninstall for unknown intent {rid}")
    agg = domain.dag.aggregate_state(rid)
    if agg in HOLDING_STATES:
        domain.uninstall(rid)
    _reply_state(domain, msg.sender, rid)


def _handle_remove(domain, msg):
    rid = msg.body.remote_id
    if rid not in domain.dag.nodes:
        raise UnknownRemoteError(f"remove for unknown intent {rid}")
    domain.remove(rid)


def _reply_state(domain, receiver, rid):
    state = domain.dag.aggregate_state(rid)
    domain.last_notified[rid] = state
    domain.send(receiver, StateNotify(rid, state))


# Body type -> handler; bodies are deeply frozen, as export.event_log_text needs.
_HANDLERS = {
    Delegate: _handle_delegate,
    Ack: _handle_ack,
    StateNotify: _handle_state_notify,
    InstallRequest: _handle_install_request,
    Uninstall: _handle_uninstall,
    Remove: _handle_remove,
}


# -- transport ------------------------------------------------------------------


def deliver_messages(domains: dict) -> list:
    """Drain every outbox to quiescence; returns delivered messages.

    Each round empties the outboxes in domain-id order, which is (sender id,
    seq) order because each outbox holds its sender's messages in seq order,
    and hands the messages to their receivers; replies join the next round.
    Within one simulation timestamp this always terminates: every protocol
    exchange is a finite request/metric/verdict chain.
    """
    senders = [domains[did] for did in sorted(domains)]
    delivered = []
    while True:
        pending = []
        for sender in senders:
            if sender.outbox:
                pending += sender.outbox
                sender.outbox.clear()
        if not pending:
            return delivered
        for msg in pending:
            handle_message(domains[msg.receiver], msg)
            delivered.append(msg)
