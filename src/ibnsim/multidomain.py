"""Decentralized coordination between autonomous domain controllers.

Each controller owns one domain's graph (its booking record) and intent DAG,
and exchanges ordered messages with its neighbors through per-pair mailboxes.
Cross-domain connectivity is split at a border link: the local piece is
compiled in place while the rest is delegated to the next-hop neighbor, which
may recursively delegate further.  A RemoteIntent leaf mirrors the delegated
intent's aggregate state via STATE_NOTIFY messages.

Message handling is synchronous and deterministic: ``deliver_messages`` drains
all mailboxes in ascending (sender id, sequence) order until quiescence.
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
from .errors import UnknownRemoteError, WrongStateError
from .intents import (
    ConnectivityIntent,
    IntentDAG,
    IntentId,
    IntentState,
    RemoteIntent,
    RouterPortIntent,
)
from .network import DEFAULT_MODE_TABLE, NetworkGraph, NodeId, OxcView, RouterView, link_key

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


@dataclass(frozen=True)
class BorderLink:
    local: NodeId
    remote: NodeId
    length: float


# -- controller ---------------------------------------------------------------


@dataclass
class DomainController:
    """Centralized controller of one autonomous domain.

    Holds only its own nodes plus border-link stubs; everything beyond the
    border is reached through delegation.  Sequential actor: one message or
    event is processed at a time.
    """

    id: int
    graph: NetworkGraph = field(default_factory=NetworkGraph)
    dag: IntentDAG = None
    config: DomainConfig = field(default_factory=DomainConfig)
    registry: dict = field(default_factory=dict)  # NodeId -> owning domain id
    border_links: list = field(default_factory=list)
    neighbor_hops: dict = field(default_factory=dict)  # neighbor -> {domain: hops}
    outboxes: dict = field(default_factory=dict)  # neighbor -> deque[Message]

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
        self.registry[node] = self.id
        return node

    def add_border_link(self, local: NodeId, remote: NodeId, length: float) -> None:
        """Register a border fiber; the remote endpoint becomes a stub node."""
        if not self.graph.has_node(remote):
            self.graph.add_node(RouterView(remote, 0, 0), OxcView(remote, 0))
        self.graph.add_fiber_link(local, remote, length)
        self.border_links.append(BorderLink(local, remote, length))

    def neighbors(self) -> list:
        return sorted({bl.remote.domain for bl in self.border_links})

    # -- messaging ---------------------------------------------------------

    def send(self, receiver: int, body) -> Message:
        self._seq += 1
        msg = Message(self.id, receiver, self._seq, body)
        self.outboxes.setdefault(receiver, deque()).append(msg)
        return msg

    # -- intent operations ---------------------------------------------------

    def add_intent(self, payload) -> IntentId:
        return self.dag.add_intent(payload)

    def compile(self, iid: IntentId) -> CompilationResult:
        return compile_connectivity(self, iid)

    def compile_crossdomain(self, iid: IntentId) -> CompilationResult:
        return compile_crossdomain(self, iid)

    def has_remote_parts(self, iid: IntentId) -> bool:
        return any(
            isinstance(self.dag.payload(c), RemoteIntent)
            for c in self.dag.children(iid)
        )

    def install(self, iid: IntentId) -> InstallOutcome:
        if self.has_remote_parts(iid):
            return install_crossdomain(self, iid)
        return install_intent(self, iid)

    def finalize_install(self, iid: IntentId) -> InstallOutcome:
        return finalize_install(self, iid)

    def uninstall(self, iid: IntentId) -> None:
        if self.has_remote_parts(iid):
            uninstall_crossdomain(self, iid)
        else:
            uninstall_intent(self, iid)

    def remove(self, iid: IntentId) -> None:
        """Remove an intent subtree, withdrawing any delegated parts."""
        doomed = self.dag.removal_set(iid)
        for node in sorted(doomed):
            payload = self.dag.payload(node)
            if isinstance(payload, RemoteIntent) and payload.remote_id is not None:
                self.send(payload.neighbor, Remove(payload.remote_id))
                self.mirror_index.pop(payload.remote_id, None)
                self.pending_installs.discard(node)
        self.dag.remove_intent(iid)
        for node in doomed:
            self.origins.pop(node, None)
            self.last_notified.pop(node, None)

    # -- state notification --------------------------------------------------

    def flush_notifications(self, touched: Optional[IntentId] = None) -> None:
        """Notify delegators whose delegated intents changed aggregate state."""
        if touched is None:
            candidates = set(self.origins)
        else:
            if touched not in self.dag.nodes:
                return
            candidates = ({touched} | self.dag.ancestors(touched)) & set(self.origins)
        for iid in sorted(candidates):
            state = self.dag.aggregate_state(iid)
            if self.last_notified.get(iid) != state:
                self.last_notified[iid] = state
                self.send(self.origins[iid], StateNotify(iid, state))


# -- cross-domain compilation -------------------------------------------------


def compile_crossdomain(domain: DomainController, iid: IntentId) -> CompilationResult:
    """Split an intent at a border link and delegate the far piece.

    The next-hop neighbor is the one with the fewest inter-domain hops to the
    destination's domain (ties to the lower domain id); among its operational
    border links the one closest to the source wins.  The local piece is
    compiled immediately; the intent's own state follows the delegated
    mirror, so it stays uncompiled until the neighbor confirms.
    """
    dag = domain.dag
    payload = dag.payload(iid)
    dst_domain = domain.registry[payload.dst]

    neighbor = _next_hop(domain, dst_domain)
    if neighbor is None:
        return blocked(BlockReason.NO_PATH)
    border = _pick_border(domain, neighbor, payload)
    if border is None:
        return blocked(BlockReason.NO_PATH)

    # Local piece: a segment to the border node, or just the terminating
    # port when the source already sits on the border.
    if payload.src != border.local:
        segment = dag.add_child(
            iid,
            ConnectivityIntent(
                payload.src, border.local, payload.rate, payload.constraints
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

    if payload.dst != border.remote:
        remote_payload = ConnectivityIntent(
            border.remote, payload.dst, payload.rate, payload.constraints
        )
    else:
        remote_payload = RouterPortIntent(payload.dst, payload.rate)

    mirror = dag.add_child(iid, RemoteIntent(neighbor=neighbor))
    domain.send(neighbor, Delegate(remote_payload, parent=mirror))
    log.debug("domain %d delegated %s to domain %d", domain.id, iid, neighbor)
    return CompilationResult(CompileOutcome.COMPILED, (segment, mirror))


def _next_hop(domain: DomainController, dst_domain: int) -> Optional[int]:
    best = None
    best_key = None
    for neighbor in domain.neighbors():
        hops = domain.neighbor_hops.get(neighbor, {}).get(dst_domain)
        if neighbor == dst_domain:
            hops = 0
        if hops is None:
            continue
        key = (hops, neighbor)
        if best is None or key < best_key:
            best, best_key = neighbor, key
    return best


def _pick_border(domain, neighbor: int, payload) -> Optional[BorderLink]:
    excluded = payload.excluded_links()
    best = None
    best_key = None
    for bl in domain.border_links:
        if bl.remote.domain != neighbor:
            continue
        if link_key(bl.local, bl.remote) in excluded:
            continue
        fiber = domain.graph.link_between(bl.local, bl.remote)
        if fiber is None or not fiber.operational:
            continue
        if payload.src == bl.local:
            distance = 0.0
        else:
            paths = domain.graph.k_shortest_paths(
                payload.src, bl.local, 1, exclude_links=excluded
            )
            if not paths:
                continue
            distance = domain.graph.path_length(paths[0])
        key = (distance, bl.local, bl.remote)
        if best is None or key < best_key:
            best, best_key = bl, key
    return best


# -- cross-domain installation --------------------------------------------------


def install_crossdomain(domain: DomainController, iid: IntentId) -> InstallOutcome:
    """Install local pieces and request installation of delegated ones.

    Local reservations are transactional; on any local conflict nothing is
    sent and already-installed local siblings are rolled back.  Returns
    PENDING while remote verdicts are outstanding: deliver messages to
    quiescence, then call ``finalize_install``.
    """
    dag = domain.dag
    dag.payload(iid)
    agg = dag.aggregate_state(iid)
    if agg is not IntentState.COMPILED:
        raise WrongStateError(f"intent {iid} is {agg.value}, expected compiled")

    local_children = []
    remote_children = []
    for child in dag.children(iid):
        if isinstance(dag.payload(child), RemoteIntent):
            remote_children.append(child)
        else:
            local_children.append(child)

    for child in local_children:
        if install_intent(domain, child) is InstallOutcome.CONFLICT:
            _release_children(domain, iid)
            return InstallOutcome.CONFLICT

    for child in remote_children:
        mirror = dag.payload(child)
        if mirror.remote_id is None:
            raise UnknownRemoteError(f"mirror {child} was never acknowledged")
        domain.pending_installs.add(child)
        domain.send(mirror.neighbor, InstallRequest(mirror.remote_id))
    return InstallOutcome.PENDING


def finalize_install(domain: DomainController, iid: IntentId) -> InstallOutcome:
    """Resolve a cross-domain install after message quiescence.

    If some mirror did not reach installed, compensate: release local
    reservations and send UNINSTALL for any remote piece that holds some.
    """
    if domain.dag.aggregate_state(iid) is IntentState.INSTALLED:
        return InstallOutcome.INSTALLED
    _release_children(domain, iid)
    return InstallOutcome.CONFLICT


def uninstall_crossdomain(domain: DomainController, iid: IntentId) -> None:
    """Release local reservations and ask neighbors to release delegated ones."""
    agg = domain.dag.aggregate_state(iid)
    if agg not in (IntentState.INSTALLED, IntentState.FAILED):
        raise WrongStateError(f"intent {iid} is {agg.value}, expected installed/failed")
    _release_children(domain, iid)


def _release_children(domain: DomainController, parent: IntentId,
                      skip: Optional[IntentId] = None) -> None:
    """Release what this delegation level holds for ``parent``.

    For every child but ``skip``: drop any pending install verdict, ask the
    neighbor to uninstall a delegated piece that is installed or failed, and
    uninstall a local piece that is installed or failed.  A failed piece
    keeps its reservations until it is uninstalled.
    """
    dag = domain.dag
    holding = (IntentState.INSTALLED, IntentState.FAILED)
    for child in dag.children(parent):
        if child == skip:
            continue
        payload = dag.payload(child)
        if isinstance(payload, RemoteIntent):
            domain.pending_installs.discard(child)
            if dag.state(child) in holding:
                domain.send(payload.neighbor, Uninstall(payload.remote_id))
        elif dag.aggregate_state(child) in holding:
            uninstall_intent(domain, child)


# -- message handling -----------------------------------------------------------


def handle_message(domain: DomainController, msg: Message) -> None:
    """Apply one inbound message to the receiving controller."""
    if msg.receiver != domain.id:
        raise ValueError(f"message for domain {msg.receiver} given to {domain.id}")
    body = msg.body
    if isinstance(body, Delegate):
        _handle_delegate(domain, msg)
    elif isinstance(body, Ack):
        _handle_ack(domain, msg)
    elif isinstance(body, StateNotify):
        _handle_state_notify(domain, msg)
    elif isinstance(body, InstallRequest):
        _handle_install_request(domain, msg)
    elif isinstance(body, Uninstall):
        _handle_uninstall(domain, msg)
    elif isinstance(body, Remove):
        _handle_remove(domain, msg)
    else:
        raise ValueError(f"unknown message body {body!r}")


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

    # Sync the delegating parent's stored state once its aggregate compiles.
    for parent in domain.dag.parents(node):
        if (
            domain.dag.state(parent) is IntentState.UNCOMPILED
            and domain.dag.aggregate_state(parent) is IntentState.COMPILED
        ):
            domain.dag.transition(parent, IntentState.COMPILED)

    if node in domain.pending_installs:
        domain.pending_installs.discard(node)
        if body.state is not IntentState.INSTALLED:
            _compensate_failed_install(domain, node)

    domain.flush_notifications(node)


def _compensate_failed_install(domain, mirror_node):
    """A remote install failed: roll back this delegation level locally."""
    dag = domain.dag
    for parent in dag.parents(mirror_node):
        _release_children(domain, parent, skip=mirror_node)
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
    if domain.has_remote_parts(rid):
        outcome = install_crossdomain(domain, rid)
        if outcome is InstallOutcome.CONFLICT:
            _reply_state(domain, msg.sender, rid)
        # On PENDING the verdict is sent once our own mirrors resolve.
    else:
        install_intent(domain, rid)
        _reply_state(domain, msg.sender, rid)


def _handle_uninstall(domain, msg):
    rid = msg.body.remote_id
    if rid not in domain.dag.nodes:
        raise UnknownRemoteError(f"uninstall for unknown intent {rid}")
    agg = domain.dag.aggregate_state(rid)
    if agg in (IntentState.INSTALLED, IntentState.FAILED):
        if domain.has_remote_parts(rid):
            uninstall_crossdomain(domain, rid)
        else:
            uninstall_intent(domain, rid)
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


# -- transport ------------------------------------------------------------------


def deliver_messages(domains: dict) -> list:
    """Drain every outbound mailbox to quiescence; returns delivered messages.

    Each round collects all pending messages, sorts them by (sender id, seq),
    and hands them to their receivers; replies join the next round.  Within
    one simulation timestamp this always terminates: every protocol exchange
    is a finite request/metric/verdict chain.
    """
    delivered = []
    while True:
        pending = []
        for did in sorted(domains):
            sender = domains[did]
            for receiver in sorted(sender.outboxes):
                queue = sender.outboxes[receiver]
                while queue:
                    pending.append(queue.popleft())
        if not pending:
            return delivered
        pending.sort(key=lambda m: (m.sender, m.seq))
        for msg in pending:
            handle_message(domains[msg.receiver], msg)
            delivered.append(msg)
