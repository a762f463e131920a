"""Intent kinds, the four-state lifecycle machine, and the intent DAG.

High-level intents (connectivity) are linked to the low-level intents that
allocate resources for them (router ports, lightpaths, remote delegations)
through a tree: every intent has at most one parent.  Only a leaf's stored
state is read; a node's effective state is derived from the leaves below
it by ``aggregate_state``.
"""

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .errors import (
    IllegalTransitionError,
    InvalidPayloadError,
    StillInstalledError,
    UnknownIntentError,
)
from .network import NodeId, TransmissionMode, link_key


class IntentState(enum.Enum):
    UNCOMPILED = "uncompiled"
    COMPILED = "compiled"
    INSTALLED = "installed"
    FAILED = "failed"


# Aggregation: the first of these that some child reports wins, so failure
# dominates, then the least progress under uncompiled < compiled < installed.
_AGGREGATE_ORDER = (
    IntentState.FAILED,
    IntentState.UNCOMPILED,
    IntentState.COMPILED,
    IntentState.INSTALLED,
)

# Legal lifecycle edges.  Uninstall (installed -> compiled) and recovery
# (failed -> compiled) are permitted so monitoring can recompile intents.
ALLOWED_TRANSITIONS = frozenset(
    {
        (IntentState.UNCOMPILED, IntentState.COMPILED),
        (IntentState.COMPILED, IntentState.UNCOMPILED),
        (IntentState.COMPILED, IntentState.INSTALLED),
        (IntentState.INSTALLED, IntentState.COMPILED),
        (IntentState.INSTALLED, IntentState.FAILED),
        (IntentState.FAILED, IntentState.COMPILED),
    }
)

# Both tables on each member, read without hashing an enum (a Python call).
for _state in IntentState:
    _state.rank = _AGGREGATE_ORDER.index(_state)
    _state.successors = tuple(to for to in IntentState if (_state, to) in ALLOWED_TRANSITIONS)

# States in which an intent holds its reservations until uninstalled.
HOLDING_STATES = (IntentState.INSTALLED, IntentState.FAILED)


class IntentId(NamedTuple):
    """Globally traceable intent identifier: (owning domain, counter)."""

    domain: int
    num: int

    def __str__(self):
        return f"{self.domain}#{self.num}"


@dataclass(frozen=True)
class ExcludeLink:
    """Connectivity constraint: never route across the fiber a-b."""

    a: NodeId
    b: NodeId


@dataclass(frozen=True)
class ConnectivityIntent:
    """Logical objective: connect src to dst at the requested rate."""

    src: NodeId
    dst: NodeId
    rate: int  # Gbps
    constraints: tuple = ()

    def validate(self):
        if self.src == self.dst:
            raise InvalidPayloadError("connectivity src and dst must differ")
        if self.rate <= 0:
            raise InvalidPayloadError(f"connectivity rate must be > 0, got {self.rate}")

    def excluded_links(self) -> set:
        if not self.constraints:
            return set()
        return {
            link_key(c.a, c.b) for c in self.constraints if isinstance(c, ExcludeLink)
        }


@dataclass(frozen=True)
class LightpathIntent:
    """Resource allocation: a contiguous slot block on every link of a path."""

    path: tuple  # tuple[NodeId, ...]
    mode: TransmissionMode
    slot_range: tuple[int, int]  # inclusive (start, end)

    def validate(self):
        if len(self.path) < 2:
            raise InvalidPayloadError("lightpath path needs at least two nodes")
        start, end = self.slot_range
        if end - start + 1 != self.mode.slots_needed:
            raise InvalidPayloadError(
                f"slot range {self.slot_range} width != mode slots "
                f"{self.mode.slots_needed}"
            )
        if start < 1:
            raise InvalidPayloadError("slot indices are 1-based")


@dataclass(frozen=True)
class RouterPortIntent:
    """Resource allocation: one router port at ``node``."""

    node: NodeId
    rate: int  # Gbps

    def validate(self):
        if self.rate <= 0:
            raise InvalidPayloadError(f"port rate must be > 0, got {self.rate}")


@dataclass
class RemoteIntent:
    """Mirror of an intent delegated to a neighboring domain.

    ``remote_id`` is assigned by the neighbor and learned from its ACK; the
    mirror node's own DAG state tracks the neighbor-side aggregate via
    STATE_NOTIFY.
    """

    neighbor: int  # domain identifier
    remote_id: Optional[IntentId] = None

    def validate(self):
        pass


def intent_kind(payload) -> str:
    return _KIND_NAMES[type(payload)]


_KIND_NAMES = {
    ConnectivityIntent: "connectivity",
    LightpathIntent: "lightpath",
    RouterPortIntent: "router-port",
    RemoteIntent: "remote",
}


@dataclass(slots=True)
class IntentNode:
    """One intent.  ``state`` is read only while ``children`` is empty; a
    node with children has its state derived by ``aggregate_state``."""

    payload: object
    state: IntentState = IntentState.UNCOMPILED
    parent: Optional[IntentId] = None
    children: list = field(default_factory=list)  # list[IntentId]


class _NodeTable(dict):
    """IntentId -> IntentNode whose lookup of an unknown id raises UnknownIntentError."""

    def __missing__(self, iid):
        raise UnknownIntentError(f"unknown intent {iid}")


@dataclass
class IntentDAG:
    """Tree store of intent nodes owned by one domain.

    Identifiers are (domain, counter) pairs and are never reused within one
    DAG.  Parent -> child edges connect logical intents to the low-level
    intents implementing them; every intent has at most one parent.
    ``failed`` indexes the ids whose stored state is FAILED: ``transition``
    is its only writer and ``drop`` drops removed ids, so every
    root whose aggregate is FAILED has an indexed leaf below it.
    """

    domain: int = 0
    nodes: dict = field(default_factory=_NodeTable)  # IntentId -> IntentNode
    failed: set = field(default_factory=set)  # IntentId
    _counter: int = 0

    # -- structure ---------------------------------------------------------

    def add_intent(self, payload) -> IntentId:
        payload.validate()
        self._counter += 1
        iid = IntentId(self.domain, self._counter)
        self.nodes[iid] = IntentNode(payload)
        return iid

    def add_child(self, parent: IntentId, payload) -> IntentId:
        siblings = self.nodes[parent].children
        child = self.add_intent(payload)
        self.nodes[child].parent = parent
        siblings.append(child)
        return child

    def children(self, iid: IntentId) -> list:
        return list(self.nodes[iid].children)

    def parent(self, iid: IntentId) -> Optional[IntentId]:
        return self.nodes[iid].parent

    def roots(self) -> list:
        return [iid for iid, node in self.nodes.items() if node.parent is None]

    def root(self, iid: IntentId) -> IntentId:
        """The root of ``iid``'s tree (``iid`` itself if it has no parent)."""
        parent = self.nodes[iid].parent
        while parent is not None:
            iid, parent = parent, self.nodes[parent].parent
        return iid

    def walk(self, iid: IntentId) -> list:
        """(id, node) of ``iid`` and of every intent below it, parents before
        children, siblings left to right; the one traversal of a subtree."""
        nodes = self.nodes
        out = [(iid, nodes[iid])]
        for _, node in out:
            for kid in node.children:
                out.append((kid, nodes[kid]))
        return out

    # -- lifecycle ---------------------------------------------------------

    def state(self, iid: IntentId) -> IntentState:
        return self.nodes[iid].state

    def payload(self, iid: IntentId):
        return self.nodes[iid].payload

    def transition(self, iid: IntentId, to: IntentState) -> IntentState:
        """Move ``iid`` along a legal lifecycle edge and return the new state."""
        node = self.nodes[iid]
        if to not in node.state.successors:
            raise IllegalTransitionError(
                f"illegal transition {node.state.value} -> {to.value} for {iid}"
            )
        node.state = to
        if to is IntentState.FAILED:
            self.failed.add(iid)
        else:
            self.failed.discard(iid)
        return to

    def aggregate_state(self, iid: IntentId) -> IntentState:
        """Effective state of ``iid`` derived from its subtree.

        Leaves report their own state.  A node with children is FAILED as
        soon as any descendant leaf is failed, otherwise the minimum of its
        children's aggregate states under uncompiled < compiled < installed.
        """
        node = self.nodes[iid]
        return self._aggregate(node) if node.children else node.state

    def _aggregate(self, node: IntentNode) -> IntentState:
        """Aggregate of a node that has children."""
        rank = len(_AGGREGATE_ORDER) - 1
        for kid in node.children:
            child = self.nodes[kid]
            state = self._aggregate(child) if child.children else child.state
            if state.rank < rank:
                rank = state.rank
                if not rank:  # FAILED: no child can change the result
                    break
        return _AGGREGATE_ORDER[rank]

    # -- removal -----------------------------------------------------------

    def remove_intent(self, iid: IntentId) -> set:
        """Remove ``iid`` and its whole subtree.

        Refuses while the subtree is installed or failed; returns the set of
        removed identifiers.
        """
        walk = self.walk(iid)
        self.drop(walk)
        return {node for node, _ in walk}

    def drop(self, walk: list) -> None:
        """Remove the subtree that ``walk`` returned.  Refuses, with no
        effect, while the subtree is installed or failed."""
        iid, top = walk[0]
        agg = walk_state(walk)
        if agg in HOLDING_STATES:
            raise StillInstalledError(
                f"intent {iid} is {agg.value}; uninstall before removing"
            )
        nodes = self.nodes
        if top.parent is not None:
            nodes[top.parent].children.remove(iid)
        for node, _ in walk:
            del nodes[node]
        if self.failed:
            self.failed.difference_update(node for node, _ in walk)


def walk_state(walk: list) -> IntentState:
    """Aggregate state of the subtree ``walk`` of ``IntentDAG.walk``: the
    lowest-ranked state among its leaves, as ``aggregate_state`` derives it."""
    rank = len(_AGGREGATE_ORDER) - 1
    for _, node in walk:
        if not node.children and node.state.rank < rank:
            rank = node.state.rank
    return _AGGREGATE_ORDER[rank]
