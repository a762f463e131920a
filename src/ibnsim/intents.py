"""Intent kinds, the four-state lifecycle machine, and the intent DAG.

High-level intents (connectivity) are linked to the low-level intents that
allocate resources for them (router ports, lightpaths, remote delegations)
through a directed acyclic graph.  A node's effective state is derived from
its descendants by ``aggregate_state``.
"""

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .errors import (
    CycleError,
    IllegalTransitionError,
    InvalidPayloadError,
    StillInstalledError,
    UnknownIntentError,
)
from .network import NodeId, TransmissionMode


class IntentState(enum.Enum):
    UNCOMPILED = "uncompiled"
    COMPILED = "compiled"
    INSTALLED = "installed"
    FAILED = "failed"

    @property
    def rank(self) -> int:
        """Progress order used by aggregation; FAILED is handled separately."""
        return _STATE_RANK[self]


_STATE_RANK = {
    IntentState.UNCOMPILED: 0,
    IntentState.COMPILED: 1,
    IntentState.INSTALLED: 2,
    IntentState.FAILED: 3,
}

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
        from .network import link_key

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


@dataclass
class IntentNode:
    payload: object
    state: IntentState = IntentState.UNCOMPILED


@dataclass
class IntentDAG:
    """Acyclic store of intent nodes owned by one domain.

    Identifiers are (domain, counter) pairs and are never reused within one
    DAG.  Parent -> child edges connect logical intents to the low-level
    intents implementing them.
    """

    domain: int = 0
    nodes: dict = field(default_factory=dict)  # IntentId -> IntentNode
    _children: dict = field(default_factory=dict)  # IntentId -> list[IntentId]
    _parents: dict = field(default_factory=dict)  # IntentId -> list[IntentId]
    _counter: int = 0

    # -- structure ---------------------------------------------------------

    def add_intent(self, payload) -> IntentId:
        payload.validate()
        self._counter += 1
        iid = IntentId(self.domain, self._counter)
        self.nodes[iid] = IntentNode(payload)
        self._children[iid] = []
        self._parents[iid] = []
        return iid

    def add_child(self, parent: IntentId, payload) -> IntentId:
        if parent not in self.nodes:
            raise UnknownIntentError(f"unknown parent intent {parent}")
        child = self.add_intent(payload)
        self._children[parent].append(child)
        self._parents[child].append(parent)
        return child

    def link_nodes(self, parent: IntentId, child: IntentId) -> None:
        """Add an edge between existing nodes, rejecting cycles."""
        for iid in (parent, child):
            if iid not in self.nodes:
                raise UnknownIntentError(f"unknown intent {iid}")
        if parent == child or self._reachable(child, parent):
            raise CycleError(f"edge {parent}->{child} would create a cycle")
        if child not in self._children[parent]:
            self._children[parent].append(child)
            self._parents[child].append(parent)

    def _reachable(self, start: IntentId, target: IntentId) -> bool:
        stack = [start]
        visited = set()
        while stack:
            node = stack.pop()
            if node == target:
                return True
            if node in visited:
                continue
            visited.add(node)
            stack.extend(self._children[node])
        return False

    def children(self, iid: IntentId) -> list:
        if iid not in self.nodes:
            raise UnknownIntentError(f"unknown intent {iid}")
        return list(self._children[iid])

    def parents(self, iid: IntentId) -> list:
        if iid not in self.nodes:
            raise UnknownIntentError(f"unknown intent {iid}")
        return list(self._parents[iid])

    def roots(self) -> list:
        return [iid for iid in self.nodes if not self._parents[iid]]

    def descendants(self, iid: IntentId) -> set:
        """All intents reachable below ``iid``, excluding ``iid`` itself."""
        out = set()
        stack = list(self._children.get(iid, ()))
        while stack:
            node = stack.pop()
            if node in out:
                continue
            out.add(node)
            stack.extend(self._children[node])
        return out

    def ancestors(self, iid: IntentId) -> set:
        out = set()
        stack = list(self._parents.get(iid, ()))
        while stack:
            node = stack.pop()
            if node in out:
                continue
            out.add(node)
            stack.extend(self._parents[node])
        return out

    def leaves_under(self, iid: IntentId) -> list:
        """Leaf intents of the subtree rooted at ``iid`` (may be iid itself)."""
        if iid not in self.nodes:
            raise UnknownIntentError(f"unknown intent {iid}")
        out = []
        seen = set()
        stack = [iid]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            kids = self._children[node]
            if kids:
                stack.extend(reversed(kids))
            else:
                out.append(node)
        return out

    # -- lifecycle ---------------------------------------------------------

    def state(self, iid: IntentId) -> IntentState:
        if iid not in self.nodes:
            raise UnknownIntentError(f"unknown intent {iid}")
        return self.nodes[iid].state

    def payload(self, iid: IntentId):
        if iid not in self.nodes:
            raise UnknownIntentError(f"unknown intent {iid}")
        return self.nodes[iid].payload

    def transition(self, iid: IntentId, to: IntentState) -> IntentState:
        """Move ``iid`` along a legal lifecycle edge and return the new state."""
        node = self.nodes.get(iid)
        if node is None:
            raise UnknownIntentError(f"unknown intent {iid}")
        if (node.state, to) not in ALLOWED_TRANSITIONS:
            raise IllegalTransitionError(
                f"illegal transition {node.state.value} -> {to.value} for {iid}"
            )
        node.state = to
        return to

    def aggregate_state(self, iid: IntentId) -> IntentState:
        """Effective state of ``iid`` derived from its subtree.

        Leaves report their own state.  A node with children is FAILED as
        soon as any descendant leaf is failed, otherwise the minimum of its
        children's aggregate states under uncompiled < compiled < installed.
        """
        if iid not in self.nodes:
            raise UnknownIntentError(f"unknown intent {iid}")
        memo: dict = {}
        return self._aggregate(iid, memo)

    def _aggregate(self, iid, memo):
        cached = memo.get(iid)
        if cached is not None:
            return cached
        kids = self._children[iid]
        if not kids:
            result = self.nodes[iid].state
        else:
            states = [self._aggregate(kid, memo) for kid in kids]
            if IntentState.FAILED in states:
                result = IntentState.FAILED
            else:
                result = min(states, key=lambda s: s.rank)
        memo[iid] = result
        return result

    # -- removal -----------------------------------------------------------

    def removal_set(self, iid: IntentId) -> set:
        """``iid`` plus every descendant reachable only through it."""
        if iid not in self.nodes:
            raise UnknownIntentError(f"unknown intent {iid}")
        removal = {iid}
        # Orphans: peel descendants whose every parent is already doomed.
        changed = True
        while changed:
            changed = False
            for node in self.descendants(iid):
                if node in removal:
                    continue
                if all(p in removal for p in self._parents[node]):
                    removal.add(node)
                    changed = True
        return removal

    def remove_intent(self, iid: IntentId) -> set:
        """Remove ``iid`` and every descendant reachable only through it.

        Refuses while the subtree is installed or failed; returns the set of
        removed identifiers.
        """
        agg = self.aggregate_state(iid)
        if agg in (IntentState.INSTALLED, IntentState.FAILED):
            raise StillInstalledError(
                f"intent {iid} is {agg.value}; uninstall before removing"
            )
        removal = self.removal_set(iid)
        for node in removal:
            for parent in self._parents[node]:
                if parent not in removal:
                    self._children[parent].remove(node)
            for child in self._children[node]:
                if child not in removal:
                    self._parents[child].remove(node)
        for node in removal:
            del self.nodes[node]
            del self._children[node]
            del self._parents[node]
        return removal
