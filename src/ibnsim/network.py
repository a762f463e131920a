"""Two-layer IP-optical network model for a single domain.

The electrical layer is a set of router views joined by the virtual links
that installed lightpaths create; the optical layer is a set of OXC views
joined by fiber links that carry a fixed grid of spectrum slots.  Slot indices are 1-based throughout the public API:
a fiber with grid size G exposes slots 1..G, and a slot interval is the
inclusive pair (start, end).
"""

import heapq
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .errors import (
    BookingConflictError,
    BrokenPathError,
    DuplicateLinkError,
    DuplicateNodeError,
    LinkStateError,
    UnknownLinkError,
    UnknownNodeError,
)

DEFAULT_SLOT_COUNT = 80


class NodeId(NamedTuple):
    """Globally unique node address: (domain identifier, node index)."""

    domain: int
    local: int

    def __str__(self):
        return f"{self.domain}.{self.local}"


class TransmissionMode(NamedTuple):
    """Operating point of a coherent pluggable transceiver."""

    rate: int  # Gbps
    reach: float  # km
    slots_needed: int  # contiguous spectrum slots


# Overridable defaults for 400ZR-class pluggables; scenarios may replace them.
DEFAULT_MODE_TABLE = (
    TransmissionMode(400, 600.0, 8),
    TransmissionMode(300, 1800.0, 8),
    TransmissionMode(200, 3000.0, 8),
    TransmissionMode(100, 5000.0, 4),
)

LinkKey = tuple[NodeId, NodeId]


def link_key(a: NodeId, b: NodeId) -> LinkKey:
    """Canonical unordered key for the fiber between a and b."""
    return (a, b) if a <= b else (b, a)


@dataclass
class RouterView:
    """Electrical-layer state of one node's IP router."""

    node: NodeId
    port_count: int
    port_rate: int  # Gbps per port
    port_holders: dict = field(default_factory=dict)  # leaf intent id -> rate

    @property
    def ports_used(self) -> int:
        return len(self.port_holders)

    def has_free_port(self, rate: int) -> bool:
        return self.ports_used < self.port_count and rate <= self.port_rate


@dataclass
class OxcView:
    """Optical-layer state of one node's optical cross-connect."""

    node: NodeId
    add_drop_capacity: int
    add_drop_holders: set = field(default_factory=set)  # lightpath leaf ids

    @property
    def add_drop_used(self) -> int:
        return len(self.add_drop_holders)


@dataclass
class FiberLink:
    """Bidirectional fiber with a shared spectrum-slot grid.

    slot_grid[i] holds the intent id occupying slot i+1, or None when free;
    one reservation covers both directions.
    """

    endpoints: tuple[NodeId, NodeId]
    length: float  # km
    slot_grid: list
    operational: bool = True

    @property
    def key(self) -> LinkKey:
        return link_key(*self.endpoints)

    def holder(self, slot: int):
        return self.slot_grid[slot - 1]

    def free_slots(self) -> set[int]:
        return {i + 1 for i, holder in enumerate(self.slot_grid) if holder is None}


@dataclass
class NetworkGraph:
    """Mutable two-layer topology of one domain.

    The only booking record: slot grids, port holders and add/drop holders
    change through the reserve/release methods below, which refuse to book
    what is held and to release what another intent holds.  Single-writer:
    all mutations happen on the owning domain controller's event thread.
    """

    slot_count: int = DEFAULT_SLOT_COUNT
    routers: dict = field(default_factory=dict)  # NodeId -> RouterView
    oxcs: dict = field(default_factory=dict)  # NodeId -> OxcView
    fiber_links: dict = field(default_factory=dict)  # LinkKey -> FiberLink
    reserved_cells: int = 0  # held (fiber, slot) cells, kept by reserve/release
    _adjacency: dict = field(default_factory=dict, repr=False)

    # -- construction ------------------------------------------------------

    def add_node(self, router: RouterView, oxc: OxcView) -> None:
        if router.node != oxc.node:
            raise ValueError("router and oxc views must share a node id")
        if router.node in self.routers:
            raise DuplicateNodeError(f"node {router.node} already present")
        self.routers[router.node] = router
        self.oxcs[oxc.node] = oxc

    def add_fiber_link(self, a: NodeId, b: NodeId, length: float) -> FiberLink:
        for end in (a, b):
            if end not in self.oxcs:
                raise UnknownNodeError(f"fiber endpoint {end} not in graph")
        if length <= 0:
            raise ValueError(f"fiber length must be positive, got {length}")
        key = link_key(a, b)
        if key in self.fiber_links:
            raise DuplicateLinkError(f"fiber {a}-{b} already present")
        link = FiberLink((a, b), float(length), [None] * self.slot_count)
        self.fiber_links[key] = link
        self._adjacency.setdefault(a, []).append(b)
        self._adjacency.setdefault(b, []).append(a)
        return link

    # -- queries -----------------------------------------------------------

    def has_node(self, node: NodeId) -> bool:
        return node in self.routers

    def link_between(self, a: NodeId, b: NodeId) -> Optional[FiberLink]:
        return self.fiber_links.get(link_key(a, b))

    def neighbors(self, node: NodeId) -> list[NodeId]:
        return self._adjacency.get(node, [])

    def path_links(self, path: Iterable[NodeId]) -> list[FiberLink]:
        """Fiber links traversed by consecutive nodes of ``path``.

        Raises BrokenPathError when some hop has no fiber.
        """
        nodes = list(path)
        links = []
        for a, b in zip(nodes, nodes[1:]):
            link = self.link_between(a, b)
            if link is None:
                raise BrokenPathError(f"no fiber between {a} and {b}")
            links.append(link)
        return links

    def path_length(self, path: Iterable[NodeId]) -> float:
        return sum(link.length for link in self.path_links(path))

    def free_slot_blocks(self, path: Iterable[NodeId]) -> set[int]:
        """Slot indices free on every link of ``path``.

        A single-node path intersects nothing and yields the full grid.
        """
        free = set(range(1, self.slot_count + 1))
        for link in self.path_links(path):
            free &= link.free_slots()
        return free

    def set_link_operational(self, a: NodeId, b: NodeId, up: bool) -> FiberLink:
        link = self.link_between(a, b)
        if link is None:
            raise UnknownLinkError(f"no fiber between {a} and {b}")
        if link.operational == up:
            state = "up" if up else "down"
            raise LinkStateError(f"fiber {a}-{b} already {state}")
        link.operational = up
        return link

    # -- booking -----------------------------------------------------------

    def reserve_spectrum(self, link: FiberLink, start: int, end: int, holder) -> None:
        """Book slots start..end of ``link``; fails unless all are free."""
        self._rebook([link], start, end, None, holder)

    def release_spectrum(self, link: FiberLink, start: int, end: int, holder) -> None:
        """Free slots start..end of ``link``; fails unless ``holder`` holds all."""
        self._rebook([link], start, end, holder, None)

    def reserve_port(self, node: NodeId, holder, rate: int) -> None:
        router = self.routers[node]
        if holder in router.port_holders or not router.has_free_port(rate):
            raise BookingConflictError(f"no {rate} Gbps port for {holder} at {node}")
        router.port_holders[holder] = rate

    def release_port(self, node: NodeId, holder) -> None:
        if self.routers[node].port_holders.pop(holder, None) is None:
            raise BookingConflictError(f"no port held by {holder} at {node}")

    def reserve_lightpath(self, path, slot_range, holder) -> None:
        """Book ``slot_range`` on every fiber of ``path`` and an add/drop
        termination at both ends, all or nothing.  Every fiber must be up."""
        ends = [self.oxcs[path[0]], self.oxcs[path[-1]]]
        for oxc in ends:
            if holder in oxc.add_drop_holders or oxc.add_drop_used >= oxc.add_drop_capacity:
                raise BookingConflictError(f"no add/drop for {holder} at {oxc.node}")
        links = self.path_links(path)
        if not all(link.operational for link in links):
            raise BookingConflictError(f"a fiber of {holder}'s path is down")
        self._rebook(links, *slot_range, None, holder)
        for oxc in ends:
            oxc.add_drop_holders.add(holder)

    def release_lightpath(self, path, slot_range, holder) -> None:
        """Undo ``reserve_lightpath``, all or nothing; down fibers included."""
        ends = [self.oxcs[path[0]], self.oxcs[path[-1]]]
        for oxc in ends:
            if holder not in oxc.add_drop_holders:
                raise BookingConflictError(f"no add/drop held by {holder} at {oxc.node}")
        self._rebook(self.path_links(path), *slot_range, holder, None)
        for oxc in ends:
            oxc.add_drop_holders.remove(holder)

    def _rebook(self, links, start: int, end: int, current, holder) -> None:
        """Move slots start..end of every link from ``current`` to ``holder``;
        fails, changing nothing, if some slot is not held by ``current``."""
        if not 1 <= start <= end <= self.slot_count:
            raise ValueError(f"slots {start}-{end} outside a grid of {self.slot_count}")
        for link in links:
            for slot in range(start, end + 1):
                if link.slot_grid[slot - 1] != current:
                    raise BookingConflictError(f"slot {slot} on {link.key} held by "
                                               f"{link.slot_grid[slot - 1]}, not {current}")
        width = end - start + 1
        for link in links:
            link.slot_grid[start - 1:end] = [holder] * width
        self.reserved_cells += width * len(links) * (1 if holder is not None else -1)

    # -- routing -----------------------------------------------------------

    def k_shortest_paths(
        self,
        src: NodeId,
        dst: NodeId,
        k: int,
        exclude_links: Iterable[LinkKey] = (),
    ) -> list[list[NodeId]]:
        """Up to k loop-free paths from src to dst, Yen-style.

        Paths are ordered by ascending length with ties broken
        lexicographically on the node sequence, so results are deterministic.
        Non-operational links and ``exclude_links`` are never traversed.
        Returns an empty list when src and dst are disconnected.
        """
        if src == dst:
            raise ValueError("k_shortest_paths requires src != dst")
        for node in (src, dst):
            if node not in self.routers:
                raise UnknownNodeError(f"node {node} not in graph")
        if k < 1:
            return []

        banned = set(exclude_links)
        first = self._shortest_path(src, dst, banned, frozenset())
        if first is None:
            return []

        accepted = [first]
        candidates: list[tuple[float, tuple, list]] = []
        seen = {tuple(first[1])}

        while len(accepted) < k:
            prev = accepted[-1][1]
            for i in range(len(prev) - 1):
                spur = prev[i]
                root = prev[: i + 1]
                root_len = self.path_length(root)
                # Edges that would recreate an already-accepted path sharing
                # this root are banned for the spur search.
                spur_banned = set(banned)
                for _, p in accepted:
                    if p[: i + 1] == root:
                        spur_banned.add(link_key(p[i], p[i + 1]))
                blocked_nodes = frozenset(root[:-1])
                spur_path = self._shortest_path(spur, dst, spur_banned, blocked_nodes)
                if spur_path is None:
                    continue
                total = root[:-1] + spur_path[1]
                key = tuple(total)
                if key in seen:
                    continue
                seen.add(key)
                heapq.heappush(
                    candidates, (root_len + spur_path[0], tuple(total), total)
                )
            if not candidates:
                break
            _, _, path = heapq.heappop(candidates)
            # Re-sum canonically so tie-breaking matches path_length exactly.
            accepted.append((self.path_length(path), path))

        accepted.sort(key=lambda entry: (entry[0], tuple(entry[1])))
        return [path for _, path in accepted]

    def _shortest_path(self, src, dst, banned_links, banned_nodes):
        """Dijkstra returning (length, path) minimal by (length, node seq)."""
        heap = [(0.0, (src,))]
        settled = set()
        while heap:
            dist, path = heapq.heappop(heap)
            node = path[-1]
            if node == dst:
                return dist, list(path)
            if node in settled:
                continue
            settled.add(node)
            for neighbor in self.neighbors(node):
                if neighbor in settled or neighbor in banned_nodes:
                    continue
                link = self.fiber_links[link_key(node, neighbor)]
                if not link.operational or link.key in banned_links:
                    continue
                heapq.heappush(heap, (dist + link.length, path + (neighbor,)))
        return None
