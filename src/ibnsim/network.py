"""Two-layer IP-optical network model for a single domain.

The electrical layer is a set of router views joined by the virtual links
that installed lightpaths create; the optical layer is a set of OXC views
joined by fiber links that carry a fixed grid of spectrum slots.  Slot indices are 1-based throughout the public API:
a fiber with grid size G exposes slots 1..G, and a slot interval is the
inclusive pair (start, end).
"""

import heapq
import math
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
    port_holders: set = field(default_factory=set)  # router-port leaf ids

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

    ``holders`` maps each intent id holding slots here to its slot mask, bit
    i standing for slot i+1; one reservation covers both directions.  The
    masks are nonzero and disjoint, ``busy`` is their OR, and only
    ``NetworkGraph._rebook`` writes either.
    """

    endpoints: tuple[NodeId, NodeId]
    length: float  # km
    operational: bool = True
    busy: int = 0
    holders: dict = field(default_factory=dict)  # intent id -> slot mask

    @property
    def key(self) -> LinkKey:
        return link_key(*self.endpoints)

    def slot_holders(self) -> dict:
        """Held slot -> its holder; free slots are absent."""
        owner = {}
        for holder, mask in self.holders.items():
            while mask:
                owner[(mask & -mask).bit_length()] = holder
                mask &= mask - 1
        return owner


@dataclass
class NetworkGraph:
    """Mutable two-layer topology of one domain.

    The only booking record: slot holders, port holders and add/drop holders
    change through the reserve/release methods below, which refuse to book
    what is held and to release what another intent holds.  Single-writer:
    all mutations happen on the owning domain controller's event thread.
    """

    slot_count: int = DEFAULT_SLOT_COUNT
    routers: dict = field(default_factory=dict)  # NodeId -> RouterView
    oxcs: dict = field(default_factory=dict)  # NodeId -> OxcView
    fiber_links: dict = field(default_factory=dict)  # LinkKey -> FiberLink
    reserved_cells: int = 0  # held (fiber, slot) cells, kept by reserve/release
    # Routing index.  Each fiber owns one bit, in insertion order; ``_down``
    # holds the bits of the down fibers, and only set_link_operational
    # writes it.  ``_index`` is built by ``_graph_index`` on first use.
    _bits: dict = field(default_factory=dict, repr=False)  # LinkKey -> bit
    _down: int = field(default=0, repr=False)
    _index: Optional[tuple] = field(default=None, repr=False)
    # (src, dst, k, excluded bits) -> (paths, used, down, whole) and dst
    # position -> (A* heuristic, down): answers tagged with the down-set they
    # were computed under and, for routes, the bits of every link a search
    # returned and whether the paths are the whole answer or its certified
    # first path.  Link flips keep both (see ``routes`` and
    # ``_distances`` for when an entry still holds); add_node and
    # add_fiber_link clear them.
    _routes: dict = field(default_factory=dict, repr=False)
    _dists: dict = field(default_factory=dict, repr=False)
    # Node tuple -> (its fibers, their km summed left to right).  Fibers are
    # never removed and their lengths never change, so an entry holds until
    # add_node or add_fiber_link clears it; a broken path is never stored.
    _fibers: dict = field(default_factory=dict, repr=False)

    # -- construction ------------------------------------------------------

    def add_node(self, router: RouterView, oxc: OxcView) -> None:
        if router.node != oxc.node:
            raise ValueError("router and oxc views must share a node id")
        if router.node in self.routers:
            raise DuplicateNodeError(f"node {router.node} already present")
        self.routers[router.node] = router
        self.oxcs[oxc.node] = oxc
        self._reindex()

    def add_fiber_link(self, a: NodeId, b: NodeId, length: float) -> FiberLink:
        for end in (a, b):
            if end not in self.oxcs:
                raise UnknownNodeError(f"fiber endpoint {end} not in graph")
        if length <= 0:
            raise ValueError(f"fiber length must be positive, got {length}")
        key = link_key(a, b)
        if key in self.fiber_links:
            raise DuplicateLinkError(f"fiber {a}-{b} already present")
        link = FiberLink((a, b), float(length))
        self.fiber_links[key] = link
        self._bits[key] = 1 << len(self._bits)
        self._reindex()
        return link

    def _reindex(self) -> None:
        self._index = None
        self._routes.clear()
        self._dists.clear()
        self._fibers.clear()

    # -- queries -----------------------------------------------------------

    def has_node(self, node: NodeId) -> bool:
        return node in self.routers

    def link_between(self, a: NodeId, b: NodeId) -> Optional[FiberLink]:
        return self.fiber_links.get(link_key(a, b))

    def path_links(self, path: Iterable[NodeId]) -> list[FiberLink]:
        """Fiber links traversed by consecutive nodes of ``path``.

        Raises BrokenPathError when some hop has no fiber.
        """
        return list(self._path_fibers(path)[0])

    def path_length(self, path: Iterable[NodeId]) -> float:
        return self._path_fibers(path)[1]

    def _path_fibers(self, path: Iterable[NodeId]) -> tuple:
        """(fibers of ``path``, their km), memoized per node tuple.

        A loop adds the km: ``sum()`` of floats is compensated since
        CPython 3.12, so its result would depend on the interpreter.
        """
        nodes = tuple(path)
        memo = self._fibers.get(nodes)
        if memo is None:
            links = []
            km = 0.0
            for a, b in zip(nodes, nodes[1:]):
                link = self.link_between(a, b)
                if link is None:
                    raise BrokenPathError(f"no fiber between {a} and {b}")
                links.append(link)
                km += link.length
            memo = self._fibers[nodes] = (tuple(links), km)
        return memo

    def set_link_operational(self, a: NodeId, b: NodeId, up: bool) -> FiberLink:
        link = self.link_between(a, b)
        if link is None:
            raise UnknownLinkError(f"no fiber between {a} and {b}")
        if link.operational == up:
            state = "up" if up else "down"
            raise LinkStateError(f"fiber {a}-{b} already {state}")
        link.operational = up
        self._down ^= self._bits[link.key]
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
        router.port_holders.add(holder)

    def release_port(self, node: NodeId, holder) -> None:
        holders = self.routers[node].port_holders
        if holder not in holders:
            raise BookingConflictError(f"no port held by {holder} at {node}")
        holders.remove(holder)

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
        """Move slots start..end of every link from ``current`` to ``holder``,
        one of which is None; fails, changing nothing, if some slot is not
        held by ``current``."""
        if not 1 <= start <= end <= self.slot_count:
            raise ValueError(f"slots {start}-{end} outside a grid of {self.slot_count}")
        width = end - start + 1
        mask = ((1 << width) - 1) << (start - 1)
        for link in links:
            fault = mask & (link.busy if current is None else ~link.holders.get(current, 0))
            if fault:
                slot = (fault & -fault).bit_length()
                raise BookingConflictError(f"slot {slot} on {link.key} held by "
                                           f"{link.slot_holders().get(slot)}, not {current}")
        owner = holder if current is None else current
        for link in links:
            link.busy ^= mask
            left = link.holders.get(owner, 0) ^ mask
            if left:
                link.holders[owner] = left
            else:
                del link.holders[owner]
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
        Returns an empty list when src and dst are disconnected.  Answers
        are memoized; each call gets fresh lists.
        """
        return list(self.routes(src, dst, k, exclude_links))

    def routes(self, src: NodeId, dst: NodeId, k: int, exclude_links=()):
        """Yield the paths ``k_shortest_paths`` returns, in its order, each
        computed only when it is asked for.

        The first path often comes before any spur search has run (see the
        certificate in ``_yen``), so a caller that stops at it skips the
        rest of Yen.  Bad arguments raise as in ``k_shortest_paths``, at the
        first ``next``.  The graph must not change while the iteration is
        open.

        Memo entries hold the whole answer or, when the caller stopped at a
        certified first path, that path alone.  Every search returns the
        least path among those it may use, so taking down links that no
        returned path used changes no answer, and a search that never ran
        had a bound above the last accepted key (for a first-only entry: the
        certificate still holds on the smaller graph).  An entry therefore
        holds while no link down at its computation came back up and no
        link it used went down.  A call that needs more than a first-only
        entry runs Yen afresh.
        """
        if src == dst:
            raise ValueError("k_shortest_paths requires src != dst")
        for node in (src, dst):
            if node not in self.routers:
                raise UnknownNodeError(f"node {node} not in graph")
        if k < 1:
            return
        excluded = 0
        for key in exclude_links:
            excluded |= self._bits.get(key, 0)
        memo_key = (src, dst, k, excluded)
        memo = self._routes.get(memo_key)
        down = self._down
        sent = 0
        if memo is not None and not (memo[2] & ~down or memo[1] & down):
            for path in memo[0]:
                yield list(path)
            if memo[3]:
                return
            sent = len(memo[0])
        nodes, pos, _, _ = self._graph_index()
        for prefix, used, whole in self._yen(pos[src], pos[dst], k, excluded):
            paths = tuple(tuple(nodes[p] for p in path) for path in prefix)
            self._routes[memo_key] = (paths, used, down, whole)
            for path in paths[sent:]:
                yield list(path)
            sent = len(paths)

    def _graph_index(self):
        """(nodes in NodeId order, NodeId -> position, adjacency, hops).

        ``adjacency[u]`` lists ``(v, 1 << v, km, link bit)`` per fiber of the
        node at position u; ``hops[u, v]`` is ``(km, link bit)``.  Positions
        follow NodeId order, so tuples of positions sort like the paths."""
        if self._index is None:
            nodes = sorted(self.routers)
            pos = {node: i for i, node in enumerate(nodes)}
            adjacency = [[] for _ in nodes]
            hops = {}
            for key, link in self.fiber_links.items():
                a, b = pos[link.endpoints[0]], pos[link.endpoints[1]]
                bit = self._bits[key]
                adjacency[a].append((b, 1 << b, link.length, bit))
                adjacency[b].append((a, 1 << a, link.length, bit))
                hops[a, b] = hops[b, a] = (link.length, bit)
            self._index = nodes, pos, adjacency, hops
        return self._index

    def _yen(self, src, dst, k, excluded):
        """Yen's k shortest loop-free paths between positions avoiding the
        ``excluded`` link bits, as a generator of (answer prefix, bits of
        every link a search returned so far, whether the prefix is whole).
        The last item is the whole answer; before it may come the first
        path alone, certified before any spur search runs.

        Spur searches are deferred (after Kurz and Mutzel, ISAAC 2016): the
        search from spur i of accepted path m enters the candidate heap
        keyed by a lower bound on every key it can return, with the bans
        it would have had right after m was accepted, and runs only when it
        reaches the top.  A search pops before a candidate of equal key, and
        a path keeps the key of the earliest search (m, i) that returns it.
        That is the order, keys and dedup of running every search at once,
        so the answer is the same, root + spur tie quirk included.

        The answer is ``accepted`` sorted by (left-to-right km, path), and
        its first path need not be A, the first accepted (the A* answer):
        an equal km with a smaller node sequence, or a key that rounds
        below A's km, can sort first.  Once A's spur entries are pushed, A
        can be certified first for any k.  Every other simple path leaves A
        at some spur i, and the bound of A's spur i is below the
        left-to-right km of every path leaving A there (the 2**-30 argument
        below).  A's km from A* is its own left-to-right km.  So if A's km
        is below the least of those bounds, nothing sorts before A.  With
        k = 1 or no spur entry, the whole answer comes at once anyway.
        """
        _, _, adjacency, hops = self._graph_index()
        h = self._distances(dst)
        banned = excluded | self._down
        first = self._shortest_path(src, dst, banned, 0, h)
        if first is None:
            yield (), 0, True
            return
        used = self._path_bits(first[1])
        accepted = [first]
        done = {first[1]}
        best = {}  # path -> (m, i, key) of the earliest search returning it
        heap = []

        while len(accepted) < k:
            m = len(accepted) - 1
            prev = accepted[m][1]
            root_len = 0  # km of prev[:i + 1], carried one link at a time
            blocked = 0  # node bits of prev[:i]
            for i, spur in enumerate(prev[:-1]):
                if i:
                    root_len += hops[prev[i - 1], spur][0]
                    blocked |= 1 << prev[i - 1]
                root = prev[: i + 1]
                # Links that would recreate an already-accepted path sharing
                # this root are banned for the spur search.
                spur_banned = banned
                for _, p in accepted:
                    if p[: i + 1] == root:
                        spur_banned |= hops[p[i], p[i + 1]][1]
                low = math.inf
                for neighbor, nbit, km, bit in adjacency[spur]:
                    if not (bit & spur_banned or nbit & blocked) and h[neighbor] is not None:
                        low = min(low, km + h[neighbor])
                if low == math.inf:
                    continue  # the search cannot leave the spur
                # Any key of a path this search may return, given by this
                # or any other search, sums that path's n fibers in some
                # grouping: it is within n * 2**-53 of the true km.
                # root_len + low sums the root, one hop and h, which never
                # exceeds the true km left (the 2**-20 shrink covers the
                # tree's roundings), so it exceeds the true km by at most
                # (n + 3) * 2**-53.  Shrunk by 2**-30, the bound is below
                # every such key while 2n + 3 < 2**23: the search pops
                # before any path it could return, or give an earlier key.
                bound = (root_len + low) * (1 - 2**-30)
                heapq.heappush(heap, (bound, 0, m, i, root, root_len, spur_banned, blocked))
            if not m and heap and first[0] < heap[0][0]:
                yield (first[1],), used, False

            while heap:
                entry = heapq.heappop(heap)
                if entry[1]:
                    key, _, path = entry
                    if path not in done and best[path][2] == key:
                        done.add(path)
                        km = 0.0  # left to right, as in _path_fibers
                        for a, b in zip(path, path[1:]):
                            km += hops[a, b][0]
                        accepted.append((km, path))
                        break
                    continue  # accepted already, or a later search's key
                _, _, m, i, root, root_len, spur_banned, blocked = entry
                found = self._shortest_path(root[-1], dst, spur_banned, blocked, h)
                if found is None:
                    continue
                used |= self._path_bits(found[1])
                path = root[:-1] + found[1]
                prior = best.get(path)
                if path in done or (prior is not None and prior[:2] < (m, i)):
                    continue
                key = root_len + found[0]
                best[path] = (m, i, key)
                heapq.heappush(heap, (key, 1, path))
            else:
                break

        accepted.sort()
        yield tuple(path for _, path in accepted), used, True

    def _path_bits(self, path) -> int:
        hops = self._index[3]
        bits = 0
        for a, b in zip(path, path[1:]):
            bits |= hops[a, b][1]
        return bits

    def _distances(self, dst):
        """A* heuristic towards position ``dst``: a list giving, per node
        position, a lower bound on its km to dst, or None when the node does
        not reach dst over operational fibers.  Spur searches only ban more
        links and nodes, so one tree serves them all.

        A tree is kept while every fiber down at its build is still down.
        Its graph then holds every operational fiber, so its distances are
        still lower bounds and still consistent (h(u) <= w + h(v) on every
        fiber u-v that is up), and its ``span`` still bounds every g, h and
        f below: the margin argument holds unchanged on a stale tree.
        """
        cached = self._dists.get(dst)
        down = self._down
        if cached is not None and not cached[1] & ~down:
            return cached[0]
        adjacency = self._graph_index()[2]
        dists = [None] * len(adjacency)
        span, shortest = 0.0, math.inf
        heap = [(0.0, dst)]
        while heap:
            dist, node = heapq.heappop(heap)
            if dists[node] is not None:
                continue
            dists[node] = dist
            for neighbor, _, km, bit in adjacency[node]:
                if not bit & down:
                    span += km
                    shortest = min(shortest, km)
                    if dists[neighbor] is None:
                        heapq.heappush(heap, (dist + km, neighbor))
        # With the exact distances h, rounding can reorder a tie: in f = g + h,
        # 0.1 + 1.1 is 1.2000000000000002 while 0.2 + 1.0 is 1.2, so the path
        # Dijkstra settles first can pop second.  Shrunk by c = 1 - 2**-20, h
        # still satisfies c * h(u) <= c * (w + h(v)) on a fiber u-v of length w,
        # so f = g + c * h grows by at least 2**-20 * w when a path is
        # extended by v.  Six roundings can eat into that margin: h(u) as a
        # tree sum, c * h on both sides, g + w, and g + c * h on both sides,
        # each by at most 2**-53 * M, where M bounds every g, h and f.
        # The computed f therefore still grows while 2**-20 * w_min exceeds
        # 6 * 2**-53 * M, that is while M / w_min < 2**33 / 6.  Searches
        # follow simple paths inside dst's component, so M is at most twice
        # that component's fiber km: ``span``, which counts each fiber from
        # both ends.  Then a path pops before every path extending it,
        # entries for one node pop in Dijkstra's (g, path) order, and every
        # node is settled by the path Dijkstra settles it with.  Past the
        # bound (2**29 leaves a factor 2.7), h is 0, which is Dijkstra.
        scale = 1 - 2**-20 if span <= 2**29 * shortest else 0.0
        h = [None if dist is None else dist * scale for dist in dists]
        self._dists[dst] = (h, down)
        return h

    def _shortest_path(self, src, dst, banned, blocked, h):
        """A* between node positions returning (length, path) minimal by
        (length, node seq), the answer of Dijkstra, or None.  ``banned`` and
        ``blocked`` are link and node bits never crossed (down fibers are
        the caller's to ban); ``h`` is ``_distances(dst)`` or 0 where it is
        not None."""
        adjacency = self._index[2]
        if h[src] is None:
            return None
        heap = [(h[src], 0.0, (src,))]
        while heap:
            _, dist, path = heapq.heappop(heap)
            node = path[-1]
            if node == dst:
                return dist, path
            if blocked >> node & 1:
                continue
            blocked |= 1 << node
            for neighbor, nbit, km, bit in adjacency[node]:
                if nbit & blocked or bit & banned:
                    continue
                rest = h[neighbor]
                if rest is not None:
                    g = dist + km
                    heapq.heappush(heap, (g + rest, g, path + (neighbor,)))
        return None
