"""Brute-force reference implementations used to verify derived test values.

Everything here is deliberately independent of the library's algorithms:
paths come from exhaustive DFS enumeration, spectrum blocks from scanning
every start index, and the compilation oracle from enumerating all feasible
(path, mode, slot) triples.
"""

import dataclasses
import enum
import heapq
import math
from collections import deque

from ibnsim.errors import ScenarioParseError
from ibnsim.network import NodeId, link_key


def graph_adjacency(graph, exclude=()):
    """Adjacency dict over operational, non-excluded fiber links."""
    banned = set(exclude)
    adj = {}
    for key, link in graph.fiber_links.items():
        if not link.operational or key in banned:
            continue
        a, b = key
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return adj


def all_simple_paths(graph, src, dst, exclude=()):
    """Every loop-free path src -> dst, by exhaustive DFS."""
    adj = graph_adjacency(graph, exclude)
    paths = []

    def walk(node, seen, trail):
        if node == dst:
            paths.append(list(trail))
            return
        for neighbor in adj.get(node, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                trail.append(neighbor)
                walk(neighbor, seen, trail)
                trail.pop()
                seen.discard(neighbor)

    walk(src, {src}, [src])
    return paths


def path_length(graph, path):
    """Fiber km added left to right, as the graph adds them (``sum()`` of
    floats is compensated since CPython 3.12)."""
    km = 0.0
    for a, b in zip(path, path[1:]):
        km += graph.fiber_links[link_key(a, b)].length
    return km


def ranked_paths(graph, src, dst, k, exclude=()):
    """First k paths under (length, node-sequence) ordering."""
    paths = all_simple_paths(graph, src, dst, exclude)
    paths.sort(key=lambda p: (path_length(graph, p), tuple(p)))
    return paths[:k]


def eager_yen(graph, src, dst, k, exclude=()):
    """Yen's k shortest paths as the library ran them before its spur
    searches were deferred: every spur search of a path runs as soon as the
    path is accepted, candidates rank by (root km + spur km, node sequence),
    and each spur search is Dijkstra ordered by (km, node sequence)."""
    banned = set(exclude) | {
        key for key, link in graph.fiber_links.items() if not link.operational
    }
    first = _dijkstra(graph, src, dst, banned, frozenset())
    if first is None:
        return []

    accepted = [first]
    candidates = []
    seen = {tuple(first[1])}

    while len(accepted) < k:
        prev = accepted[-1][1]
        root_len = 0
        for i, spur in enumerate(prev[:-1]):
            if i:
                root_len += graph.link_between(prev[i - 1], spur).length
            root = prev[: i + 1]
            spur_banned = set(banned)
            for _, p in accepted:
                if p[: i + 1] == root:
                    spur_banned.add(link_key(p[i], p[i + 1]))
            blocked_nodes = frozenset(root[:-1])
            spur_path = _dijkstra(graph, spur, dst, spur_banned, blocked_nodes)
            if spur_path is None:
                continue
            total = root[:-1] + spur_path[1]
            key = tuple(total)
            if key in seen:
                continue
            seen.add(key)
            heapq.heappush(candidates, (root_len + spur_path[0], key, total))
        if not candidates:
            break
        _, _, path = heapq.heappop(candidates)
        accepted.append((path_length(graph, path), path))

    accepted.sort(key=lambda entry: (entry[0], tuple(entry[1])))
    return [path for _, path in accepted]


def _dijkstra(graph, src, dst, banned_links, banned_nodes):
    """(km, path) minimal by (km, node sequence), or None."""
    adj = {}
    for key, link in graph.fiber_links.items():
        if key not in banned_links:
            a, b = link.endpoints
            adj.setdefault(a, []).append((b, link.length))
            adj.setdefault(b, []).append((a, link.length))
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
        for neighbor, km in adj.get(node, ()):
            if neighbor not in settled and neighbor not in banned_nodes:
                heapq.heappush(heap, (dist + km, path + (neighbor,)))
    return None


def slot_grid(link, slot_count):
    """Per-slot holders of ``link``: entry i is the intent id holding slot
    i+1, or None when it is free."""
    held = link.slot_holders()
    return [held.get(slot) for slot in range(1, slot_count + 1)]


def holder_mask_problems(link, slot_count):
    """Breaches of the holder-mask invariant on ``link``: every mask is
    nonzero, inside the grid and disjoint from the others, and ``busy`` is
    their OR."""
    fiber = f"{link.key[0]}-{link.key[1]}"
    problems = []
    union = 0
    for mask in link.holders.values():
        if not mask:
            problems.append(f"empty holder mask on {fiber}")
        if union & mask:
            problems.append(f"holder masks overlap on {fiber}")
        if mask >> slot_count:
            problems.append(f"holder mask outside the grid on {fiber}")
        union |= mask
    if link.busy != union:
        problems.append(f"busy mask is not the OR of the holder masks on {fiber}")
    return problems


def free_slots(link, slot_count):
    """Slot indices (1-based) no intent holds on ``link``."""
    return {i + 1 for i, holder in enumerate(slot_grid(link, slot_count)) if holder is None}


def free_slots_on_path(graph, path, treat_free=()):
    """Intersection of free slot sets over the path, slot indices 1-based.

    A single-node path intersects nothing and yields the full grid; a hop
    with no fiber raises BrokenPathError."""
    free = set(range(1, graph.slot_count + 1))
    as_free = set(treat_free)
    for link in graph.path_links(path):
        grid = slot_grid(link, graph.slot_count)
        free &= {
            slot
            for slot in range(1, graph.slot_count + 1)
            if grid[slot - 1] is None or grid[slot - 1] in as_free
        }
    return free


def brute_first_fit(graph, path, width, treat_free=()):
    """Lowest feasible start index by scanning every candidate block."""
    free = free_slots_on_path(graph, path, treat_free)
    for start in range(1, graph.slot_count - width + 2):
        if all(slot in free for slot in range(start, start + width)):
            return (start, start + width - 1)
    return None


def mirror_mismatches(domains):
    """RemoteIntent mirrors that disagree with the referenced remote aggregate."""
    from ibnsim.intents import RemoteIntent

    mismatches = []
    for did, ctrl in domains.items():
        for iid, node in ctrl.dag.nodes.items():
            if not isinstance(node.payload, RemoteIntent):
                continue
            mirror = node.payload
            if mirror.remote_id is None:
                mismatches.append((did, iid, "never acknowledged"))
                continue
            remote = domains[mirror.neighbor]
            if mirror.remote_id not in remote.dag.nodes:
                mismatches.append((did, iid, "dangling remote id"))
                continue
            actual = remote.dag.aggregate_state(mirror.remote_id)
            if actual is not node.state:
                mismatches.append((did, iid, f"mirror {node.state} != {actual}"))
    return mismatches


def audit_resources(domains):
    """Cross-check the graph's bookings against the DAG, and installed
    lightpath geometry.

    Every held slot, port and add/drop termination must be claimed by an
    installed or failed leaf of the domain's DAG, and every such leaf must
    hold what it claims.  Each fiber's holder masks must keep their invariant
    (``holder_mask_problems``), the graph's ``_down`` mask must hold exactly
    its down fibers, the DAG's failed-leaf index exactly its failed intents
    (``failed_index_mismatches``), and every delegator must have been told
    the current aggregate of what it delegated (``notification_mismatches``).
    Returns a list of violation strings; empty means every no-overbooking,
    contiguity, continuity, reach and notification invariant holds.
    """
    from ibnsim.intents import IntentState, LightpathIntent, RouterPortIntent

    holding = (IntentState.INSTALLED, IntentState.FAILED)
    problems = []
    for did, ctrl in domains.items():
        graph = ctrl.graph
        claimed_cells, claimed_ports, claimed_ends = {}, {}, {}
        for iid, node in ctrl.dag.nodes.items():
            payload = node.payload
            if node.state not in holding:
                continue
            if isinstance(payload, RouterPortIntent):
                claimed_ports.setdefault(payload.node, {})[iid] = payload.rate
            elif isinstance(payload, LightpathIntent):
                start, end = payload.slot_range
                for a, b in zip(payload.path, payload.path[1:]):
                    for slot in range(start, end + 1):
                        claimed_cells[(link_key(a, b), slot)] = iid
                for end_node in (payload.path[0], payload.path[-1]):
                    claimed_ends.setdefault(end_node, set()).add(iid)
        grid_cells = {}
        down_mask = 0
        for key, link in graph.fiber_links.items():
            if not link.operational:
                down_mask |= graph._bits[key]
            problems += [f"domain {did}: {p}"
                         for p in holder_mask_problems(link, graph.slot_count)]
            for slot, holder in link.slot_holders().items():
                grid_cells[(key, slot)] = holder
        if graph._down != down_mask:
            problems.append(f"domain {did}: down mask and fiber states disagree")
        if grid_cells != claimed_cells:
            problems.append(f"domain {did}: slot grids and DAG lightpaths disagree")
        if graph.reserved_cells != len(grid_cells):
            problems.append(f"domain {did}: reserved_cells is not the held cell count")
        # Port accounting.
        for node, router in graph.routers.items():
            claimed = claimed_ports.get(node, {})
            if router.port_holders != claimed.keys():
                problems.append(f"domain {did}: port holders and DAG disagree at {node}")
            if router.ports_used > router.port_count:
                problems.append(f"domain {did}: ports overbooked at {node}")
            if sum(claimed.values()) > router.port_count * router.port_rate:
                problems.append(f"domain {did}: port rate budget exceeded at {node}")
        for node, oxc in graph.oxcs.items():
            ends = claimed_ends.get(node, set())
            if oxc.add_drop_holders != ends or oxc.add_drop_used != len(ends):
                problems.append(f"domain {did}: add/drop holders and DAG disagree at {node}")
            if oxc.add_drop_used > oxc.add_drop_capacity:
                problems.append(f"domain {did}: add/drop overbooked at {node}")
        # Installed lightpaths: contiguous range, continuity on every link,
        # reach-safe, slots actually held by that lightpath.
        for iid, node in ctrl.dag.nodes.items():
            payload = node.payload
            if not isinstance(payload, LightpathIntent) or node.state not in holding:
                continue
            start, end = payload.slot_range
            if end - start + 1 != payload.mode.slots_needed:
                problems.append(f"domain {did}: {iid} block not contiguous")
            length = 0.0
            for a, b in zip(payload.path, payload.path[1:]):
                link = graph.link_between(a, b)
                if link is None:
                    problems.append(f"domain {did}: {iid} path broken at {a}-{b}")
                    continue
                length += link.length
                grid = slot_grid(link, graph.slot_count)
                for slot in range(start, end + 1):
                    if grid[slot - 1] != iid:
                        problems.append(
                            f"domain {did}: {iid} missing slot {slot} on {a}-{b}"
                        )
            if length > payload.mode.reach:
                problems.append(f"domain {did}: {iid} exceeds mode reach")
        problems += [f"domain {did}: {p}" for p in failed_index_mismatches(ctrl)]
        problems += [f"domain {did}: {p}" for p in notification_mismatches(ctrl)]
    return problems


def link_state_problems(domains):
    """Fibers whose state is not the same everywhere it is kept: a graph
    whose ``operational`` flag and routing down bit disagree, and a fiber
    key held by several graphs (a border fiber) whose copies differ."""
    problems = []
    seen = {}  # fiber key -> (first domain holding it, its up state)
    for did in sorted(domains):
        graph = domains[did].graph
        for key, link in graph.fiber_links.items():
            up = not graph._down & graph._bits[key]
            if link.operational != up:
                problems.append(f"domain {did}: {key} operational={link.operational}, "
                                f"down bit {'clear' if up else 'set'}")
            first, first_up = seen.setdefault(key, (did, up))
            if first_up != up:
                problems.append(f"{key} is {'up' if first_up else 'down'} in domain "
                                f"{first}, {'up' if up else 'down'} in domain {did}")
    return problems


def failed_index_mismatches(ctrl):
    """Disagreements between ``IntentDAG.failed`` and the stored states:
    an indexed id that is not a failed intent, a failed leaf left out, and
    a root whose aggregate is FAILED that no indexed leaf lies below, which
    link-up recovery would never visit."""
    from ibnsim.intents import IntentState

    dag = ctrl.dag
    problems = []
    for iid in sorted(dag.failed):
        node = dag.nodes.get(iid)
        if node is None:
            problems.append(f"failed index holds {iid}, which is not in the DAG")
        elif node.state is not IntentState.FAILED:
            problems.append(f"failed index holds {iid}, which is {node.state.value}")
    reached = set()
    for iid, node in dag.nodes.items():
        if node.children or node.state is not IntentState.FAILED:
            continue
        if iid not in dag.failed:
            problems.append(f"failed leaf {iid} is missing from the failed index")
            continue
        while node.parent is not None:
            iid, node = node.parent, dag.nodes[node.parent]
        reached.add(iid)
    for iid, node in dag.nodes.items():
        if (node.parent is None and iid not in reached
                and dag.aggregate_state(iid) is IntentState.FAILED):
            problems.append(f"failed root {iid} has no indexed leaf below it")
    return problems


def notification_mismatches(ctrl):
    """Delegated intents whose last state sent to the delegator is not their
    aggregate state: between events, every change must have been sent.  Also
    every coordination entry that outlived its intent: a ``last_notified``
    key, a ``mirror_index`` value or a ``pending_installs`` member that is
    not a live node of the right kind."""
    from ibnsim.intents import RemoteIntent

    problems = []
    nodes = ctrl.dag.nodes
    for iid in sorted(ctrl.origins):
        if iid not in nodes:
            problems.append(f"delegated {iid} is not in the DAG")
        elif ctrl.last_notified.get(iid) is not ctrl.dag.aggregate_state(iid):
            problems.append(f"delegator of {iid} last heard {ctrl.last_notified.get(iid)}")
    problems += [f"last_notified holds removed {iid}"
                 for iid in sorted(ctrl.last_notified) if iid not in nodes]
    for remote, mirror in sorted(ctrl.mirror_index.items()):
        payload = nodes[mirror].payload if mirror in nodes else None
        if not isinstance(payload, RemoteIntent) or payload.remote_id != remote:
            problems.append(f"mirror_index maps {remote} to {mirror}, not its live mirror")
    problems += [f"pending install {iid} is not a live mirror"
                 for iid in sorted(ctrl.pending_installs)
                 if iid not in nodes or not isinstance(nodes[iid].payload, RemoteIntent)]
    return problems


def oracle_compile(graph, mode_table, src, dst, rate, k, exclude=(), treat_free=()):
    """Minimal feasible (path, mode, slot interval) under the declared order.

    Enumerates every triple over the k-ranked candidate paths and picks the
    minimum by (path rank, slot start), breaking mode ties by
    (slots, rate, table position).  Slots held by ``treat_free`` count as
    free.  Returns None when nothing is feasible, which must coincide with a
    blocked compilation.
    """
    candidates = ranked_paths(graph, src, dst, k, exclude)
    best = None
    best_key = None
    for rank, path in enumerate(candidates):
        length = path_length(graph, path)
        for position, mode in enumerate(mode_table):
            if mode.rate < rate or mode.reach < length:
                continue
            block = brute_first_fit(graph, path, mode.slots_needed, treat_free)
            if block is None:
                continue
            key = (rank, block[0], mode.slots_needed, mode.rate, position)
            if best_key is None or key < best_key:
                best = (path, mode, block)
                best_key = key
    return best


def reference_plan(domain, src, dst, rate, excluded_links, as_free=frozenset()):
    """``compilation._plan`` as it ran over the eager ``k_shortest_paths``
    list: the first feasible (path, mode, slot block), else the first
    BlockReason met, NO_MODE and NO_SPECTRUM in path order, then NO_PATH."""
    from ibnsim.compilation import BlockReason, first_fit_spectrum, select_mode

    graph = domain.graph
    for node in (src, dst):
        router, oxc = graph.routers[node], graph.oxcs[node]
        ports = router.ports_used - len(as_free & router.port_holders)
        ends = oxc.add_drop_used - len(as_free & oxc.add_drop_holders)
        if (ports >= router.port_count or rate > router.port_rate
                or ends >= oxc.add_drop_capacity):
            return BlockReason.NO_PORT
    paths = graph.k_shortest_paths(src, dst, domain.config.k_paths, exclude_links=excluded_links)
    reason = None
    for path in paths:
        mode = select_mode(domain.config.mode_table, rate, graph.path_length(path))
        if mode is None:
            reason = reason or BlockReason.NO_MODE
            continue
        block = first_fit_spectrum(graph, path, mode.slots_needed, as_free)
        if block is None:
            reason = reason or BlockReason.NO_SPECTRUM
            continue
        return path, mode, block
    return reason or BlockReason.NO_PATH


def brute_aggregate(parent_of, stored, iid):
    """Effective state of ``iid`` from a plain parent map, leaf by leaf.

    ``parent_of`` maps every intent id to its parent id (None for a root)
    and ``stored`` maps it to its stored state.  The leaves below ``iid``
    are the ids no one names as parent whose chain of parents reaches
    ``iid``.  FAILED if any of them is failed, else the least of their
    states under uncompiled < compiled < installed.
    """
    from ibnsim.intents import IntentState

    progress = [IntentState.UNCOMPILED, IntentState.COMPILED, IntentState.INSTALLED]
    named = set(parent_of.values())
    states = []
    for leaf in parent_of:
        if leaf in named:
            continue
        node = leaf
        while node is not None and node != iid:
            node = parent_of[node]
        if node == iid:
            states.append(stored[leaf])
    if IntentState.FAILED in states:
        return IntentState.FAILED
    return min(states, key=progress.index)


def event_log_text(event_log):
    """``events.log`` as ``json.dumps(entry, sort_keys=True)`` per entry, with
    a message entry first spelled out as the dict it used to be logged as."""
    import json

    lines = []
    for entry in event_log:
        if entry["event"] == "message":
            msg = entry["message"]
            entry = {
                "time": entry["time"],
                "event": "message",
                "from": msg.sender,
                "to": msg.receiver,
                "mseq": msg.seq,
                "kind": msg.kind(),
                "body": repr(msg.body),
            }
        lines.append(json.dumps(entry, sort_keys=True) + "\n")
    return "".join(lines)


def mutables(value, seen=None):
    """Every mutable object reachable from ``value``: dicts, lists, sets,
    deques and objects that are not frozen dataclasses, and all they hold."""
    seen = set() if seen is None else seen
    if id(value) in seen or value is None or isinstance(
            value, (str, bytes, int, float, enum.Enum, type)):
        return
    seen.add(id(value))
    frozen = (isinstance(value, tuple) or dataclasses.is_dataclass(value)
              and value.__dataclass_params__.frozen)
    if not frozen:
        yield value
    if isinstance(value, dict):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset, deque)):
        children = list(value)
    else:
        # Slotted dataclasses (IntentNode) have no __dict__: walk their fields.
        children = list(getattr(value, "__dict__", {}).values())
        if dataclasses.is_dataclass(value):
            children += [getattr(value, f.name) for f in dataclasses.fields(value)]
    for child in children:
        yield from mutables(child, seen)


def reference_require(mapping, key, kind):
    """``scenario._require`` as it was before its fast path: every check
    spelled out, for a differential test of the fast one."""
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


def reference_parse_node_ref(value, context):
    """``scenario._parse_node_ref`` as it was before its fast path."""
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(isinstance(x, int) and not isinstance(x, bool) for x in value)
    ):
        raise ScenarioParseError(
            f"{context}: node reference must be [domain, local], got {value!r}"
        )
    return NodeId(value[0], value[1])
