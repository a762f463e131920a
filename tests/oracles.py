"""Brute-force reference implementations used to verify derived test values.

Everything here is deliberately independent of the library's algorithms:
paths come from exhaustive DFS enumeration, spectrum blocks from scanning
every start index, and the compilation oracle from enumerating all feasible
(path, mode, slot) triples.
"""

from ibnsim.network import link_key


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
    return sum(
        graph.fiber_links[link_key(a, b)].length for a, b in zip(path, path[1:])
    )


def ranked_paths(graph, src, dst, k, exclude=()):
    """First k paths under (length, node-sequence) ordering."""
    paths = all_simple_paths(graph, src, dst, exclude)
    paths.sort(key=lambda p: (path_length(graph, p), tuple(p)))
    return paths[:k]


def free_slots_on_path(graph, path, treat_free=()):
    """Intersection of free slot sets over the path, slot indices 1-based."""
    free = set(range(1, graph.slot_count + 1))
    as_free = set(treat_free)
    for a, b in zip(path, path[1:]):
        link = graph.fiber_links[link_key(a, b)]
        free &= {
            slot
            for slot in range(1, graph.slot_count + 1)
            if link.slot_grid[slot - 1] is None or link.slot_grid[slot - 1] in as_free
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
    hold what it claims.  Returns a list of violation strings; empty means
    every no-overbooking, contiguity, continuity, and reach invariant holds.
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
        for key, link in graph.fiber_links.items():
            for slot, holder in enumerate(link.slot_grid, start=1):
                if holder is not None:
                    grid_cells[(key, slot)] = holder
        if grid_cells != claimed_cells:
            problems.append(f"domain {did}: slot grids and DAG lightpaths disagree")
        if graph.reserved_cells != len(grid_cells):
            problems.append(f"domain {did}: reserved_cells is not the held cell count")
        # Port accounting.
        for node, router in graph.routers.items():
            held = router.port_holders
            if held != claimed_ports.get(node, {}):
                problems.append(f"domain {did}: port holders and DAG disagree at {node}")
            if router.ports_used > router.port_count:
                problems.append(f"domain {did}: ports overbooked at {node}")
            if sum(held.values()) > router.port_count * router.port_rate:
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
                for slot in range(start, end + 1):
                    if link.holder(slot) != iid:
                        problems.append(
                            f"domain {did}: {iid} missing slot {slot} on {a}-{b}"
                        )
            if length > payload.mode.reach:
                problems.append(f"domain {did}: {iid} exceeds mode reach")
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
