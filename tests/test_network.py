from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibnsim.errors import (
    BrokenPathError,
    DuplicateLinkError,
    DuplicateNodeError,
    UnknownNodeError,
)
from ibnsim.network import NetworkGraph, NodeId, OxcView, RouterView, link_key

from .oracles import eager_yen, free_slots, free_slots_on_path, path_length, ranked_paths


def make_graph(slot_count=8):
    return NetworkGraph(slot_count=slot_count)


def add_node(graph, local, domain=1):
    node = NodeId(domain, local)
    graph.add_node(RouterView(node, 4, 400), OxcView(node, 4))
    return node


class TestAddNode:
    def test_first_node(self):
        g = make_graph()
        add_node(g, 1)
        assert len(g.routers) == 1
        assert g.has_node(NodeId(1, 1))

    def test_duplicate_rejected(self):
        g = make_graph()
        n1 = add_node(g, 1)
        with pytest.raises(DuplicateNodeError):
            g.add_node(RouterView(n1, 2, 100), OxcView(n1, 2))

    def test_two_nodes_no_links(self):
        g = make_graph()
        add_node(g, 1)
        add_node(g, 2)
        assert len(g.routers) == 2
        assert not g.fiber_links


class TestAddFiberLink:
    def test_fresh_link_all_free(self):
        g = make_graph()
        n1, n2 = add_node(g, 1), add_node(g, 2)
        link = g.add_fiber_link(n1, n2, 100.0)
        assert len(g.fiber_links) == 1
        assert link.operational
        assert free_slots(link, g.slot_count) == set(range(1, 9))
        assert link.busy == 0

    def test_duplicate_link(self):
        g = make_graph()
        n1, n2 = add_node(g, 1), add_node(g, 2)
        g.add_fiber_link(n1, n2, 100.0)
        with pytest.raises(DuplicateLinkError):
            g.add_fiber_link(n2, n1, 100.0)

    def test_missing_endpoint(self):
        g = make_graph()
        n1 = add_node(g, 1)
        with pytest.raises(UnknownNodeError):
            g.add_fiber_link(n1, NodeId(1, 9), 50.0)

    def test_nonpositive_length(self):
        g = make_graph()
        n1, n2 = add_node(g, 1), add_node(g, 2)
        with pytest.raises(ValueError):
            g.add_fiber_link(n1, n2, 0.0)


class TestPathLength:
    def test_single_node_is_zero(self):
        g = make_graph()
        n1 = add_node(g, 1)
        assert g.path_length([n1]) == 0

    def test_sums_traversed_links(self):
        g = make_graph()
        n1, n2, n3 = add_node(g, 1), add_node(g, 2), add_node(g, 3)
        g.add_fiber_link(n1, n2, 100.0)
        g.add_fiber_link(n2, n3, 200.0)
        assert g.path_length([n1, n2, n3]) == 300.0

    def test_adds_left_to_right(self):
        # sum() of floats is compensated since CPython 3.12 and gives 0.6.
        g = make_graph()
        nodes = [add_node(g, i) for i in range(1, 5)]
        for a, b, km in zip(nodes, nodes[1:], (0.1, 0.2, 0.3)):
            g.add_fiber_link(a, b, km)
        assert g.path_length(nodes) == path_length(g, nodes) == (0.1 + 0.2) + 0.3

    def test_broken_path(self):
        g = make_graph()
        n1, n2, n3 = add_node(g, 1), add_node(g, 2), add_node(g, 3)
        g.add_fiber_link(n1, n2, 100.0)
        with pytest.raises(BrokenPathError):
            g.path_length([n1, n3])


def triangle():
    """A-B = 1 km, B-C = 1 km, A-C = 3 km."""
    g = make_graph()
    a, b, c = add_node(g, 1), add_node(g, 2), add_node(g, 3)
    g.add_fiber_link(a, b, 1.0)
    g.add_fiber_link(b, c, 1.0)
    g.add_fiber_link(a, c, 3.0)
    return g, a, b, c


class TestKShortestPaths:
    def test_triangle_ordering(self):
        g, a, b, c = triangle()
        # Oracle: exhaustive enumeration ranks [a,b,c] (2 km) before [a,c] (3 km).
        assert ranked_paths(g, a, c, 2) == [[a, b, c], [a, c]]
        assert g.k_shortest_paths(a, c, 2) == [[a, b, c], [a, c]]

    def test_disconnected_returns_empty(self):
        g = make_graph()
        n1, n2 = add_node(g, 1), add_node(g, 2)
        assert g.k_shortest_paths(n1, n2, 3) == []

    def test_single_link_single_path(self):
        g = make_graph()
        n1, n2 = add_node(g, 1), add_node(g, 2)
        g.add_fiber_link(n1, n2, 5.0)
        assert g.k_shortest_paths(n1, n2, 4) == [[n1, n2]]

    def test_skips_non_operational(self):
        g, a, b, c = triangle()
        g.set_link_operational(a, b, False)
        assert g.k_shortest_paths(a, c, 2) == [[a, c]]

    def test_exclude_links(self):
        g, a, b, c = triangle()
        assert g.k_shortest_paths(a, c, 2, exclude_links=[link_key(a, b)]) == [[a, c]]

    def test_mutating_an_answer_leaves_the_next_one(self):
        g, a, b, c = triangle()
        answer = g.k_shortest_paths(a, c, 2)
        answer[0].reverse()
        answer[1].append(b)
        answer.pop()
        assert g.k_shortest_paths(a, c, 2) == [[a, b, c], [a, c]]

    def test_src_equals_dst_rejected(self):
        g, a, b, c = triangle()
        with pytest.raises(ValueError):
            g.k_shortest_paths(a, a, 1)


class TestFreeSlotBlocks:
    def test_all_free(self):
        g = make_graph()
        n1, n2 = add_node(g, 1), add_node(g, 2)
        g.add_fiber_link(n1, n2, 100.0)
        assert free_slots_on_path(g, [n1, n2]) == set(range(1, 9))

    def test_intersection(self):
        # link1 reserved {1,2} and link2 reserved {2,3}: free on both = {4..8}.
        g = make_graph()
        n1, n2, n3 = add_node(g, 1), add_node(g, 2), add_node(g, 3)
        l1 = g.add_fiber_link(n1, n2, 10.0)
        l2 = g.add_fiber_link(n2, n3, 10.0)
        g.reserve_spectrum(l1, 1, 2, "x")
        g.reserve_spectrum(l2, 2, 3, "y")
        assert free_slots_on_path(g, [n1, n2, n3]) == {4, 5, 6, 7, 8}

    def test_single_node_full_grid(self):
        g = make_graph()
        n1 = add_node(g, 1)
        assert free_slots_on_path(g, [n1]) == set(range(1, 9))

    def test_broken_path(self):
        g = make_graph()
        n1, n2 = add_node(g, 1), add_node(g, 2)
        with pytest.raises(BrokenPathError):
            free_slots_on_path(g, [n1, n2])


# -- properties ----------------------------------------------------------------


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    g = NetworkGraph(slot_count=8)
    nodes = [add_node(g, i + 1) for i in range(n)]
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    for i, j in chosen:
        length = draw(
            st.floats(min_value=1.0, max_value=500.0, allow_nan=False)
        )
        g.add_fiber_link(nodes[i], nodes[j], length)
    return g, nodes


@settings(max_examples=60, deadline=None)
@given(random_graphs(), st.integers(min_value=1, max_value=4))
def test_ksp_prefix_property(graph_nodes, k):
    g, nodes = graph_nodes
    src, dst = nodes[0], nodes[-1]
    shorter = g.k_shortest_paths(src, dst, k)
    longer = g.k_shortest_paths(src, dst, k + 1)
    assert longer[: len(shorter)] == shorter


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_ksp_paths_loop_free_and_finite(graph_nodes):
    g, nodes = graph_nodes
    src, dst = nodes[0], nodes[-1]
    for path in g.k_shortest_paths(src, dst, 5):
        assert len(set(path)) == len(path)
        assert g.path_length(path) < float("inf")


@settings(max_examples=60, deadline=None)
@given(random_graphs(), st.data())
def test_free_slots_shrink_along_prefixes(graph_nodes, data):
    g, nodes = graph_nodes
    src, dst = nodes[0], nodes[-1]
    paths = g.k_shortest_paths(src, dst, 3)
    if not paths:
        return
    path = paths[-1]
    for link in g.path_links(path):
        for slot in set(data.draw(
            st.lists(st.integers(min_value=1, max_value=8), max_size=4)
        )):
            g.reserve_spectrum(link, slot, slot, "taken")
    full = free_slots_on_path(g, path)
    for cut in range(2, len(path) + 1):
        assert full <= free_slots_on_path(g, path[:cut])


def cold_copy(graph):
    """A new graph with the same nodes, fibers and operational flags."""
    cold = NetworkGraph(slot_count=graph.slot_count)
    for node in graph.routers:
        add_node(cold, node.local, node.domain)
    for link in graph.fiber_links.values():
        cold.add_fiber_link(*link.endpoints, link.length)
        if not link.operational:
            cold.set_link_operational(*link.endpoints, False)
    return cold


@settings(max_examples=80, deadline=None)
@given(random_graphs(), st.data())
def test_route_memo_answers_like_a_cold_graph(graph_nodes, data):
    # A few queries asked again after every link flip, and after one fiber
    # added late, must see the topology of that moment, not a memoized one.
    # The flips are undone in reverse order, so every down-set is revisited
    # after other flips, with the answers computed under it still memoized.
    g, nodes = graph_nodes
    keys = list(g.fiber_links)
    query = st.tuples(
        st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True),
        st.integers(min_value=1, max_value=4),
        st.lists(st.sampled_from(keys), max_size=2) if keys else st.just([]),
    )
    queries = data.draw(st.lists(query, min_size=1, max_size=3), label="queries")
    missing = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]
               if g.link_between(a, b) is None]
    flips = data.draw(st.lists(st.sampled_from(keys), max_size=3), label="flips") if keys else []
    walk = flips + flips[::-1]
    late = data.draw(st.integers(min_value=0, max_value=len(walk)), label="late step")
    for step in range(len(walk) + 1):
        went_down = False
        if step == late and missing:
            a, b = data.draw(st.sampled_from(missing), label="late fiber")
            g.add_fiber_link(a, b, 1.0)
        if step:
            link = g.fiber_links[walk[step - 1]]
            g.set_link_operational(*link.endpoints, not link.operational)
            went_down = not link.operational
        cold = cold_copy(g)
        for (src, dst), k, exclude in queries:
            answer = g.k_shortest_paths(src, dst, k, exclude_links=exclude)
            assert answer == cold.k_shortest_paths(src, dst, k, exclude_links=exclude)
            if went_down:
                assert answer == ranked_paths(g, src, dst, k, exclude)


@settings(max_examples=80, deadline=None)
@given(random_graphs(), st.data())
def test_path_memo_answers_like_a_cold_graph(graph_nodes, data):
    # The same paths are asked after every step, so each answer memoized
    # under one topology is read again under the next.  A path with a hop
    # that has no fiber raises on every call, and is asked again after the
    # fiber it lacks may have been added.
    g, nodes = graph_nodes
    path = st.lists(st.sampled_from(nodes), min_size=1, max_size=4)
    paths = data.draw(st.lists(path, min_size=1, max_size=4), label="paths")
    steps = data.draw(st.lists(st.sampled_from(["node", "fiber", "flip"]), max_size=4),
                      label="steps")
    for step in [None] + steps:
        if step == "node":
            nodes.append(add_node(g, len(nodes) + 1))
        elif step == "fiber":
            missing = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]
                       if g.link_between(a, b) is None]
            if missing:
                a, b = data.draw(st.sampled_from(missing), label="new fiber")
                g.add_fiber_link(a, b, data.draw(st.floats(0.1, 500.0), label="km"))
        elif step == "flip" and g.fiber_links:
            link = g.fiber_links[data.draw(st.sampled_from(list(g.fiber_links)), label="flip")]
            g.set_link_operational(*link.endpoints, not link.operational)
        cold = cold_copy(g)
        for p in paths:
            try:
                keys = [link.key for link in cold.path_links(p)]
            except BrokenPathError:
                for _ in range(2):
                    with pytest.raises(BrokenPathError):
                        g.path_links(p)
                    with pytest.raises(BrokenPathError):
                        g.path_length(p)
                continue
            for _ in range(2):
                links = g.path_links(p)
                assert [link.key for link in links] == keys
                assert all(g.fiber_links[link.key] is link for link in links)
                assert g.path_length(p) == cold.path_length(p) == path_length(g, p)


# -- A* spur searches ----------------------------------------------------------


def graph_with_fibers(fibers):
    """A graph on nodes 1.1 .. 1.n holding ``fibers``: (a, b, km) triples."""
    g = make_graph()
    n = max(max(a, b) for a, b, _ in fibers)
    nodes = {i: add_node(g, i) for i in range(1, n + 1)}
    for a, b, km in fibers:
        g.add_fiber_link(nodes[a], nodes[b], km)
    return g, nodes


def test_astar_keeps_dijkstra_order_on_a_rounded_tie():
    # 6-2-4-1 and 6-4-1 are both 1.2 km, but 0.1 + 1.1 == 1.2000000000000002:
    # with f = g + h, node 2's path pops after the tie at 1.2 and 6-4-1 wins.
    # Dijkstra, and the shrunk heuristic, settle 4 through 2 first.
    short = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5)]
    g, n = graph_with_fibers(
        [(a, b, 0.1) for a, b in short]
        + [(4, 6, 0.2), (1, 4, 1.0), (1, 5, 1.0), (1, 2, 60.0), (1, 3, 60.0), (1, 6, 60.0)]
    )
    assert g.k_shortest_paths(n[6], n[1], 1) == [[n[6], n[2], n[4], n[1]]]


TIE_LENGTHS = (0.1, 0.2, 0.3, 1.0, 1.1, 60.0, 84.3)


@st.composite
def tie_heavy_graphs(draw):
    """Dense graphs whose km sums tie often and round differently, with some
    fibers down, plus links and nodes to ban."""
    n = draw(st.integers(min_value=2, max_value=8))
    g = make_graph()
    nodes = [add_node(g, i + 1) for i in range(n)]
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = [pair for pair in possible if draw(st.integers(0, 3))]  # 3 in 4 get a fiber
    length = st.one_of(
        st.sampled_from(TIE_LENGTHS),
        st.integers(min_value=1, max_value=20).map(lambda tenths: round(tenths * 0.1, 1)),
    )
    for i, j in chosen:
        g.add_fiber_link(nodes[i], nodes[j], draw(length))
    keys = list(g.fiber_links)
    few_keys = st.lists(st.sampled_from(keys), unique=True, max_size=3) if keys else st.just([])
    for key in draw(few_keys):
        g.set_link_operational(*key, False)
    banned_links = frozenset(draw(few_keys))
    banned_nodes = frozenset(draw(st.lists(st.sampled_from(nodes), max_size=2)))
    return g, nodes, banned_links, banned_nodes


def position(g, node):
    return g._graph_index()[1][node]


def link_bits(g, keys):
    bits = 0
    for key in keys:
        bits |= g._bits[key]
    return bits


def node_bits(g, nodes):
    bits = 0
    for node in nodes:
        bits |= 1 << position(g, node)
    return bits


@settings(max_examples=400, deadline=None)
@given(tie_heavy_graphs())
def test_astar_spur_search_answers_like_dijkstra(graph):
    # Every (src, dst) pair, searched with the cached heuristic and with
    # h = 0, which is Dijkstra; a spur search never bans its own ends.
    g, nodes, banned_links, banned_nodes = graph
    zero = [0.0] * len(g.routers)
    banned = g._down | link_bits(g, banned_links)
    for dst in nodes:
        h = g._distances(position(g, dst))
        for src in nodes:
            if src == dst:
                continue
            blocked = node_bits(g, banned_nodes - {src, dst})
            ends = position(g, src), position(g, dst)
            assert (g._shortest_path(*ends, banned, blocked, h)
                    == g._shortest_path(*ends, banned, blocked, zero))


@settings(max_examples=400, deadline=None)
@given(tie_heavy_graphs(), st.data())
def test_astar_on_a_stale_tree_answers_like_dijkstra(graph, data):
    # A tree built before up to 3 more fibers went down is kept, and still
    # gives Dijkstra's answer on the graph that is left.
    g, nodes, banned_links, banned_nodes = graph
    trees = {dst: g._distances(position(g, dst)) for dst in nodes}
    up = [key for key, link in g.fiber_links.items() if link.operational]
    if up:
        for key in data.draw(st.lists(st.sampled_from(up), unique=True, max_size=3)):
            g.set_link_operational(*key, False)
    zero = [0.0] * len(g.routers)
    banned = g._down | link_bits(g, banned_links)
    for dst, h in trees.items():
        assert g._distances(position(g, dst)) is h
        for src in nodes:
            if src == dst:
                continue
            blocked = node_bits(g, banned_nodes - {src, dst})
            ends = position(g, src), position(g, dst)
            assert (g._shortest_path(*ends, banned, blocked, h)
                    == g._shortest_path(*ends, banned, blocked, zero))


@settings(max_examples=300, deadline=None)
@given(tie_heavy_graphs(), st.data())
def test_deferred_yen_answers_like_eager_yen(graph, data):
    # The same queries, asked again after every flip of a few fibers, give
    # exactly what running every spur search at once gives, in its order.
    g, nodes, banned_links, _ = graph
    if len(nodes) < 2:
        return
    keys = list(g.fiber_links)
    query = st.tuples(
        st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True),
        st.integers(min_value=1, max_value=6),
        st.lists(st.sampled_from(keys), unique=True, max_size=3) if keys else st.just([]),
    )
    queries = [((nodes[0], nodes[-1]), 6, sorted(banned_links))]
    queries += data.draw(st.lists(query, max_size=3), label="queries")
    flips = data.draw(st.lists(st.sampled_from(keys), max_size=4), label="flips") if keys else []
    for step in range(len(flips) + 1):
        if step:
            link = g.fiber_links[flips[step - 1]]
            g.set_link_operational(*link.endpoints, not link.operational)
        for (src, dst), k, exclude in queries:
            assert g.k_shortest_paths(src, dst, k, exclude) == eager_yen(g, src, dst, k, exclude)


def test_heuristic_falls_back_to_zero_beyond_the_rounding_margin():
    # 2 * (total fiber km) / (shortest fiber km) = 4e9, above the 2**29 the
    # tie-order argument allows: the search runs as plain Dijkstra.
    g, n = graph_with_fibers([(1, 2, 0.001), (2, 3, 1e6), (1, 3, 1e6)])
    assert g._distances(position(g, n[3])) == [0.0, 0.0, 0.0]
    assert g.k_shortest_paths(n[1], n[3], 3) == ranked_paths(g, n[1], n[3], 3)
    g, n = graph_with_fibers([(1, 2, 1.0), (2, 3, 1e6), (1, 3, 1e6)])
    assert g._distances(position(g, n[3]))[position(g, n[2])] > 0.0


def test_distances_are_kept_on_link_down_and_rebuilt_otherwise():
    # A cached tree that misses a node prunes every path through it, so a
    # new fiber or a fiber back up rebuilds it; a fiber going down leaves a
    # tree of a larger graph, still a lower bound, and keeps it.
    g, n = graph_with_fibers([(1, 2, 1.0), (2, 3, 1.0)])
    n4 = add_node(g, 4)
    assert g.k_shortest_paths(n[1], n4, 1) == []
    g.add_fiber_link(n[3], n4, 1.0)
    assert g.k_shortest_paths(n[1], n4, 1) == [[n[1], n[2], n[3], n4]]
    tree = g._distances(position(g, n[3]))
    g.set_link_operational(n[2], n[3], False)
    assert g.k_shortest_paths(n[1], n[3], 1) == []
    assert g._distances(position(g, n[3])) is tree
    assert g.k_shortest_paths(n4, n[1], 1) == []  # 1.1's tree now lacks 1.3 and 1.4
    g.set_link_operational(n[2], n[3], True)
    assert g.k_shortest_paths(n4, n[1], 1) == [[n4, n[3], n[2], n[1]]]
    assert g.k_shortest_paths(n[1], n[3], 1) == [[n[1], n[2], n[3]]]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: Yen ranks candidates by root + spur km, not by path_length",
)
def test_yen_breaks_equal_length_ties_on_the_node_sequence():
    # 1-2-3-5 and 1-4-3-5 are both 144.6 km by path_length, so 1-2-3-5 is
    # fifth.  Yen ranks 1-2-3-5 at root + spur = 0.3 + (84.3 + 60.0), which
    # is 144.60000000000002, and takes 1-4-3-5 instead.
    g, n = graph_with_fibers([
        (1, 3, 0.1), (1, 4, 84.3), (3, 4, 0.3), (1, 5, 0.1), (2, 3, 84.3),
        (1, 2, 0.3), (2, 4, 0.1), (3, 5, 60.0), (2, 5, 0.1),
    ])
    exclude = [link_key(n[1], n[3])]
    assert g.k_shortest_paths(n[1], n[5], 5, exclude) == ranked_paths(g, n[1], n[5], 5, exclude)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: Yen ranks candidates by root + spur km, not by path_length",
)
def test_ksp_prefix_property_on_a_near_tie():
    # 1-3-2-4 is 513.7977036117705 km and 1-2-3-4 is 513.7977036117707 km.
    # k=4 returns 1-2-3-4 fourth, yet k=5 ranks 1-3-2-4 before it, so the
    # four shortest paths depend on k.
    g, n = graph_with_fibers([
        (1, 2, 247.6223456860538), (2, 4, 1.6223456860537908),
        (1, 3, 247.1753579257168), (3, 4, 1.1753579257168099),
        (2, 3, 265.0), (1, 4, 1.0),
    ])
    shorter = g.k_shortest_paths(n[1], n[4], 4)
    assert g.k_shortest_paths(n[1], n[4], 5)[:4] == shorter


# -- lazy routes: the first path before any spur search -------------------------


ROUTE_TIES = (0.1, 0.2, 0.3, 0.7, 60.0, 84.3)


@st.composite
def tie_set_graphs(draw):
    """Small graphs whose fiber km come from ``ROUTE_TIES``, with a few
    fibers down."""
    n = draw(st.integers(min_value=2, max_value=7))
    g = make_graph()
    nodes = [add_node(g, i + 1) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 3)):  # 3 in 4 pairs get a fiber
                g.add_fiber_link(nodes[i], nodes[j], draw(st.sampled_from(ROUTE_TIES)))
    keys = list(g.fiber_links)
    if keys:
        for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=3)):
            g.set_link_operational(*key, False)
    return g, nodes


@settings(max_examples=300, deadline=None)
@given(tie_set_graphs(), st.data())
def test_lazy_routes_answer_like_eager_yen(graph, data):
    # Each query first pulls a prefix of ``routes`` (often the first path
    # alone, which leaves a first-only memo entry), then maybe asks in full.
    # Fibers flip between rounds, so first-only entries are read again
    # under other down sets before a full call extends them.
    g, nodes = graph
    keys = list(g.fiber_links)
    query = st.tuples(
        st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True),
        st.integers(min_value=1, max_value=6),
        st.lists(st.sampled_from(keys), unique=True, max_size=2) if keys else st.just([]),
    )
    queries = data.draw(st.lists(query, min_size=1, max_size=3), label="queries")
    flips = data.draw(st.lists(st.sampled_from(keys), max_size=4), label="flips") if keys else []
    for step in range(len(flips) + 1):
        if step:
            link = g.fiber_links[flips[step - 1]]
            g.set_link_operational(*link.endpoints, not link.operational)
        for (src, dst), k, exclude in queries:
            eager = eager_yen(g, src, dst, k, exclude)
            take = data.draw(st.integers(min_value=1, max_value=k + 1), label="take")
            assert list(islice(g.routes(src, dst, k, exclude), take)) == eager[:take]
            if data.draw(st.booleans(), label="then in full"):
                assert g.k_shortest_paths(src, dst, k, exclude) == eager
                assert list(g.routes(src, dst, k, exclude)) == eager


def test_first_path_is_certified_before_any_spur_search():
    # A*'s path 1-2-3 (2 km) is below its spur bounds, the least being
    # 1-3's 3 km shrunk by 2**-30: Yen yields it alone, before any spur
    # search, and resumes to the whole answer when asked for more.
    g, a, b, c = triangle()
    src, dst = position(g, a), position(g, c)
    search = g._yen(src, dst, 2, 0)
    assert next(search)[::2] == (((0, 1, 2),), False)
    assert next(search)[::2] == (((0, 1, 2), (0, 2)), True)
    assert next(g.routes(a, c, 2)) == [a, b, c]
    assert g.k_shortest_paths(a, c, 2) == [[a, b, c], [a, c]]


def test_tied_first_path_refuses_the_certificate():
    # A* finds 1-3-4 (0.3 + 0.2 = 0.5 km), but 1-2-3-4 (0.1 + 0.2 + 0.2) is
    # 0.5 km too and sorts first on the node sequence.  A's km is not below
    # the bound of its spur 1.1, so the first item is the whole answer.
    g, n = graph_with_fibers([(1, 2, 0.1), (1, 3, 0.3), (1, 4, 84.3), (2, 3, 0.2), (3, 4, 0.2)])
    src, dst = position(g, n[1]), position(g, n[4])
    assert g._shortest_path(src, dst, 0, 0, g._distances(dst)) == (0.5, (0, 2, 3))
    assert next(g._yen(src, dst, 2, 0))[2] is True
    eager = [[n[1], n[2], n[3], n[4]], [n[1], n[3], n[4]]]
    assert eager_yen(g, n[1], n[4], 2) == eager
    assert next(g.routes(n[1], n[4], 2)) == eager[0]
    assert list(g.routes(n[1], n[4], 2)) == g.k_shortest_paths(n[1], n[4], 2) == eager
