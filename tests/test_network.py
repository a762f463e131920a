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

from .oracles import ranked_paths


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
        assert link.free_slots() == set(range(1, 9))

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
        assert g.free_slot_blocks([n1, n2]) == set(range(1, 9))

    def test_intersection(self):
        # link1 reserved {1,2} and link2 reserved {2,3}: free on both = {4..8}.
        g = make_graph()
        n1, n2, n3 = add_node(g, 1), add_node(g, 2), add_node(g, 3)
        l1 = g.add_fiber_link(n1, n2, 10.0)
        l2 = g.add_fiber_link(n2, n3, 10.0)
        g.reserve_spectrum(l1, 1, 2, "x")
        g.reserve_spectrum(l2, 2, 3, "y")
        assert g.free_slot_blocks([n1, n2, n3]) == {4, 5, 6, 7, 8}

    def test_single_node_full_grid(self):
        g = make_graph()
        n1 = add_node(g, 1)
        assert g.free_slot_blocks([n1]) == set(range(1, 9))

    def test_broken_path(self):
        g = make_graph()
        n1, n2 = add_node(g, 1), add_node(g, 2)
        with pytest.raises(BrokenPathError):
            g.free_slot_blocks([n1, n2])


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
    full = g.free_slot_blocks(path)
    for cut in range(2, len(path) + 1):
        assert full <= g.free_slot_blocks(path[:cut])


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
    late = data.draw(st.integers(min_value=0, max_value=5), label="late step")
    for step in range(6):
        went_down = False
        if step == late and missing:
            a, b = data.draw(st.sampled_from(missing), label="late fiber")
            g.add_fiber_link(a, b, 1.0)
        elif keys:
            link = g.fiber_links[data.draw(st.sampled_from(keys), label="flip")]
            g.set_link_operational(*link.endpoints, not link.operational)
            went_down = not link.operational
        cold = cold_copy(g)
        for (src, dst), k, exclude in queries:
            answer = g.k_shortest_paths(src, dst, k, exclude_links=exclude)
            assert answer == cold.k_shortest_paths(src, dst, k, exclude_links=exclude)
            if went_down:
                assert answer == ranked_paths(g, src, dst, k, exclude)
