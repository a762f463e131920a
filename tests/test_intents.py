import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibnsim.errors import (
    IllegalTransitionError,
    InvalidPayloadError,
    StillInstalledError,
    UnknownIntentError,
)
from ibnsim.intents import (
    ALLOWED_TRANSITIONS,
    ConnectivityIntent,
    IntentDAG,
    IntentId,
    IntentState,
    RouterPortIntent,
)
from ibnsim.network import NodeId

from .oracles import brute_aggregate

N1 = NodeId(1, 1)
N5 = NodeId(1, 5)

U = IntentState.UNCOMPILED
C = IntentState.COMPILED
I = IntentState.INSTALLED
F = IntentState.FAILED


def fresh_dag():
    return IntentDAG(domain=1)


class TestAddIntent:
    def test_starts_uncompiled(self):
        dag = fresh_dag()
        iid = dag.add_intent(ConnectivityIntent(N1, N5, 100))
        assert dag.state(iid) is U
        assert dag.children(iid) == []

    def test_invalid_payload(self):
        dag = fresh_dag()
        with pytest.raises(InvalidPayloadError):
            dag.add_intent(ConnectivityIntent(N1, N5, 0))
        with pytest.raises(InvalidPayloadError):
            dag.add_intent(ConnectivityIntent(N1, N1, 100))

    def test_distinct_identifiers(self):
        dag = fresh_dag()
        a = dag.add_intent(ConnectivityIntent(N1, N5, 100))
        b = dag.add_intent(ConnectivityIntent(N5, N1, 100))
        assert a != b
        assert a.num == 1 and b.num == 2


class TestAddChild:
    def test_edge_created(self):
        dag = fresh_dag()
        parent = dag.add_intent(ConnectivityIntent(N1, N5, 100))
        child = dag.add_child(parent, RouterPortIntent(N1, 100))
        assert dag.children(parent) == [child]
        assert dag.parent(child) == parent

    def test_unknown_parent(self):
        dag = fresh_dag()
        with pytest.raises(UnknownIntentError):
            dag.add_child(IntentId(1, 9), RouterPortIntent(N1, 100))


class TestTransition:
    def test_compile_edge(self):
        dag = fresh_dag()
        iid = dag.add_intent(ConnectivityIntent(N1, N5, 100))
        assert dag.transition(iid, C) is C

    def test_skipping_compilation_is_illegal(self):
        dag = fresh_dag()
        iid = dag.add_intent(ConnectivityIntent(N1, N5, 100))
        with pytest.raises(IllegalTransitionError):
            dag.transition(iid, I)

    def test_installed_to_failed(self):
        dag = fresh_dag()
        iid = dag.add_intent(ConnectivityIntent(N1, N5, 100))
        dag.transition(iid, C)
        dag.transition(iid, I)
        assert dag.transition(iid, F) is F

    def test_error_names_the_pair(self):
        dag = fresh_dag()
        iid = dag.add_intent(ConnectivityIntent(N1, N5, 100))
        with pytest.raises(IllegalTransitionError, match="uncompiled -> failed"):
            dag.transition(iid, F)


def family(states):
    """Parent with one leaf child per given state."""
    dag = fresh_dag()
    parent = dag.add_intent(ConnectivityIntent(N1, N5, 100))
    for state in states:
        child = dag.add_child(parent, RouterPortIntent(N1, 100))
        _force(dag, child, state)
    return dag, parent


def _force(dag, iid, state):
    # Walk legal edges to reach the requested state.
    route = {
        U: (),
        C: (C,),
        I: (C, I),
        F: (C, I, F),
    }[state]
    for step in route:
        dag.transition(iid, step)


class TestAggregateState:
    def test_all_installed(self):
        dag, parent = family([I, I])
        assert dag.aggregate_state(parent) is I

    def test_failure_dominates(self):
        dag, parent = family([I, F])
        assert dag.aggregate_state(parent) is F

    def test_minimum_of_children(self):
        # min(compiled, installed) under uncompiled < compiled < installed.
        dag, parent = family([C, I])
        assert dag.aggregate_state(parent) is C

    def test_leaf_reports_own_state(self):
        dag = fresh_dag()
        iid = dag.add_intent(ConnectivityIntent(N1, N5, 100))
        assert dag.aggregate_state(iid) is U

    def test_failed_grandchild_dominates(self):
        dag = fresh_dag()
        root = dag.add_intent(ConnectivityIntent(N1, N5, 100))
        mid = dag.add_child(root, ConnectivityIntent(N1, N5, 100))
        leaf = dag.add_child(mid, RouterPortIntent(N1, 100))
        _force(dag, leaf, F)
        assert dag.aggregate_state(root) is F


class TestRemoveIntent:
    def test_removes_subtree(self):
        dag = fresh_dag()
        root = dag.add_intent(ConnectivityIntent(N1, N5, 100))
        child = dag.add_child(root, RouterPortIntent(N1, 100))
        _force(dag, child, C)
        dag.transition(root, C)
        removed = dag.remove_intent(root)
        assert removed == {root, child}
        assert not dag.nodes

    def test_installed_refused(self):
        dag = fresh_dag()
        root = dag.add_intent(ConnectivityIntent(N1, N5, 100))
        child = dag.add_child(root, RouterPortIntent(N1, 100))
        _force(dag, child, I)
        with pytest.raises(StillInstalledError):
            dag.remove_intent(root)

    def test_refused_while_one_leaf_holds_under_an_uncompiled_aggregate(self):
        dag = fresh_dag()
        root = dag.add_intent(ConnectivityIntent(N1, N5, 100))
        _force(dag, dag.add_child(root, RouterPortIntent(N1, 100)), I)
        dag.add_child(root, RouterPortIntent(N5, 100))
        assert dag.aggregate_state(root) is U
        nodes = set(dag.nodes)
        with pytest.raises(StillInstalledError):
            dag.remove_intent(root)
        assert set(dag.nodes) == nodes

    def test_unknown_intent(self):
        dag = fresh_dag()
        with pytest.raises(UnknownIntentError):
            dag.remove_intent(IntentId(1, 9))


ACCESSORS = {
    "payload": lambda dag, iid: dag.payload(iid),
    "state": lambda dag, iid: dag.state(iid),
    "transition": lambda dag, iid: dag.transition(iid, C),
    "children": lambda dag, iid: dag.children(iid),
    "parent": lambda dag, iid: dag.parent(iid),
    "root": lambda dag, iid: dag.root(iid),
    "walk": lambda dag, iid: dag.walk(iid),
    "aggregate_state": lambda dag, iid: dag.aggregate_state(iid),
    "add_child": lambda dag, iid: dag.add_child(iid, RouterPortIntent(N1, 100)),
    "remove_intent": lambda dag, iid: dag.remove_intent(iid),
}


@pytest.mark.parametrize("gone", ["never-added", "removed"])
@pytest.mark.parametrize("accessor", sorted(ACCESSORS))
def test_every_accessor_refuses_an_unknown_id(accessor, gone):
    dag = fresh_dag()
    root = dag.add_intent(ConnectivityIntent(N1, N5, 100))
    child = dag.add_child(root, RouterPortIntent(N1, 100))
    if gone == "removed":
        dag.remove_intent(child)
        iid = child
    else:
        iid = IntentId(1, 99)
    before = (dict(dag.nodes), dag.children(root), set(dag.failed), dag._counter)
    with pytest.raises(UnknownIntentError, match=f"unknown intent {iid}"):
        ACCESSORS[accessor](dag, iid)
    assert (dict(dag.nodes), dag.children(root), set(dag.failed), dag._counter) == before


# -- properties ----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([U, C, I, F]), st.sampled_from([U, C, I, F])),
        min_size=1,
        max_size=50,
    )
)
def test_state_machine_soundness(attempts):
    """Replaying any accepted transition log only walks allowed edges."""
    dag = fresh_dag()
    iid = dag.add_intent(ConnectivityIntent(N1, N5, 100))
    for expected_from, to in attempts:
        current = dag.state(iid)
        if (current, to) in ALLOWED_TRANSITIONS:
            assert dag.transition(iid, to) is to
        else:
            with pytest.raises(IllegalTransitionError):
                dag.transition(iid, to)
            assert dag.state(iid) is current
        assert dag.state(iid) in (U, C, I, F)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([U, C, I, F]), min_size=1, max_size=8))
def test_aggregation_idempotent(states):
    dag, parent = family(states)
    first = dag.aggregate_state(parent)
    assert dag.aggregate_state(parent) is first


def test_aggregation_locality():
    """Changing one leaf only changes aggregates of its ancestors."""
    dag = fresh_dag()
    root_a = dag.add_intent(ConnectivityIntent(N1, N5, 100))
    root_b = dag.add_intent(ConnectivityIntent(N5, N1, 100))
    leaf_a = dag.add_child(root_a, RouterPortIntent(N1, 100))
    leaf_b = dag.add_child(root_b, RouterPortIntent(N5, 100))
    _force(dag, leaf_b, C)
    before = {iid: dag.aggregate_state(iid) for iid in dag.nodes}
    _force(dag, leaf_a, C)
    after = {iid: dag.aggregate_state(iid) for iid in dag.nodes}
    changed = {iid for iid in before if before[iid] != after[iid]}
    assert changed == {root_a, leaf_a}


TREE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["root", "child", "transition", "remove"]),
        st.integers(min_value=0, max_value=63),
        st.sampled_from([U, C, I, F]),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(TREE_OPS)
def test_tree_links_and_aggregate_match_a_parent_map(ops):
    """Random adds, leaf transitions and removals keep the tree linked both
    ways, with no dangling id, and ``aggregate_state`` equal to the oracle
    computed from a separately kept parent map."""
    dag = fresh_dag()
    parent_of = {}  # the model: id -> parent id or None
    stored = {}  # the model: id -> stored state
    for op, pick, to in ops:
        ids = sorted(parent_of)
        target = ids[pick % len(ids)] if ids else None
        if op == "root" or target is None:
            iid = dag.add_intent(ConnectivityIntent(N1, N5, 100))
            parent_of[iid], stored[iid] = None, U
        elif op == "child":
            iid = dag.add_child(target, RouterPortIntent(N1, 100))
            parent_of[iid], stored[iid] = target, U
        elif op == "transition":
            leaves = [i for i in ids if i not in parent_of.values()]
            leaf = leaves[pick % len(leaves)]
            if (stored[leaf], to) in ALLOWED_TRANSITIONS:
                assert dag.transition(leaf, to) is to
                stored[leaf] = to
            else:
                with pytest.raises(IllegalTransitionError):
                    dag.transition(leaf, to)
        else:
            below = {i for i in ids if target in _chain(parent_of, i)}
            leaves = below - set(parent_of.values())
            if any(stored[i] in (I, F) for i in leaves):
                with pytest.raises(StillInstalledError):
                    dag.remove_intent(target)
            else:
                assert dag.remove_intent(target) == below
                for i in below:
                    del parent_of[i], stored[i]

        assert set(dag.nodes) == set(parent_of)
        for iid, node in dag.nodes.items():
            assert node.parent == parent_of[iid]
            if node.parent is not None:
                assert node.parent in dag.nodes
                assert dag.nodes[node.parent].children.count(iid) == 1
            for child in node.children:
                assert child in dag.nodes and dag.nodes[child].parent == iid
            assert dag.aggregate_state(iid) is brute_aggregate(parent_of, stored, iid)


def _chain(parent_of, iid):
    chain = []
    while iid is not None:
        chain.append(iid)
        iid = parent_of[iid]
    return chain
