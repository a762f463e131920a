import pytest

from ibnsim.compilation import BlockReason, CompileOutcome, InstallOutcome
from ibnsim.errors import UnknownRemoteError, WrongStateError
from ibnsim.intents import (
    ConnectivityIntent,
    IntentId,
    IntentState,
    LightpathIntent,
    RemoteIntent,
    RouterPortIntent,
)
from ibnsim.multidomain import (
    StateNotify,
    Uninstall,
    deliver_messages,
    handle_message,
)
from ibnsim.network import NodeId

from .builders import make_domains, reserve, snapshot
from .oracles import mirror_mismatches

U = IntentState.UNCOMPILED
C = IntentState.COMPILED
I = IntentState.INSTALLED


def two_domains():
    """D1(n1..n3) -- border n3~n1 -- D2(n1..n5)."""
    return make_domains(
        sizes={1: 3, 2: 5},
        borders=[(NodeId(1, 3), NodeId(2, 1), 300.0)],
    )


def line_domains():
    """Three domains in a line: D1 - D2 - D3."""
    return make_domains(
        sizes={1: 2, 2: 3, 3: 2},
        borders=[
            (NodeId(1, 2), NodeId(2, 1), 200.0),
            (NodeId(2, 3), NodeId(3, 1), 200.0),
        ],
    )


def payload_kinds(ctrl, iid):
    return sorted(type(ctrl.dag.payload(c)).__name__ for c in ctrl.dag.children(iid))


class TestCompileCrossdomain:
    def test_two_domain_delegation(self):
        domains = two_domains()
        d1, d2 = domains[1], domains[2]
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(2, 5), 100))
        result = d1.compile(iid)
        assert result.outcome is CompileOutcome.COMPILED
        assert payload_kinds(d1, iid) == ["ConnectivityIntent", "RemoteIntent"]
        # Parent aggregate stays uncompiled until the neighbor confirms.
        assert d1.dag.aggregate_state(iid) is U
        deliver_messages(domains)
        assert d1.dag.aggregate_state(iid) is C
        delegated = [
            n for n, node in d2.dag.nodes.items()
            if isinstance(node.payload, ConnectivityIntent) and not d2.dag.parents(n)
        ]
        assert len(delegated) == 1
        remote_payload = d2.dag.payload(delegated[0])
        assert remote_payload.src == NodeId(2, 1)  # the remote border node
        assert remote_payload.dst == NodeId(2, 5)
        assert mirror_mismatches(domains) == []

    def test_unknown_destination_blocks(self):
        domains = two_domains()
        d1 = domains[1]
        iid = d1.dag.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(9, 9), 100))
        result = d1.compile(iid)
        assert result.outcome is CompileOutcome.BLOCKED
        assert result.reason is BlockReason.NO_PATH

    def test_unreachable_domain_blocks(self):
        domains = make_domains(sizes={1: 2, 9: 2}, borders=[])
        d1 = domains[1]
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(9, 1), 100))
        result = d1.compile(iid)
        assert result.outcome is CompileOutcome.BLOCKED
        assert result.reason is BlockReason.NO_PATH

    def test_three_domain_line_recursion(self):
        domains = line_domains()
        d1, d2, d3 = domains[1], domains[2], domains[3]
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(3, 2), 100))
        d1.compile(iid)
        deliver_messages(domains)
        assert d1.dag.aggregate_state(iid) is C
        # One mirror per delegation level.
        d1_mirrors = [
            n for n, node in d1.dag.nodes.items()
            if isinstance(node.payload, RemoteIntent)
        ]
        d2_mirrors = [
            n for n, node in d2.dag.nodes.items()
            if isinstance(node.payload, RemoteIntent)
        ]
        assert len(d1_mirrors) == 1 and len(d2_mirrors) == 1
        # D3 holds the final segment toward the destination.
        d3_roots = [n for n in d3.dag.nodes if not d3.dag.parents(n)]
        assert len(d3_roots) == 1
        assert d3.dag.payload(d3_roots[0]).dst == NodeId(3, 2)
        assert mirror_mismatches(domains) == []

    def test_source_on_border_node(self):
        domains = two_domains()
        d1 = domains[1]
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 3), NodeId(2, 5), 100))
        result = d1.compile(iid)
        assert result.outcome is CompileOutcome.COMPILED
        assert payload_kinds(d1, iid) == ["RemoteIntent", "RouterPortIntent"]
        deliver_messages(domains)
        assert d1.dag.aggregate_state(iid) is C

    def test_destination_on_border_node(self):
        domains = two_domains()
        d1, d2 = domains[1], domains[2]
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(2, 1), 100))
        d1.compile(iid)
        deliver_messages(domains)
        assert d1.dag.aggregate_state(iid) is C
        delegated = [n for n in d2.dag.nodes if not d2.dag.parents(n)]
        assert len(delegated) == 1
        assert isinstance(d2.dag.payload(delegated[0]), RouterPortIntent)


class TestDeliverMessages:
    def test_no_pending_is_noop(self):
        domains = two_domains()
        assert deliver_messages(domains) == []

    def test_delegate_produces_notify(self):
        domains = two_domains()
        d1 = domains[1]
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(2, 5), 100))
        d1.compile(iid)
        delivered = deliver_messages(domains)
        kinds = [m.kind() for m in delivered]
        assert kinds == ["delegate", "ack", "statenotify"]

    def test_per_sender_sequence_order(self):
        domains = two_domains()
        d1 = domains[1]
        for dst in (NodeId(2, 4), NodeId(2, 5)):
            iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), dst, 100))
            d1.compile(iid)
        delivered = deliver_messages(domains)
        for sender in (1, 2):
            seqs = [m.seq for m in delivered if m.sender == sender]
            assert seqs == sorted(seqs)
        assert mirror_mismatches(domains) == []


class TestHandleMessage:
    def test_state_notify_updates_mirror_and_parent(self):
        domains = two_domains()
        d1, d2 = domains[1], domains[2]
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(2, 5), 100))
        d1.compile(iid)
        deliver_messages(domains)
        mirror_id = next(
            n for n, node in d1.dag.nodes.items()
            if isinstance(node.payload, RemoteIntent)
        )
        assert d1.dag.state(mirror_id) is C
        # Remote side installs on request; mirror then reports installed.
        d1.install(iid)
        deliver_messages(domains)
        assert d1.dag.state(mirror_id) is I
        assert d1.dag.aggregate_state(iid) is I

    def test_infeasible_delegation_stays_uncompiled(self):
        domains = two_domains()
        d1, d2 = domains[1], domains[2]
        # Saturate the only remote link so the delegated piece cannot compile.
        reserve(d2, NodeId(2, 1), NodeId(2, 2), range(1, 9))
        reserve(d2, NodeId(2, 2), NodeId(2, 3), range(1, 9))
        reserve(d2, NodeId(2, 3), NodeId(2, 4), range(1, 9))
        reserve(d2, NodeId(2, 4), NodeId(2, 5), range(1, 9))
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(2, 5), 100))
        result = d1.compile(iid)
        assert result.outcome is CompileOutcome.COMPILED  # children emitted
        deliver_messages(domains)
        assert d1.dag.aggregate_state(iid) is U  # remote never compiled
        assert mirror_mismatches(domains) == []

    def test_uninstall_unknown_id_raises(self):
        domains = two_domains()
        d2 = domains[2]
        d2.send(1, Uninstall(IntentId(1, 99)))
        with pytest.raises(UnknownRemoteError):
            deliver_messages(domains)

    def test_notify_unknown_remote_raises(self):
        domains = two_domains()
        d2 = domains[2]
        d2.send(1, StateNotify(IntentId(2, 42), C))
        with pytest.raises(UnknownRemoteError):
            deliver_messages(domains)

    def test_wrong_receiver_rejected(self):
        domains = two_domains()
        d1 = domains[1]
        msg = d1.send(2, StateNotify(IntentId(1, 1), C))
        with pytest.raises(ValueError):
            handle_message(d1, msg)


def installed_crossdomain_intent(domains):
    d1 = domains[1]
    iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(2, 5), 100))
    d1.compile(iid)
    deliver_messages(domains)
    assert d1.install(iid) is InstallOutcome.PENDING
    deliver_messages(domains)
    assert d1.finalize_install(iid) is InstallOutcome.INSTALLED
    return iid


class TestInstallCrossdomain:
    def test_both_segments_install(self):
        domains = two_domains()
        iid = installed_crossdomain_intent(domains)
        d1, d2 = domains[1], domains[2]
        assert d1.dag.aggregate_state(iid) is I
        assert d1.graph.reserved_cells > 0
        assert d2.graph.reserved_cells > 0
        assert mirror_mismatches(domains) == []

    def test_remote_conflict_rolls_back_local(self):
        domains = two_domains()
        d1, d2 = domains[1], domains[2]
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(2, 5), 100))
        d1.compile(iid)
        deliver_messages(domains)
        # Steal the remote spectrum between compile and install.
        for a, b in [(1, 2), (2, 3), (3, 4), (4, 5)]:
            reserve(d2, NodeId(2, a), NodeId(2, b), range(1, 9))
        local_snapshot_before = snapshot(d1)
        assert d1.install(iid) is InstallOutcome.PENDING
        deliver_messages(domains)
        assert d1.finalize_install(iid) is InstallOutcome.CONFLICT
        deliver_messages(domains)
        assert snapshot(d1) == local_snapshot_before
        assert d1.dag.aggregate_state(iid) is C
        assert mirror_mismatches(domains) == []

    def test_reinstall_installed_is_wrong_state(self):
        domains = two_domains()
        iid = installed_crossdomain_intent(domains)
        with pytest.raises(WrongStateError):
            domains[1].install(iid)


class TestTeardown:
    def test_departure_cleans_both_domains(self):
        domains = two_domains()
        d1, d2 = domains[1], domains[2]
        iid = installed_crossdomain_intent(domains)
        d1.uninstall(iid)
        deliver_messages(domains)
        assert d1.dag.aggregate_state(iid) is C
        assert d1.graph.reserved_cells == 0
        assert d2.graph.reserved_cells == 0
        d1.remove(iid)
        deliver_messages(domains)
        assert iid not in d1.dag.nodes
        assert not d2.dag.nodes  # delegated intent withdrawn
        assert not d2.origins

    def test_knowledge_partition(self):
        domains = two_domains()
        for did, ctrl in domains.items():
            for key in ctrl.graph.fiber_links:
                assert any(end.domain == did for end in key)

    def test_border_fiber_carries_no_reservations(self):
        # Segments terminate at each side's border node, so the border
        # fiber's slots stay free on both mirror objects.
        domains = two_domains()
        installed_crossdomain_intent(domains)
        border = (NodeId(1, 3), NodeId(2, 1))
        for ctrl in domains.values():
            link = ctrl.graph.link_between(*border)
            assert link.free_slots() == set(range(1, 9))


class TestFailuresAcrossDomains:
    def test_remote_failure_recovers_autonomously(self):
        from ibnsim.simulation import monitor_failure

        domains = two_domains()
        d1, d2 = domains[1], domains[2]
        iid = installed_crossdomain_intent(domains)
        # Give the remote segment a detour so recovery is feasible.
        d2.graph.add_fiber_link(NodeId(2, 1), NodeId(2, 3), 350.0)
        recovered = monitor_failure(domains, NodeId(2, 1), NodeId(2, 2))
        deliver_messages(domains)
        assert recovered == 1
        assert d1.dag.aggregate_state(iid) is I
        mirror = next(
            node for node in d1.dag.nodes.values()
            if isinstance(node.payload, RemoteIntent)
        )
        assert mirror.state is I
        assert mirror_mismatches(domains) == []

    def test_remote_failure_without_backup_mirrors_failed(self):
        from ibnsim.simulation import monitor_failure

        domains = two_domains()
        d1 = domains[1]
        iid = installed_crossdomain_intent(domains)
        recovered = monitor_failure(domains, NodeId(2, 1), NodeId(2, 2))
        deliver_messages(domains)
        assert recovered == 0
        assert d1.dag.aggregate_state(iid) is IntentState.FAILED
        assert mirror_mismatches(domains) == []
        # Departure of the failed intent still tears everything down.
        d1.uninstall(iid)
        deliver_messages(domains)
        d1.remove(iid)
        deliver_messages(domains)
        for ctrl in domains.values():
            assert ctrl.graph.reserved_cells == 0
            assert not ctrl.dag.nodes

    def test_local_segment_failure_recovers_without_touching_remote(self):
        from ibnsim.simulation import monitor_failure

        domains = two_domains()
        d1, d2 = domains[1], domains[2]
        iid = installed_crossdomain_intent(domains)
        remote_before = snapshot(d2)
        d1.graph.add_fiber_link(NodeId(1, 1), NodeId(1, 3), 350.0)
        recovered = monitor_failure(domains, NodeId(1, 1), NodeId(1, 2))
        deliver_messages(domains)
        assert recovered == 1
        assert d1.dag.aggregate_state(iid) is I
        assert snapshot(d2) == remote_before

    def test_border_link_down_falls_back_to_second_border(self):
        domains = make_domains(
            sizes={1: 3, 2: 5},
            borders=[
                (NodeId(1, 3), NodeId(2, 1), 300.0),
                (NodeId(1, 1), NodeId(2, 5), 400.0),
            ],
        )
        from ibnsim.simulation import monitor_failure

        monitor_failure(domains, NodeId(1, 3), NodeId(2, 1))
        d1 = domains[1]
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 2), NodeId(2, 3), 100))
        result = d1.compile(iid)
        assert result.outcome is CompileOutcome.COMPILED
        deliver_messages(domains)
        # Delegation entered through the surviving border node 2.5.
        delegated = [n for n in domains[2].dag.nodes if not domains[2].dag.parents(n)]
        assert domains[2].dag.payload(delegated[0]).src == NodeId(2, 5)
