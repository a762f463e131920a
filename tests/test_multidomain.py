from pathlib import Path

import pytest

from ibnsim import multidomain
from ibnsim.compilation import BlockReason, CompileOutcome, InstallOutcome, uninstall_intent
from ibnsim.errors import (
    LinkStateError,
    StillInstalledError,
    UnknownRemoteError,
    WrongStateError,
)
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
from ibnsim.scenario import parse_scenario
from ibnsim.simulation import POLICY_NONE, Simulation, monitor_failure, monitor_repair

from .builders import make_domain, make_domains, reserve, snapshot
from .oracles import (
    free_slots,
    link_state_problems,
    mirror_mismatches,
    notification_mismatches,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

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
            n for n in d2.dag.roots()
            if isinstance(d2.dag.payload(n), ConnectivityIntent)
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
        assert not any(ctrl.outbox for ctrl in domains.values())

    def test_unknown_local_destination_blocks_without_a_message(self):
        domains = two_domains()
        d1 = domains[1]
        iid = d1.dag.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(1, 99), 100))
        result = d1.compile(iid)
        assert result.outcome is CompileOutcome.BLOCKED
        assert result.reason is BlockReason.NO_PATH
        assert not d1.dag.children(iid)
        assert not any(ctrl.outbox for ctrl in domains.values())

    def test_owner_refuses_an_unknown_node_in_its_domain(self, monkeypatch):
        domains = two_domains()
        d1, d2 = domains[1], domains[2]
        verdicts = []

        def recording(domain, iid):
            result = compile_connectivity(domain, iid)
            verdicts.append((domain.id, result.outcome, result.reason))
            return result

        before = {did: snapshot(ctrl) for did, ctrl in domains.items()}
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(2, 99), 100))
        # Domain 1 cannot tell that 2.99 does not exist, so it delegates.
        assert d1.compile(iid).outcome is CompileOutcome.COMPILED
        compile_connectivity = multidomain.compile_connectivity
        monkeypatch.setattr(multidomain, "compile_connectivity", recording)
        deliver_messages(domains)
        assert verdicts == [(2, CompileOutcome.BLOCKED, BlockReason.NO_PATH)]
        assert d1.dag.aggregate_state(iid) is U
        assert {did: snapshot(ctrl) for did, ctrl in domains.items()} == before

        d1.remove(iid)
        deliver_messages(domains)
        assert d2.dag.nodes == {}

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
        d3_roots = d3.dag.roots()
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
        delegated = d2.dag.roots()
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
    assert d1.dag.aggregate_state(iid) is I
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
        assert d1.dag.aggregate_state(iid) is C
        deliver_messages(domains)
        assert snapshot(d1) == local_snapshot_before
        assert d1.dag.aggregate_state(iid) is C
        assert mirror_mismatches(domains) == []

    def test_reinstall_installed_is_wrong_state(self):
        domains = two_domains()
        iid = installed_crossdomain_intent(domains)
        with pytest.raises(WrongStateError):
            domains[1].install(iid)

    @pytest.mark.parametrize("victim, verdicts", [
        # D3 refuses: D2 rolls its own segment back and reports upstream.
        (3, [(1, 2, "installrequest"), (2, 3, "installrequest"),
             (3, 2, "statenotify"), (2, 1, "statenotify")]),
        # D2 refuses locally and never asks D3.
        (2, [(1, 2, "installrequest"), (2, 1, "statenotify")]),
    ])
    def test_depth_two_remote_conflict_rolls_back_every_level(self, victim, verdicts):
        domains = make_domains(
            sizes={1: 3, 2: 3, 3: 3},
            borders=[
                (NodeId(1, 3), NodeId(2, 1), 200.0),
                (NodeId(2, 3), NodeId(3, 1), 200.0),
            ],
        )
        d1 = domains[1]
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(3, 3), 100))
        d1.compile(iid)
        deliver_messages(domains)
        assert d1.dag.aggregate_state(iid) is C
        # Steal the victim domain's spectrum between compile and install.
        for a, b in [(1, 2), (2, 3)]:
            reserve(domains[victim], NodeId(victim, a), NodeId(victim, b), range(1, 9))
        assert d1.install(iid) is InstallOutcome.PENDING
        delivered = deliver_messages(domains)
        assert [(m.sender, m.receiver, m.kind()) for m in delivered] == verdicts
        assert d1.dag.aggregate_state(iid) is C
        for did, ctrl in domains.items():
            assert ctrl.graph.reserved_cells == (16 if did == victim else 0)
            assert ctrl.pending_installs == set()
            assert notification_mismatches(ctrl) == []
        assert mirror_mismatches(domains) == []


class TestTeardown:
    def test_uninstall_never_installed_is_wrong_state(self):
        domains = two_domains()
        d1 = domains[1]
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(2, 5), 100))
        d1.compile(iid)
        deliver_messages(domains)
        with pytest.raises(WrongStateError,
                           match=f"intent {iid} is compiled, expected installed/failed"):
            d1.uninstall(iid)

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

    def test_remove_while_installed_refuses_before_any_side_effect(self):
        doc = (SCENARIOS / "three_domain_line.json").read_text()
        domains = parse_scenario(doc).build_domains()
        d1 = domains[1]
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(3, 2), 100))
        d1.compile(iid)
        deliver_messages(domains)
        assert d1.install(iid) is InstallOutcome.PENDING
        deliver_messages(domains)
        assert d1.dag.aggregate_state(iid) is I

        def bookkeeping(ctrl):
            return (set(ctrl.dag.nodes), dict(ctrl.mirror_index), dict(ctrl.origins),
                    dict(ctrl.last_notified), set(ctrl.pending_installs))

        before = {did: bookkeeping(ctrl) for did, ctrl in domains.items()}
        with pytest.raises(StillInstalledError, match=f"intent {iid} is installed"):
            d1.remove(iid)
        assert not d1.outbox
        assert {did: bookkeeping(ctrl) for did, ctrl in domains.items()} == before
        assert deliver_messages(domains) == []

        d1.uninstall(iid)
        deliver_messages(domains)
        d1.remove(iid)
        deliver_messages(domains)
        for ctrl in domains.values():
            assert bookkeeping(ctrl) == (set(), {}, {}, {}, set())
            assert ctrl.graph.reserved_cells == 0

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
            assert free_slots(link, ctrl.graph.slot_count) == set(range(1, 9))


def installed_local_intent(domains):
    d1 = domains[1]
    iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(1, 3), 100))
    d1.compile(iid)
    assert d1.install(iid) is InstallOutcome.INSTALLED
    return iid


class TestWithdraw:
    def test_failed_local_root_releases_its_failed_leaves(self):
        domains = two_domains()
        d1 = domains[1]
        iid = installed_local_intent(domains)
        monitor_failure(domains, NodeId(1, 1), NodeId(1, 2), policy=POLICY_NONE)
        assert d1.dag.aggregate_state(iid) is IntentState.FAILED
        assert d1.dag.failed
        assert d1.withdraw(iid) is False
        assert not d1.dag.nodes and not d1.dag.failed
        assert d1.graph.reserved_cells == 0
        assert all(not router.port_holders for router in d1.graph.routers.values())
        assert all(not oxc.add_drop_holders for oxc in d1.graph.oxcs.values())
        assert not d1.outbox

    def test_crossdomain_root_asks_its_neighbor_and_keeps_its_nodes(self):
        domains = two_domains()
        d1, d2 = domains[1], domains[2]
        iid = installed_crossdomain_intent(domains)
        nodes = set(d1.dag.nodes)
        assert d1.withdraw(iid) is True
        assert [(m.receiver, m.kind()) for m in d1.outbox] == [(2, "uninstall")]
        assert set(d1.dag.nodes) == nodes
        assert d1.graph.reserved_cells == 0
        deliver_messages(domains)
        assert d2.graph.reserved_cells == 0
        assert d1.dag.aggregate_state(iid) is C
        d1.remove(iid)
        assert [m.kind() for m in deliver_messages(domains)] == ["remove"]
        for ctrl in domains.values():
            assert not ctrl.dag.nodes and not ctrl.origins and not ctrl.mirror_index

    def test_root_whose_mirror_holds_nothing_is_removed_at_once(self):
        domains = two_domains()
        d1, d2 = domains[1], domains[2]
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(2, 5), 100))
        d1.compile(iid)
        deliver_messages(domains)
        assert d1.dag.aggregate_state(iid) is C
        assert d1.withdraw(iid) is False
        assert not d1.dag.nodes and not d1.mirror_index
        assert [(m.receiver, m.kind()) for m in d1.outbox] == [(2, "remove")]
        deliver_messages(domains)
        assert not d2.dag.nodes and not d2.origins

    def test_remove_refuses_an_installed_intent_with_no_effect(self):
        domains = two_domains()
        d1 = domains[1]
        iid = installed_local_intent(domains)
        before = (snapshot(d1), set(d1.dag.nodes), set(d1.dag.failed))
        with pytest.raises(StillInstalledError, match=f"intent {iid} is installed"):
            d1.remove(iid)
        assert (snapshot(d1), set(d1.dag.nodes), set(d1.dag.failed)) == before
        assert not d1.outbox

    def test_uninstall_intent_refuses_when_no_local_leaf_holds(self):
        domains = two_domains()
        d1 = domains[1]
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(1, 3), 100))
        d1.compile(iid)
        before = (snapshot(d1), {n: node.state for n, node in d1.dag.nodes.items()})
        with pytest.raises(WrongStateError,
                           match=f"intent {iid} is compiled, expected installed/failed"):
            uninstall_intent(d1, iid)
        assert (snapshot(d1), {n: node.state for n, node in d1.dag.nodes.items()}) == before


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: intra-domain routing transits a foreign stub node",
)
def test_intra_domain_route_never_transits_a_foreign_stub():
    """Domain 1's nodes 1.1 and 1.2 share no fiber; each has a border fiber
    to domain 2's node 2.1.  Domain 1 owns no route between them, so it must
    block with no-path instead of booking a path through 2.1."""
    d1, d2 = make_domain(domain_id=1, nodes=2), make_domain(domain_id=2, nodes=1)
    stub = NodeId(2, 1)
    for local in (NodeId(1, 1), NodeId(1, 2)):
        d1.add_border_link(local, stub, 100.0)
        d2.add_border_link(stub, local, 100.0)
    iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(1, 2), 100))
    result = d1.compile(iid)
    assert not any(
        stub in d1.dag.payload(c).path
        for c in result.children
        if isinstance(d1.dag.payload(c), LightpathIntent)
    )
    assert result.outcome is CompileOutcome.BLOCKED
    assert result.reason is BlockReason.NO_PATH


@pytest.mark.xfail(
    strict=True,
    reason="route_domains ignores link state and compile_crossdomain tries "
           "one neighbor; the fix changes output, so it lands with a re-pin",
)
def test_crossdomain_compile_detours_around_a_down_border_fiber():
    """Borders 1-2, 1-3, 2-4, 3-4 and 3-5.  With fiber 1.1-2.1 down, domain
    1 still reaches 4.1 through domain 3, so the intent must not block."""
    domains = make_domains(
        sizes={did: 2 for did in range(1, 6)},
        borders=[
            (NodeId(a, i), NodeId(b, j), 80.0)
            for (a, i), (b, j) in [((1, 1), (2, 1)), ((1, 2), (3, 1)),
                                   ((2, 2), (4, 1)), ((3, 2), (4, 2)),
                                   ((3, 2), (5, 1))]
        ],
    )
    monitor_failure(domains, NodeId(1, 1), NodeId(2, 1))
    d1 = domains[1]
    iid = d1.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(4, 1), 100))
    result = d1.compile(iid)
    assert result.outcome is CompileOutcome.COMPILED, result.reason
    deliver_messages(domains)
    assert d1.dag.aggregate_state(iid) is C


class TestFailuresAcrossDomains:
    def test_remote_failure_recovers_autonomously(self):
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

    def test_border_source_remote_failure_without_backup_changes_nothing_local(self):
        from ibnsim.simulation import monitor_failure, monitor_repair

        domains = two_domains()
        d1 = domains[1]
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 3), NodeId(2, 5), 100))
        d1.compile(iid)
        deliver_messages(domains)
        assert d1.install(iid) is InstallOutcome.PENDING
        deliver_messages(domains)
        # The source sits on the border, so the local piece is a port.
        assert payload_kinds(d1, iid) == ["RemoteIntent", "RouterPortIntent"]
        assert d1.dag.aggregate_state(iid) is I
        before = snapshot(d1)
        assert monitor_failure(domains, NodeId(2, 1), NodeId(2, 2)) == 0
        deliver_messages(domains)
        assert d1.dag.aggregate_state(iid) is IntentState.FAILED
        assert snapshot(d1) == before
        assert mirror_mismatches(domains) == []
        # On repair domain 1 sees a failed root whose local port is fine;
        # only domain 2 rebuilds its piece.
        assert monitor_repair(domains, NodeId(2, 1), NodeId(2, 2)) == 1
        deliver_messages(domains)
        assert d1.dag.aggregate_state(iid) is I
        assert snapshot(d1) == before
        assert mirror_mismatches(domains) == []

    def test_repair_skips_a_domain_whose_only_failed_leaf_is_a_mirror(self, monkeypatch):
        from ibnsim import simulation

        domains = two_domains()
        d1 = domains[1]
        iid = installed_crossdomain_intent(domains)
        assert monitor_failure(domains, NodeId(2, 1), NodeId(2, 2)) == 0
        deliver_messages(domains)
        mirror, = (leaf for leaf in d1.dag.failed
                   if isinstance(d1.dag.payload(leaf), RemoteIntent))
        assert d1.dag.failed == {mirror}
        attempt, attempted = simulation._attempt_recovery, []

        def recorded(ctrl, piece):
            attempted.append(ctrl.id)
            return attempt(ctrl, piece)

        monkeypatch.setattr(simulation, "_attempt_recovery", recorded)
        before = snapshot(d1), {i: n.state for i, n in d1.dag.nodes.items()}
        # Domain 2 rebuilds its lightpath; domain 1 waits for the verdict.
        assert monitor_repair(domains, NodeId(2, 1), NodeId(2, 2)) == 1
        assert attempted == [2]
        assert (snapshot(d1), {i: n.state for i, n in d1.dag.nodes.items()}) == before
        assert not d1.outbox
        deliver_messages(domains)
        assert d1.dag.aggregate_state(iid) is I
        assert mirror_mismatches(domains) == []

    def test_shared_fiber_failure_notifies_in_delegated_id_order(self):
        from ibnsim.simulation import POLICY_NONE, monitor_failure

        # D1(n1..n3) -- n3~n1 -- D2(n1..n3), plus a 150 km D2 fiber n1-n3.
        domains = make_domains(sizes={1: 3, 2: 3}, borders=[(NodeId(1, 3), NodeId(2, 1), 300.0)])
        d1, d2 = domains[1], domains[2]
        d2.graph.add_fiber_link(NodeId(2, 1), NodeId(2, 3), 150.0)
        roots = []
        for dst in (NodeId(2, 3), NodeId(2, 2)):
            iid = d1.add_intent(ConnectivityIntent(NodeId(1, 3), dst, 100))
            d1.compile(iid)
            deliver_messages(domains)
            d1.install(iid)
            deliver_messages(domains)
            assert d1.dag.aggregate_state(iid) is I
            roots.append(iid)
        first, second = sorted(d2.dag.roots())
        # Moving the first delegated intent onto n1-n2-n3 gives it a newer
        # lightpath than the second one's on n1-n2, so holder order on
        # n1-n2 is the reverse of delegated-id order.
        assert monitor_failure(domains, NodeId(2, 1), NodeId(2, 3)) == 1
        deliver_messages(domains)
        lightpaths = [
            leaf for root in (first, second) for leaf, node in d2.dag.walk(root)
            if isinstance(node.payload, LightpathIntent)
        ]
        assert lightpaths == sorted(lightpaths, reverse=True)

        assert monitor_failure(domains, NodeId(2, 1), NodeId(2, 2), policy=POLICY_NONE) == 0
        notified = [
            msg.body.remote_id for msg in deliver_messages(domains)
            if isinstance(msg.body, StateNotify)
        ]
        assert notified == [first, second]
        for iid in roots:
            assert d1.dag.aggregate_state(iid) is IntentState.FAILED
        assert mirror_mismatches(domains) == []

    def test_local_segment_failure_recovers_without_touching_remote(self):
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
        monitor_failure(domains, NodeId(1, 3), NodeId(2, 1))
        d1 = domains[1]
        iid = d1.add_intent(ConnectivityIntent(NodeId(1, 2), NodeId(2, 3), 100))
        result = d1.compile(iid)
        assert result.outcome is CompileOutcome.COMPILED
        deliver_messages(domains)
        # Delegation entered through the surviving border node 2.5.
        delegated = domains[2].dag.roots()
        assert domains[2].dag.payload(delegated[0]).src == NodeId(2, 5)


def link_states(domains):
    """Each graph's down bits, fiber flags and bookings, copied."""
    return {did: (ctrl.graph._down, snapshot(ctrl),
                  {key: link.operational for key, link in ctrl.graph.fiber_links.items()})
            for did, ctrl in domains.items()}


class TestLinkStateAcrossDomains:
    """A border fiber lives in both neighbours' graphs.  The monitors set
    every copy without checking the others first, which is sound only
    while the copies agree."""

    def test_border_fiber_copies_agree_after_every_event(self):
        problems = []
        flips = []

        def audit(sim, event):
            if event.link is not None:
                flips.append(event.link)
            problems.extend((event.seq, p) for p in link_state_problems(sim.domains))

        doc = (SCENARIOS / "domain_ring.json").read_text()
        Simulation(parse_scenario(doc), on_event=audit).run()
        assert any(a.domain != b.domain for a, b in flips)
        assert problems == []

    @pytest.mark.parametrize("monitor", [monitor_failure, monitor_repair])
    def test_border_fiber_already_in_that_state_changes_neither_graph(self, monitor):
        domains = two_domains()
        border = (NodeId(1, 3), NodeId(2, 1))
        if monitor is monitor_failure:
            monitor_failure(domains, *border)
        before = link_states(domains)
        with pytest.raises(LinkStateError):
            monitor(domains, *border)
        assert link_states(domains) == before
        assert link_state_problems(domains) == []
