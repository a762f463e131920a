import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibnsim.compilation import (
    BlockReason,
    _plan,
    CompileOutcome,
    InstallOutcome,
    compile_connectivity,
    compile_probe,
    first_fit_spectrum,
    install_intent,
    select_mode,
    uninstall_intent,
)
from ibnsim.errors import (
    BookingConflictError,
    NotLocalSourceError,
    UnknownIntentError,
    WrongStateError,
)
from ibnsim.export import export_topology
from ibnsim.intents import ConnectivityIntent, IntentId, IntentState, LightpathIntent
from ibnsim.network import DEFAULT_MODE_TABLE, NodeId, TransmissionMode, link_key

from .builders import chain, make_domain, reserve, snapshot
from .oracles import (
    brute_first_fit,
    holder_mask_problems,
    oracle_compile,
    reference_plan,
    slot_grid,
)


class TestSelectMode:
    def test_long_distance_needs_long_reach(self):
        # Oracle: linear scan of the default table leaves only the 100G entry
        # feasible at 4000 km.
        mode = select_mode(DEFAULT_MODE_TABLE, 100, 4000)
        assert mode == TransmissionMode(100, 5000.0, 4)

    def test_rate_beyond_reach_is_none(self):
        assert select_mode(DEFAULT_MODE_TABLE, 400, 1000) is None

    def test_zero_distance_prefers_fewest_slots(self):
        mode = select_mode(DEFAULT_MODE_TABLE, 100, 0)
        assert mode.slots_needed == min(m.slots_needed for m in DEFAULT_MODE_TABLE)

    def test_tie_breaks_on_lower_rate_then_position(self):
        table = (
            TransmissionMode(200, 1000.0, 4),
            TransmissionMode(100, 1000.0, 4),
            TransmissionMode(100, 2000.0, 4),
        )
        assert select_mode(table, 100, 500) == table[1]


class TestFirstFitSpectrum:
    def test_skips_busy_prefix(self):
        ctrl = make_domain(nodes=3)
        chain(ctrl, [10.0, 10.0])
        n1, n2, n3 = (NodeId(1, i) for i in (1, 2, 3))
        reserve(ctrl, n1, n2, [1, 2, 3, 4])
        reserve(ctrl, n2, n3, [3, 4, 5, 6])
        expected = brute_first_fit(ctrl.graph, [n1, n2, n3], 2)
        assert expected == (7, 8)
        assert first_fit_spectrum(ctrl.graph, [n1, n2, n3], 2) == (7, 8)

    def test_empty_grid_starts_at_one(self):
        ctrl = make_domain(nodes=2)
        chain(ctrl, [10.0])
        assert first_fit_spectrum(ctrl.graph, [NodeId(1, 1), NodeId(1, 2)], 4) == (1, 4)

    def test_full_link_is_none(self):
        ctrl = make_domain(nodes=2)
        chain(ctrl, [10.0])
        reserve(ctrl, NodeId(1, 1), NodeId(1, 2), range(1, 9))
        assert first_fit_spectrum(ctrl.graph, [NodeId(1, 1), NodeId(1, 2)], 1) is None


HOLDERS = ("h0", "h1", "h2", "h3")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_first_fit_matches_brute_force(data):
    # Grids up to 330 slots cover the 320-slot mesh and masks wider than
    # 64 bits; a width of slot_count + 1 never fits.
    slot_count = data.draw(st.integers(min_value=1, max_value=330), label="slot_count")
    hops = data.draw(st.integers(min_value=1, max_value=3), label="hops")
    ctrl = make_domain(nodes=hops + 1, slot_count=slot_count)
    chain(ctrl, [10.0] * hops)
    graph = ctrl.graph
    slots = st.integers(min_value=1, max_value=slot_count)
    for link in graph.fiber_links.values():
        runs = data.draw(st.lists(st.tuples(slots, slots, st.sampled_from(HOLDERS)),
                                  max_size=8), label="runs")
        held = set()
        for first, last, holder in runs:
            for slot in range(min(first, last), max(first, last) + 1):
                if slot not in held:
                    graph.reserve_spectrum(link, slot, slot, holder)
                    held.add(slot)
    width = data.draw(st.integers(min_value=1, max_value=slot_count + 1), label="width")
    as_free = data.draw(st.sets(st.sampled_from(HOLDERS)), label="as_free")
    path = [NodeId(1, i) for i in range(1, hops + 2)]
    assert first_fit_spectrum(graph, path, width, as_free) == brute_first_fit(
        graph, path, width, treat_free=as_free
    )


# Short ties, and fibers long enough that 400G (600 km) or every mode fails.
PLAN_KM = (0.1, 0.3, 60.0, 84.3, 700.0, 2000.0)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_plan_answers_like_the_eager_reference_plan(data):
    # ``_plan`` pulls paths lazily; the reference takes the whole list
    # first.  Same (path, mode, block), or the same first BlockReason, over
    # random bookings, rates, as_free sets, exclusions and link flips.
    n = data.draw(st.integers(min_value=3, max_value=6), label="nodes")
    ctrl = make_domain(nodes=n, ports=2, k_paths=data.draw(st.integers(1, 4), label="k"))
    graph = ctrl.graph
    nodes = [NodeId(1, i) for i in range(1, n + 1)]
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if data.draw(st.integers(0, 3), label="fiber?"):
                graph.add_fiber_link(a, b, data.draw(st.sampled_from(PLAN_KM), label="km"))
    keys = list(graph.fiber_links)
    if not keys:
        return
    holders = st.sampled_from("abc")
    slots = st.integers(min_value=1, max_value=graph.slot_count)
    for _ in range(data.draw(st.integers(0, 12), label="bookings")):
        link = graph.fiber_links[data.draw(st.sampled_from(keys), label="booked fiber")]
        start, end = sorted(data.draw(st.tuples(slots, slots), label="slots"))
        try:
            graph.reserve_spectrum(link, start, end, data.draw(holders, label="holder"))
        except BookingConflictError:
            pass
    for _ in range(data.draw(st.integers(0, 3), label="ports")):
        try:
            graph.reserve_port(data.draw(st.sampled_from(nodes), label="port node"),
                               data.draw(holders, label="port holder"), 100)
        except BookingConflictError:
            pass
    for _ in range(data.draw(st.integers(1, 4), label="rounds")):
        for key in data.draw(st.lists(st.sampled_from(keys), max_size=2), label="flips"):
            graph.set_link_operational(*key, not graph.fiber_links[key].operational)
        src, dst = data.draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2,
                                      unique=True), label="ends")
        rate = data.draw(st.sampled_from([100, 200, 300, 400]), label="rate")
        excluded = data.draw(st.lists(st.sampled_from(keys), max_size=2), label="excluded")
        as_free = frozenset(data.draw(st.sets(holders), label="as_free"))
        args = (ctrl, src, dst, rate, excluded, as_free)
        if data.draw(st.booleans(), label="lazy first"):
            assert _plan(*args) == reference_plan(*args)
        else:
            assert reference_plan(*args) == _plan(*args)


class TestCompileConnectivity:
    def test_two_node_domain(self):
        ctrl = make_domain(nodes=2)
        chain(ctrl, [100.0])
        iid = ctrl.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(1, 2), 100))
        result = compile_connectivity(ctrl, iid)
        assert result.outcome is CompileOutcome.COMPILED
        kinds = sorted(type(ctrl.dag.payload(c)).__name__ for c in result.children)
        assert kinds == ["LightpathIntent", "RouterPortIntent", "RouterPortIntent"]
        lightpath = next(
            ctrl.dag.payload(c)
            for c in result.children
            if isinstance(ctrl.dag.payload(c), LightpathIntent)
        )
        assert lightpath.path == (NodeId(1, 1), NodeId(1, 2))
        assert lightpath.mode == TransmissionMode(100, 5000.0, 4)
        assert lightpath.slot_range == (1, 4)
        assert ctrl.dag.aggregate_state(iid) is IntentState.COMPILED

    def test_non_operational_link_blocks(self):
        ctrl = make_domain(nodes=2)
        chain(ctrl, [100.0])
        ctrl.graph.set_link_operational(NodeId(1, 1), NodeId(1, 2), False)
        iid = ctrl.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(1, 2), 100))
        result = compile_connectivity(ctrl, iid)
        assert result.outcome is CompileOutcome.BLOCKED
        assert result.reason is BlockReason.NO_PATH
        assert ctrl.dag.state(iid) is IntentState.UNCOMPILED

    def test_saturated_short_path_takes_longer_one(self):
        ctrl = make_domain(nodes=3)
        n1, n2, n3 = (NodeId(1, i) for i in (1, 2, 3))
        ctrl.graph.add_fiber_link(n1, n2, 1.0)
        ctrl.graph.add_fiber_link(n2, n3, 1.0)
        ctrl.graph.add_fiber_link(n1, n3, 3.0)
        reserve(ctrl, n1, n2, range(1, 9))
        iid = ctrl.add_intent(ConnectivityIntent(n1, n3, 100))
        result = compile_connectivity(ctrl, iid)
        assert result.outcome is CompileOutcome.COMPILED
        lightpath = next(
            ctrl.dag.payload(c)
            for c in result.children
            if isinstance(ctrl.dag.payload(c), LightpathIntent)
        )
        # Exhaustive enumeration agrees the only feasible choice is the
        # direct 3 km path.
        oracle = oracle_compile(
            ctrl.graph, ctrl.config.mode_table, n1, n3, 100, ctrl.config.k_paths
        )
        assert oracle is not None
        assert tuple(oracle[0]) == (n1, n3)
        assert lightpath.path == tuple(oracle[0])
        assert lightpath.slot_range == oracle[2]

    def test_no_mode_reported(self):
        ctrl = make_domain(nodes=2)
        chain(ctrl, [1000.0])
        iid = ctrl.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(1, 2), 400))
        result = compile_connectivity(ctrl, iid)
        assert result.outcome is CompileOutcome.BLOCKED
        assert result.reason is BlockReason.NO_MODE

    def test_no_spectrum_reported(self):
        ctrl = make_domain(nodes=2)
        chain(ctrl, [100.0])
        reserve(ctrl, NodeId(1, 1), NodeId(1, 2), range(1, 9))
        iid = ctrl.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(1, 2), 100))
        result = compile_connectivity(ctrl, iid)
        assert result.reason is BlockReason.NO_SPECTRUM

    def test_no_port_reported(self):
        ctrl = make_domain(nodes=2, ports=0)
        chain(ctrl, [100.0])
        iid = ctrl.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(1, 2), 100))
        result = compile_connectivity(ctrl, iid)
        assert result.reason is BlockReason.NO_PORT

    def test_unknown_intent(self):
        ctrl = make_domain(nodes=2)
        with pytest.raises(UnknownIntentError):
            compile_connectivity(ctrl, IntentId(1, 9))

    def test_wrong_state(self):
        ctrl = make_domain(nodes=2)
        chain(ctrl, [100.0])
        iid = ctrl.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(1, 2), 100))
        compile_connectivity(ctrl, iid)
        with pytest.raises(WrongStateError):
            compile_connectivity(ctrl, iid)

    def test_failed_intent_is_wrong_state(self):
        ctrl = make_domain(nodes=2)
        chain(ctrl, [100.0])
        iid = compiled_intent(ctrl, NodeId(1, 1), NodeId(1, 2))
        install_intent(ctrl, iid)
        lightpath = next(
            c for c in ctrl.dag.children(iid)
            if isinstance(ctrl.dag.payload(c), LightpathIntent)
        )
        ctrl.dag.transition(lightpath, IntentState.FAILED)
        before = snapshot(ctrl)
        with pytest.raises(WrongStateError, match="failed, expected uncompiled"):
            compile_connectivity(ctrl, iid)
        assert snapshot(ctrl) == before
        assert ctrl.dag.aggregate_state(iid) is IntentState.FAILED

    def test_not_local_source(self):
        ctrl = make_domain(nodes=2)
        chain(ctrl, [100.0])
        iid = ctrl.dag.add_intent(ConnectivityIntent(NodeId(2, 7), NodeId(1, 2), 100))
        with pytest.raises(NotLocalSourceError):
            compile_connectivity(ctrl, iid)

    def test_unknown_local_source_is_not_local(self):
        # 1.99 names domain 1, but domain 1 holds no such node.
        ctrl = make_domain(nodes=2)
        chain(ctrl, [100.0])
        iid = ctrl.dag.add_intent(ConnectivityIntent(NodeId(1, 99), NodeId(1, 2), 100))
        with pytest.raises(NotLocalSourceError):
            compile_connectivity(ctrl, iid)


def compiled_intent(ctrl, src, dst, rate=100):
    iid = ctrl.add_intent(ConnectivityIntent(src, dst, rate))
    result = compile_connectivity(ctrl, iid)
    assert result.outcome is CompileOutcome.COMPILED
    return iid


class TestInstallIntent:
    def test_fresh_install_marks_slots(self):
        ctrl = make_domain(nodes=2)
        chain(ctrl, [100.0])
        iid = compiled_intent(ctrl, NodeId(1, 1), NodeId(1, 2))
        assert install_intent(ctrl, iid) is InstallOutcome.INSTALLED
        assert ctrl.dag.aggregate_state(iid) is IntentState.INSTALLED
        lightpath_id = next(
            c
            for c in ctrl.dag.children(iid)
            if isinstance(ctrl.dag.payload(c), LightpathIntent)
        )
        link = ctrl.graph.link_between(NodeId(1, 1), NodeId(1, 2))
        assert slot_grid(link, ctrl.graph.slot_count)[:4] == [lightpath_id] * 4
        assert ctrl.graph.routers[NodeId(1, 1)].ports_used == 1
        assert ctrl.graph.oxcs[NodeId(1, 1)].add_drop_used == 1
        assert export_topology({1: ctrl})["domains"][0]["virtual_links"] == [
            {"a": "1.1", "b": "1.2", "capacity": 100, "lightpath": str(lightpath_id)}
        ]

    def test_second_intent_conflicts_on_last_block(self):
        # Ledger replay by hand: grid 8 with slots 1..4 seeded leaves one
        # 4-slot block; the first install takes it, the second must conflict.
        ctrl = make_domain(nodes=2)
        chain(ctrl, [100.0])
        reserve(ctrl, NodeId(1, 1), NodeId(1, 2), [1, 2, 3, 4])
        first = compiled_intent(ctrl, NodeId(1, 1), NodeId(1, 2))
        second = compiled_intent(ctrl, NodeId(1, 1), NodeId(1, 2))
        lp = next(
            ctrl.dag.payload(c)
            for c in (ctrl.dag.children(second))
            if isinstance(ctrl.dag.payload(c), LightpathIntent)
        )
        assert lp.slot_range == (5, 8)  # both compiled against the same block
        assert install_intent(ctrl, first) is InstallOutcome.INSTALLED
        before = snapshot(ctrl)
        assert install_intent(ctrl, second) is InstallOutcome.CONFLICT
        assert snapshot(ctrl) == before
        assert ctrl.dag.aggregate_state(second) is IntentState.COMPILED

    def test_round_trip_restores_ledger(self):
        ctrl = make_domain(nodes=2)
        chain(ctrl, [100.0])
        iid = compiled_intent(ctrl, NodeId(1, 1), NodeId(1, 2))
        install_intent(ctrl, iid)
        first = snapshot(ctrl)
        uninstall_intent(ctrl, iid)
        install_intent(ctrl, iid)
        assert snapshot(ctrl) == first

    def test_wrong_state(self):
        ctrl = make_domain(nodes=2)
        chain(ctrl, [100.0])
        iid = ctrl.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(1, 2), 100))
        with pytest.raises(WrongStateError):
            install_intent(ctrl, iid)

    def test_port_exhaustion_conflicts(self):
        ctrl = make_domain(nodes=2, ports=1)
        chain(ctrl, [100.0])
        a = compiled_intent(ctrl, NodeId(1, 1), NodeId(1, 2))
        b = compiled_intent(ctrl, NodeId(1, 1), NodeId(1, 2))
        assert install_intent(ctrl, a) is InstallOutcome.INSTALLED
        assert install_intent(ctrl, b) is InstallOutcome.CONFLICT


class TestCompileProbe:
    @pytest.mark.parametrize("ports, add_drop", [(1, 4), (4, 1)])
    def test_held_terminations_count_as_free(self, ports, add_drop):
        # One installed intent uses the only port or the only add/drop
        # termination at each end; a 16-slot grid leaves spectrum to spare.
        ctrl = make_domain(nodes=2, slot_count=16, ports=ports, add_drop=add_drop)
        chain(ctrl, [100.0])
        iid = compiled_intent(ctrl, NodeId(1, 1), NodeId(1, 2))
        assert install_intent(ctrl, iid) is InstallOutcome.INSTALLED
        held = ctrl.dag.leaves_under(iid)
        assert not compile_probe(ctrl, NodeId(1, 1), NodeId(1, 2), 100)
        assert compile_probe(ctrl, NodeId(1, 1), NodeId(1, 2), 100, as_free=held)


class TestUninstallIntent:
    def test_restores_pre_install_snapshot(self):
        ctrl = make_domain(nodes=2)
        chain(ctrl, [100.0])
        iid = compiled_intent(ctrl, NodeId(1, 1), NodeId(1, 2))
        before = snapshot(ctrl)
        install_intent(ctrl, iid)
        uninstall_intent(ctrl, iid)
        assert snapshot(ctrl) == before
        assert export_topology({1: ctrl})["domains"][0]["virtual_links"] == []
        assert ctrl.graph.oxcs[NodeId(1, 1)].add_drop_used == 0

    def test_uncompiled_is_wrong_state(self):
        ctrl = make_domain(nodes=2)
        chain(ctrl, [100.0])
        iid = ctrl.add_intent(ConnectivityIntent(NodeId(1, 1), NodeId(1, 2), 100))
        with pytest.raises(WrongStateError):
            uninstall_intent(ctrl, iid)

    def test_failed_intent_releases_resources(self):
        ctrl = make_domain(nodes=2)
        chain(ctrl, [100.0])
        iid = compiled_intent(ctrl, NodeId(1, 1), NodeId(1, 2))
        install_intent(ctrl, iid)
        lightpath_id = next(
            c
            for c in ctrl.dag.children(iid)
            if isinstance(ctrl.dag.payload(c), LightpathIntent)
        )
        ctrl.dag.transition(lightpath_id, IntentState.FAILED)
        assert ctrl.dag.aggregate_state(iid) is IntentState.FAILED
        uninstall_intent(ctrl, iid)
        assert ctrl.graph.reserved_cells == 0
        assert ctrl.dag.aggregate_state(iid) is IntentState.COMPILED


class TestBooking:
    def test_reserve_release_restores_grid(self):
        ctrl, graph, link = self.single_link()
        n1, n2 = NodeId(1, 1), NodeId(1, 2)
        before = snapshot(ctrl)
        graph.reserve_spectrum(link, 3, 6, "intent-x")
        assert slot_grid(link, graph.slot_count) == [None] * 2 + ["intent-x"] * 4 + [None] * 2
        assert graph.reserved_cells == 4
        graph.release_spectrum(link, 3, 6, "intent-x")
        assert snapshot(ctrl) == before
        graph.reserve_port(n1, "port-x", 100)
        graph.reserve_lightpath((n1, n2), (1, 4), "lp-x")
        assert graph.routers[n1].port_holders == {"port-x": 100}
        assert graph.oxcs[n1].add_drop_holders == graph.oxcs[n2].add_drop_holders == {"lp-x"}
        assert graph.reserved_cells == 4
        graph.release_port(n1, "port-x")
        graph.release_lightpath((n1, n2), (1, 4), "lp-x")
        assert snapshot(ctrl) == before

    def test_double_reserve_rejected(self):
        ctrl, graph, link = self.single_link()
        graph.reserve_spectrum(link, 1, 4, "a")
        before = snapshot(ctrl)
        with pytest.raises(BookingConflictError):
            graph.reserve_spectrum(link, 4, 5, "b")
        # A lightpath over a held slot books neither slots nor terminations.
        with pytest.raises(BookingConflictError):
            graph.reserve_lightpath((NodeId(1, 1), NodeId(1, 2)), (4, 7), "b")
        assert snapshot(ctrl) == before

    def test_reserve_beyond_capacity_rejected(self):
        # One port and one add/drop termination per node, both taken by "a".
        ctrl = make_domain(nodes=2, ports=1, add_drop=1)
        chain(ctrl, [100.0])
        graph = ctrl.graph
        path = (NodeId(1, 1), NodeId(1, 2))
        graph.reserve_port(path[0], "a", 100)
        graph.reserve_lightpath(path, (1, 4), "a")
        before = snapshot(ctrl)
        with pytest.raises(BookingConflictError):
            graph.reserve_port(path[0], "b", 100)
        with pytest.raises(BookingConflictError):
            graph.reserve_lightpath(path, (5, 8), "b")
        assert snapshot(ctrl) == before
        # With the terminations free again, a down fiber still refuses.
        graph.release_lightpath(path, (1, 4), "a")
        graph.set_link_operational(*path, False)
        with pytest.raises(BookingConflictError):
            graph.reserve_lightpath(path, (5, 8), "b")
        assert graph.reserved_cells == 0

    def test_release_wrong_holder_rejected(self):
        ctrl, graph, link = self.single_link()
        graph.reserve_spectrum(link, 1, 4, "a")
        before = snapshot(ctrl)
        with pytest.raises(BookingConflictError):
            graph.release_spectrum(link, 1, 4, "b")
        assert snapshot(ctrl) == before

    def test_release_port_wrong_holder_rejected(self):
        ctrl, graph, _ = self.single_link()
        graph.reserve_port(NodeId(1, 1), "a", 100)
        before = snapshot(ctrl)
        with pytest.raises(BookingConflictError):
            graph.release_port(NodeId(1, 1), "b")
        assert snapshot(ctrl) == before

    def test_release_add_drop_wrong_holder_rejected(self):
        # "b" holds the slots, but "a" holds both terminations.
        ctrl, graph, link = self.single_link()
        path = (NodeId(1, 1), NodeId(1, 2))
        graph.reserve_lightpath(path, (1, 4), "a")
        graph.release_spectrum(link, 1, 4, "a")
        graph.reserve_spectrum(link, 1, 4, "b")
        before = snapshot(ctrl)
        with pytest.raises(BookingConflictError):
            graph.release_lightpath(path, (1, 4), "b")
        assert snapshot(ctrl) == before

    def test_refused_booking_of_a_partly_held_block_changes_nothing(self):
        # The first fiber of the path is free or fully held; only the second
        # holds part of the block, so the refusal comes after a fiber that
        # alone would have passed.
        ctrl = make_domain(nodes=3)
        chain(ctrl, [100.0, 100.0])
        graph = ctrl.graph
        path = (NodeId(1, 1), NodeId(1, 2), NodeId(1, 3))
        second = graph.link_between(*path[1:])
        graph.reserve_spectrum(second, 3, 3, "a")
        before = snapshot(ctrl)
        with pytest.raises(BookingConflictError, match="slot 3 on .* held by a, not None"):
            graph.reserve_lightpath(path, (1, 4), "b")
        assert snapshot(ctrl) == before
        graph.release_spectrum(second, 3, 3, "a")
        graph.reserve_lightpath(path, (1, 4), "a")
        graph.release_spectrum(second, 3, 4, "a")
        before = snapshot(ctrl)
        with pytest.raises(BookingConflictError, match="slot 3 on .* held by None, not a"):
            graph.release_lightpath(path, (1, 4), "a")
        assert snapshot(ctrl) == before

    @staticmethod
    def single_link():
        ctrl = make_domain(nodes=2)
        chain(ctrl, [100.0])
        return ctrl, ctrl.graph, ctrl.graph.link_between(NodeId(1, 1), NodeId(1, 2))


BOOKINGS = ("reserve_spectrum", "release_spectrum", "reserve_lightpath", "release_lightpath")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_booking_matches_a_per_slot_model(data):
    # The model keeps one holder per slot and one set of terminations per
    # node.  Grids of up to 70 slots cross the 64-bit boundary, and
    # lightpaths run either way along the 3-fiber chain, so the first fault
    # in fiber-then-slot order can sit on any fiber.
    slot_count = data.draw(st.integers(min_value=1, max_value=70), label="slot_count")
    ctrl = make_domain(nodes=4, slot_count=slot_count)
    chain(ctrl, [100.0] * 3)
    graph = ctrl.graph
    nodes = [NodeId(1, i) for i in range(1, 5)]
    links = graph.path_links(nodes)
    grids = {link.key: [None] * slot_count for link in links}
    ends = {node: set() for node in nodes}
    slots = st.integers(min_value=1, max_value=slot_count)
    for _ in range(data.draw(st.integers(min_value=1, max_value=30), label="steps")):
        op = data.draw(st.sampled_from(BOOKINGS), label="op")
        holder = data.draw(st.sampled_from("abc"), label="holder")
        start, end = sorted(data.draw(st.tuples(slots, slots), label="slots"))
        lightpath = op.endswith("lightpath")
        if lightpath:
            i, j = data.draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True),
                             label="ends")
            path = nodes[i:j + 1] if i < j else nodes[j:i + 1][::-1]
            args = (path, (start, end), holder)
        else:
            link = data.draw(st.sampled_from(links), label="fiber")
            path = link.endpoints
            args = (link, start, end, holder)
        reserving = op.startswith("reserve")
        current, new = (None, holder) if reserving else (holder, None)

        fault = None
        if lightpath:
            for node in (path[0], path[-1]):
                if reserving and holder in ends[node]:
                    fault = f"no add/drop for {holder} at {node}"
                elif not reserving and holder not in ends[node]:
                    fault = f"no add/drop held by {holder} at {node}"
                if fault:
                    break
        keys = [link_key(a, b) for a, b in zip(path, path[1:])]
        for key in keys:
            bad = [s for s in range(start, end + 1) if grids[key][s - 1] != current]
            if bad:
                fault = fault or f"slot {bad[0]} on {key} held by {grids[key][bad[0] - 1]}, not {current}"
                break

        before = snapshot(ctrl)
        if fault is None:
            getattr(graph, op)(*args)
            for key in keys:
                grids[key][start - 1:end] = [new] * (end - start + 1)
            for node in (path[0], path[-1]) if lightpath else ():
                (ends[node].add if reserving else ends[node].discard)(holder)
        else:
            with pytest.raises(BookingConflictError) as refused:
                getattr(graph, op)(*args)
            assert str(refused.value) == fault
            assert snapshot(ctrl) == before
        for link in links:
            assert slot_grid(link, slot_count) == grids[link.key]
            assert holder_mask_problems(link, slot_count) == []
        assert {node: graph.oxcs[node].add_drop_holders for node in nodes} == ends
        assert graph.reserved_cells == sum(
            holder is not None for grid in grids.values() for holder in grid
        )
