"""Intent compilation, transactional installation, and uninstallation.

Compilation picks an implementation for a connectivity intent: a candidate
path (k-shortest order), a transmission mode (fewest slots that satisfies
rate and reach), and a first-fit contiguous spectrum block present on every
link of the path.  Installation books the chosen resources atomically in
the domain's graph: either every child resource is booked or nothing
changes.
"""

import enum
from dataclasses import dataclass
from typing import Optional

from .errors import BookingConflictError, NotLocalSourceError, WrongStateError
from .intents import (
    ConnectivityIntent,
    IntentState,
    LightpathIntent,
    RemoteIntent,
    RouterPortIntent,
)
from .network import NetworkGraph, TransmissionMode


class CompileOutcome(enum.Enum):
    COMPILED = "compiled"
    BLOCKED = "blocked"


class BlockReason(enum.Enum):
    NO_PATH = "no-path"
    NO_MODE = "no-mode"
    NO_SPECTRUM = "no-spectrum"
    NO_PORT = "no-port"


class InstallOutcome(enum.Enum):
    INSTALLED = "installed"
    CONFLICT = "conflict"
    PENDING = "pending"  # awaiting remote verdicts, resolve via finalize_install


@dataclass(frozen=True)
class CompilationResult:
    outcome: CompileOutcome
    children: tuple = ()
    reason: Optional[BlockReason] = None

    def __post_init__(self):
        if self.outcome is CompileOutcome.COMPILED:
            if not self.children or self.reason is not None:
                raise ValueError("compiled result needs children and no reason")


def blocked(reason: BlockReason) -> CompilationResult:
    return CompilationResult(CompileOutcome.BLOCKED, (), reason)


def select_mode(modes, rate: int, distance: float) -> Optional[TransmissionMode]:
    """Cheapest transmission mode serving ``rate`` over ``distance``.

    Feasible modes satisfy mode.rate >= rate and mode.reach >= distance; among
    them the fewest slots wins, then the lowest rate, then table order.
    """
    best = None
    best_key = None
    for idx, mode in enumerate(modes):
        if mode.rate >= rate and mode.reach >= distance:
            key = (mode.slots_needed, mode.rate, idx)
            if best is None or key < best_key:
                best, best_key = mode, key
    return best


def first_fit_spectrum(
    graph: NetworkGraph, path, width: int, as_free=()
) -> Optional[tuple[int, int]]:
    """Lowest-start contiguous block of ``width`` slots free on every link.

    Slots held by the intents in ``as_free`` count as free.  Returns the
    inclusive (start, end) interval or None when no block fits.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    free = {None, *as_free}
    grids = [link.slot_grid for link in graph.path_links(path)]
    for start in range(1, graph.slot_count - width + 2):
        if all(
            grid[slot - 1] in free
            for grid in grids
            for slot in range(start, start + width)
        ):
            return (start, start + width - 1)
    return None


# -- compilation -------------------------------------------------------------


def compile_connectivity(domain, iid) -> CompilationResult:
    """Derive an implementation for a connectivity intent.

    Local destinations are served by the intra-domain pipeline below;
    destinations owned by another domain are delegated through the
    controller's cross-domain path.  A FAILED intent is recompiled: its
    previous implementation is torn down first.
    """
    dag = domain.dag
    payload = dag.payload(iid)
    if not isinstance(payload, ConnectivityIntent):
        raise WrongStateError(f"intent {iid} is not a connectivity intent")

    agg = dag.aggregate_state(iid)
    if agg is IntentState.FAILED:
        teardown_implementation(domain, iid)
    elif agg is not IntentState.UNCOMPILED:
        raise WrongStateError(f"intent {iid} is {agg.value}, expected uncompiled")

    if domain.registry.get(payload.src) != domain.id:
        raise NotLocalSourceError(f"source {payload.src} is not in domain {domain.id}")

    dst_owner = domain.registry.get(payload.dst)
    if dst_owner is None:
        return blocked(BlockReason.NO_PATH)
    if dst_owner != domain.id:
        return domain.compile_crossdomain(iid)
    return _compile_intra(domain, iid, payload)


def _compile_intra(domain, iid, payload: ConnectivityIntent) -> CompilationResult:
    plan = _plan(domain, payload.src, payload.dst, payload.rate,
                 payload.excluded_links())
    if isinstance(plan, BlockReason):
        return blocked(plan)
    path, mode, block = plan
    dag = domain.dag
    children = (
        dag.add_child(iid, RouterPortIntent(payload.src, payload.rate)),
        dag.add_child(iid, RouterPortIntent(payload.dst, payload.rate)),
        dag.add_child(iid, LightpathIntent(tuple(path), mode, block)),
    )
    for child in children:
        dag.transition(child, IntentState.COMPILED)
    dag.transition(iid, IntentState.COMPILED)
    return CompilationResult(CompileOutcome.COMPILED, children)


def compile_probe(domain, src, dst, rate, excluded_links=(), as_free=()) -> bool:
    """Dry-run feasibility of an intra-domain compilation.

    ``as_free`` names intent ids whose current holdings count as available,
    so a failed intent's own reservations do not block its recompilation.
    """
    plan = _plan(domain, src, dst, rate, excluded_links, set(as_free))
    return not isinstance(plan, BlockReason)


def _plan(domain, src, dst, rate, excluded_links, as_free=frozenset()):
    """First feasible (path, mode, slot block) from src to dst, else the
    first BlockReason met.

    Ports, add/drop terminations and slots held by the intents in
    ``as_free`` count as free; the install re-checks every resource.
    """
    graph = domain.graph
    for node in (src, dst):
        router, oxc = graph.routers[node], graph.oxcs[node]
        ports = router.ports_used - len(as_free & router.port_holders.keys())
        ends = oxc.add_drop_used - len(as_free & oxc.add_drop_holders)
        if (ports >= router.port_count or rate > router.port_rate
                or ends >= oxc.add_drop_capacity):
            return BlockReason.NO_PORT

    paths = graph.k_shortest_paths(
        src, dst, domain.config.k_paths, exclude_links=excluded_links
    )
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


# -- installation ------------------------------------------------------------


def install_intent(domain, iid) -> InstallOutcome:
    """Reserve every child resource of a compiled intent, all or nothing.

    The graph refuses any booking that would overbook a resource; a conflict
    leaves the graph bit-identical to the pre-call state.
    """
    dag = domain.dag
    dag.payload(iid)
    agg = dag.aggregate_state(iid)
    if agg is not IntentState.COMPILED:
        raise WrongStateError(f"intent {iid} is {agg.value}, expected compiled")

    graph = domain.graph
    leaves = dag.leaves_under(iid)
    if any(isinstance(dag.payload(leaf), RemoteIntent) for leaf in leaves):
        raise ValueError(f"{iid} has a remote part; use the cross-domain install")

    # Book leaf by leaf; a conflict releases what this call booked.
    booked = []
    try:
        for leaf in leaves:
            payload = dag.payload(leaf)
            if dag.state(leaf) is not IntentState.COMPILED:
                continue
            if isinstance(payload, RouterPortIntent):
                graph.reserve_port(payload.node, leaf, payload.rate)
            elif isinstance(payload, LightpathIntent):
                graph.reserve_lightpath(payload.path, payload.slot_range, leaf)
            booked.append((leaf, payload))
    except BookingConflictError:
        for leaf, payload in booked:
            _release(graph, leaf, payload)
        return InstallOutcome.CONFLICT
    for leaf, _ in booked:
        dag.transition(leaf, IntentState.INSTALLED)
    return InstallOutcome.INSTALLED


def _release(graph, leaf, payload) -> None:
    if isinstance(payload, RouterPortIntent):
        graph.release_port(payload.node, leaf)
    elif isinstance(payload, LightpathIntent):
        graph.release_lightpath(payload.path, payload.slot_range, leaf)


def uninstall_intent(domain, iid) -> None:
    """Release every resource held by the intent's children.

    Legal for installed intents and for failed ones (a failed lightpath keeps
    its reservations until explicitly uninstalled); leaves return to compiled.
    """
    dag = domain.dag
    dag.payload(iid)
    agg = dag.aggregate_state(iid)
    if agg not in (IntentState.INSTALLED, IntentState.FAILED):
        raise WrongStateError(f"intent {iid} is {agg.value}, expected installed/failed")

    graph = domain.graph
    for leaf in dag.leaves_under(iid):
        payload = dag.payload(leaf)
        state = dag.state(leaf)
        if state not in (IntentState.INSTALLED, IntentState.FAILED):
            continue
        _release(graph, leaf, payload)
        dag.transition(leaf, IntentState.COMPILED)


def teardown_implementation(domain, iid) -> None:
    """Drop an intent's children and return it to uncompiled.

    Releases reservations first when needed.  Refuses intents with remote
    parts: delegated implementations are torn down by the controller, which
    must notify the neighbor.
    """
    dag = domain.dag
    if domain.has_remote_parts(iid):
        raise ValueError(f"{iid} has remote parts; tear down via the controller")
    if dag.aggregate_state(iid) in (IntentState.INSTALLED, IntentState.FAILED):
        uninstall_intent(domain, iid)
    for child in dag.children(iid):
        dag.remove_intent(child)
    if dag.state(iid) is IntentState.COMPILED:
        dag.transition(iid, IntentState.UNCOMPILED)
