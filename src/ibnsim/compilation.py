"""Intent compilation, transactional installation, and uninstallation.

Compilation picks an implementation for a connectivity intent: a candidate
path (k-shortest order), a transmission mode (fewest slots that satisfies
rate and reach), and a first-fit contiguous spectrum block present on every
link of the path.  Installation books the local resources atomically in
the domain's graph, either every one or none, and then asks each
neighbor holding a delegated piece to install it; release frees the local
resources and asks those neighbors to release theirs.  These are the only
install and release: the domain controller's methods call them.
"""

import enum
from dataclasses import dataclass
from typing import Optional

from .errors import BookingConflictError, NotLocalSourceError, WrongStateError
from .intents import (
    HOLDING_STATES,
    ConnectivityIntent,
    IntentState,
    LightpathIntent,
    RemoteIntent,
    RouterPortIntent,
    holds,
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
    PENDING = "pending"  # local leaves booked; delegated ones await their verdicts


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
    inclusive (start, end) interval or None when no block fits.  Works on
    the links' ``busy`` bitmasks: bit i of ``fits`` survives the shifted ANDs
    only when slots i+1..i+width are all free, and bits past the grid are
    never free, so no block runs off its end.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    busy = 0
    for link in graph.path_links(path):
        held = link.busy
        for holder in as_free:
            held &= ~link.holders.get(holder, 0)
        busy |= held
    free = ~busy & ((1 << graph.slot_count) - 1)
    fits = free
    for shift in range(1, width):
        fits &= free >> shift
    if not fits:
        return None
    start = (fits & -fits).bit_length()
    return (start, start + width - 1)


# -- compilation -------------------------------------------------------------


def compile_connectivity(domain, iid) -> CompilationResult:
    """Derive an implementation for an uncompiled connectivity intent.

    Any other state, FAILED included, raises WrongStateError.  A node's
    owner is its ``NodeId.domain``: local destinations are served by the
    intra-domain pipeline below; destinations owned by another domain are
    delegated by ``multidomain.compile_crossdomain``.
    """
    dag = domain.dag
    payload = dag.payload(iid)
    if not isinstance(payload, ConnectivityIntent):
        raise WrongStateError(f"intent {iid} is not a connectivity intent")

    agg = dag.aggregate_state(iid)
    if agg is not IntentState.UNCOMPILED:
        raise WrongStateError(f"intent {iid} is {agg.value}, expected uncompiled")

    if payload.src.domain != domain.id or not domain.graph.has_node(payload.src):
        raise NotLocalSourceError(f"source {payload.src} is not in domain {domain.id}")

    if payload.dst.domain != domain.id:
        return multidomain.compile_crossdomain(domain, iid)
    if not domain.graph.has_node(payload.dst):
        return blocked(BlockReason.NO_PATH)
    plan = _plan(domain, payload.src, payload.dst, payload.rate,
                 payload.excluded_links())
    if isinstance(plan, BlockReason):
        return blocked(plan)
    return implement(dag, iid, payload, plan)


def implement(dag, iid, payload: ConnectivityIntent, plan) -> CompilationResult:
    """Give ``iid`` the children of ``plan``, a (path, mode, slot block):
    a router port at each end and the lightpath, all compiled."""
    path, mode, block = plan
    children = (
        dag.add_child(iid, RouterPortIntent(payload.src, payload.rate)),
        dag.add_child(iid, RouterPortIntent(payload.dst, payload.rate)),
        dag.add_child(iid, LightpathIntent(tuple(path), mode, block)),
    )
    for child in children:
        dag.transition(child, IntentState.COMPILED)
    return CompilationResult(CompileOutcome.COMPILED, children)


def compile_probe(domain, src, dst, rate, excluded_links=(), as_free=()) -> Optional[tuple]:
    """Dry run of an intra-domain compilation: the (path, mode, slot block)
    it would pick, or None.

    ``as_free`` names intent ids whose current holdings count as available,
    so a failed intent's own reservations do not block its recompilation.
    """
    plan = _plan(domain, src, dst, rate, excluded_links, set(as_free))
    return None if isinstance(plan, BlockReason) else plan


def _plan(domain, src, dst, rate, excluded_links, as_free=frozenset()):
    """First feasible (path, mode, slot block) from src to dst, else the
    first BlockReason met.  Paths are pulled one at a time, so routing
    stops at the first one that fits.

    Ports, add/drop terminations and slots held by the intents in
    ``as_free`` count as free; the install re-checks every resource.
    """
    graph = domain.graph
    for node in (src, dst):
        router, oxc = graph.routers[node], graph.oxcs[node]
        ports = router.ports_used - len(as_free & router.port_holders)
        ends = oxc.add_drop_used - len(as_free & oxc.add_drop_holders)
        if (ports >= router.port_count or rate > router.port_rate
                or ends >= oxc.add_drop_capacity):
            return BlockReason.NO_PORT

    reason = None
    for path in graph.routes(src, dst, domain.config.k_paths, excluded_links):
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
    """Reserve every local leaf resource of a compiled intent, all or nothing,
    then ask the neighbor of each delegated (remote) leaf to install it.

    Returns PENDING while those verdicts are outstanding: deliver messages
    to quiescence, then read the aggregate state; a verdict that is not
    installed rolls this level back.  A conflict leaves the graph
    bit-identical to the pre-call state and sends nothing.
    """
    dag = domain.dag
    agg = dag.aggregate_state(iid)
    if agg is not IntentState.COMPILED:
        raise WrongStateError(f"intent {iid} is {agg.value}, expected compiled")

    graph = domain.graph
    # Book leaf by leaf, in walk order; a conflict releases what this call booked.
    booked, mirrors = [], []
    try:
        for leaf, node in dag.walk(iid):
            if node.children:
                continue
            payload = node.payload
            if isinstance(payload, RemoteIntent):
                mirrors.append((leaf, payload))
                continue
            if node.state is not IntentState.COMPILED:
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
    # Every mirror here has its remote id: the aggregate is COMPILED, and a
    # mirror leaves UNCOMPILED only through a StateNotify, which is matched
    # through the mirror_index that only the neighbor's Ack fills.
    for leaf, mirror in mirrors:
        domain.pending_installs.add(leaf)
        domain.send(mirror.neighbor, multidomain.InstallRequest(mirror.remote_id))
    return InstallOutcome.PENDING if mirrors else InstallOutcome.INSTALLED


def _release(graph, leaf, payload) -> None:
    if isinstance(payload, RouterPortIntent):
        graph.release_port(payload.node, leaf)
    elif isinstance(payload, LightpathIntent):
        graph.release_lightpath(payload.path, payload.slot_range, leaf)


def uninstall_intent(domain, iid) -> bool:
    """Release what the intent holds: ``release_leaves`` over its walk."""
    return release_leaves(domain, iid, domain.dag.walk(iid))


def release_leaves(domain, iid, walk) -> bool:
    """Release the subtree ``walk`` of ``IntentDAG.walk``; refuses, with no
    effect, unless some leaf holds (``holds``).

    Local leaves that hold return to compiled (a failed lightpath keeps its
    reservations until released).  Each delegated leaf that holds or awaits
    its install verdict gets one Uninstall; that verdict still arrives first.
    Returns whether a neighbor was asked: deliver messages before removing.
    """
    if not holds(walk):
        agg = domain.dag.aggregate_state(iid)
        raise WrongStateError(f"intent {iid} is {agg.value}, expected installed/failed")
    graph, dag, pending = domain.graph, domain.dag, domain.pending_installs
    asked = False
    for leaf, node in walk:
        if node.children:
            continue
        payload = node.payload
        if isinstance(payload, RemoteIntent):
            if node.state in HOLDING_STATES or leaf in pending:
                domain.send(payload.neighbor, multidomain.Uninstall(payload.remote_id))
                asked = True
        elif node.state in HOLDING_STATES:
            _release(graph, leaf, payload)
            dag.transition(leaf, IntentState.COMPILED)
    return asked


# Imported last: multidomain imports this module's names, and this module
# reaches compile_crossdomain and the message bodies through the module
# attribute at call time.
from . import multidomain  # noqa: E402
