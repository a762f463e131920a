"""Intent-driven coordination and simulation of multi-domain IP-optical networks."""

from .compilation import (
    BlockReason,
    CompilationResult,
    CompileOutcome,
    InstallOutcome,
    compile_connectivity,
    first_fit_spectrum,
    install_intent,
    select_mode,
    uninstall_intent,
)
from .errors import IbnError
from .export import export_dag, export_topology, metrics_csv
from .intents import (
    ConnectivityIntent,
    ExcludeLink,
    IntentDAG,
    IntentId,
    IntentState,
    LightpathIntent,
    RemoteIntent,
    RouterPortIntent,
)
from .multidomain import (
    DomainConfig,
    DomainController,
    Message,
    compile_crossdomain,
    deliver_messages,
    handle_message,
)
from .network import (
    DEFAULT_MODE_TABLE,
    DEFAULT_SLOT_COUNT,
    FiberLink,
    NetworkGraph,
    NodeId,
    OxcView,
    RouterView,
    TransmissionMode,
)
from .scenario import Scenario, TrafficConfig, generate_traffic, parse_scenario
from .simulation import (
    Event,
    EventKind,
    Metrics,
    Simulation,
    monitor_failure,
    monitor_repair,
    run,
)

__version__ = "0.1.0"
