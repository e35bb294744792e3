"""repro — dependence-graph analysis of multicast authentication.

A full reproduction of Aldar C-F. Chan, *A graph-theoretical analysis
of multicast authentication* (ICDCS 2003): the dependence-graph
framework, the five analyzed schemes (Gennaro-Rohatgi, Wong-Lam
authentication trees, EMSS, augmented chains, TESLA) implemented down
to the bytes, analytic evaluators for every equation and figure, a
packet-level loss/delay simulator that validates them, and the
Section 5 graph-design toolkit.

Quickstart
----------
>>> from repro import EmssScheme, analytic_q_min
>>> scheme = EmssScheme(m=2, d=1)
>>> 0.9 < analytic_q_min(scheme, n=100, p=0.2) < 1.0
True
"""

from repro.analysis import (
    TeslaEnvironment,
    analytic_q_min,
    graph_monte_carlo,
    overhead_delay_table,
    sweep_block_size,
    sweep_loss,
)
from repro.core import (
    DependenceGraph,
    TeslaDependenceGraph,
    compute_metrics,
    lambda_bounds,
    solve_recurrence,
)
from repro.exceptions import (
    AnalysisError,
    CryptoError,
    DesignError,
    GraphError,
    PacketFormatError,
    ReproError,
    SchemeParameterError,
    SimulationError,
    VerificationError,
    WireDecodeError,
)
from repro.faults import (
    AdversarialChannel,
    AttackPlan,
    BitFlipCorruption,
    FaultModel,
    ForgedInjection,
    ReorderJitter,
    ReplayDuplication,
    TruncationCorruption,
)
from repro.packets import Packet, packet_from_wire
from repro.parallel import (
    parallel_graph_monte_carlo,
    parallel_trials,
    set_default_workers,
    sweep,
)
from repro.schemes import (
    AugmentedChainScheme,
    EmssScheme,
    GenericOffsetScheme,
    RandomGraphScheme,
    RohatgiScheme,
    Scheme,
    SignEachScheme,
    TeslaParameters,
    TeslaReceiver,
    TeslaScheme,
    TeslaSender,
    WongLamScheme,
    available_schemes,
    make_scheme,
    paper_comparison_schemes,
)
from repro.simulation import (
    ChainReceiver,
    SimulationStats,
    StreamSender,
    run_session,
    run_trials,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "TeslaEnvironment",
    "analytic_q_min",
    "graph_monte_carlo",
    "overhead_delay_table",
    "sweep_block_size",
    "sweep_loss",
    "DependenceGraph",
    "TeslaDependenceGraph",
    "compute_metrics",
    "lambda_bounds",
    "solve_recurrence",
    "AnalysisError",
    "CryptoError",
    "DesignError",
    "GraphError",
    "PacketFormatError",
    "ReproError",
    "SchemeParameterError",
    "SimulationError",
    "VerificationError",
    "WireDecodeError",
    "AdversarialChannel",
    "AttackPlan",
    "BitFlipCorruption",
    "FaultModel",
    "ForgedInjection",
    "ReorderJitter",
    "ReplayDuplication",
    "TruncationCorruption",
    "Packet",
    "packet_from_wire",
    "parallel_graph_monte_carlo",
    "parallel_trials",
    "set_default_workers",
    "sweep",
    "AugmentedChainScheme",
    "EmssScheme",
    "GenericOffsetScheme",
    "RandomGraphScheme",
    "RohatgiScheme",
    "Scheme",
    "SignEachScheme",
    "TeslaParameters",
    "TeslaReceiver",
    "TeslaScheme",
    "TeslaSender",
    "WongLamScheme",
    "available_schemes",
    "make_scheme",
    "paper_comparison_schemes",
    "ChainReceiver",
    "SimulationStats",
    "StreamSender",
    "run_session",
    "run_trials",
]
