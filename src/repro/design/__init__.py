"""Graph-design toolkit: the constructions of the paper's Section 5.

Two layers: the per-method design programs (optimizer sweeps, the DP
offset-policy search, probabilistic tuning, the greedy heuristic), and
the *design service* built on top of them — a unified
:func:`~repro.design.frontend.design_point` frontend, a precomputed
:class:`~repro.design.table.DesignTable` over the whole parameter
lattice, and the O(1) :class:`~repro.design.service.DesignService`
lookup the live control plane consults instead of running optimizers
inline (see ``docs/design_service.md``).
"""

from repro.design.constraints import ConstraintReport, DesignConstraints
from repro.design.disjoint import disjoint_paths_design
from repro.design.dp import OffsetPolicy, search_offset_policy
from repro.design.frontend import DESIGN_FAMILIES, design_point
from repro.design.grid import (
    DEFAULT_DELAY_BUDGET,
    DEFAULT_P_GRID,
    quantize_down,
    quantize_up,
    validate_grid,
)
from repro.design.heuristic import HeuristicDesignResult, greedy_design
from repro.design.optimizer import DesignPoint, optimize_ac, optimize_emss
from repro.design.probabilistic import ProbabilisticDesign, tune_edge_probability
from repro.design.service import DesignCoverageError, DesignService
from repro.design.table import (
    TABLE_SCHEMA_VERSION,
    DesignTable,
    TableSpec,
    cell_key,
    validate_table_payload,
)

__all__ = [
    "ConstraintReport",
    "DesignConstraints",
    "disjoint_paths_design",
    "OffsetPolicy",
    "search_offset_policy",
    "DESIGN_FAMILIES",
    "DesignPoint",
    "design_point",
    "DEFAULT_DELAY_BUDGET",
    "DEFAULT_P_GRID",
    "quantize_down",
    "quantize_up",
    "validate_grid",
    "HeuristicDesignResult",
    "greedy_design",
    "optimize_ac",
    "optimize_emss",
    "ProbabilisticDesign",
    "tune_edge_probability",
    "DesignCoverageError",
    "DesignService",
    "TABLE_SCHEMA_VERSION",
    "DesignTable",
    "TableSpec",
    "cell_key",
    "validate_table_payload",
]
