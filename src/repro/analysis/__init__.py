"""Analytic evaluation of every scheme (paper Sections 3.2 and 4)."""

from repro.analysis import (
    augmented_chain,
    delay,
    emss,
    exact_chain,
    frontier,
    rohatgi,
    saida,
    tesla,
    wong_lam,
)
from repro.analysis.compare import (
    TeslaEnvironment,
    analytic_q_min,
    overhead_delay_table,
    sweep_block_size,
    sweep_loss,
)
from repro.analysis.montecarlo import (
    McResult,
    graph_monte_carlo,
    graph_monte_carlo_model,
    tesla_lambda_monte_carlo,
)

__all__ = [
    "augmented_chain",
    "delay",
    "emss",
    "exact_chain",
    "frontier",
    "rohatgi",
    "saida",
    "tesla",
    "wong_lam",
    "TeslaEnvironment",
    "analytic_q_min",
    "overhead_delay_table",
    "sweep_block_size",
    "sweep_loss",
    "McResult",
    "graph_monte_carlo",
    "graph_monte_carlo_model",
    "tesla_lambda_monte_carlo",
]
