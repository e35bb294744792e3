"""Cross-scheme comparison API (Figures 8, 9 and 10).

Takes each scheme's analytic ``q_min`` from the scheme's own models
and assembles the paper's comparison sweeps over loss rate and block
size plus the overhead/delay table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis import tesla as tesla_analysis
from repro.exceptions import AnalysisError
from repro.schemes.base import Scheme

__all__ = [
    "TeslaEnvironment",
    "check_block",
    "analytic_q_min",
    "sweep_loss",
    "sweep_block_size",
    "overhead_delay_table",
]


@dataclass(frozen=True)
class TeslaEnvironment:
    """Network context TESLA's ``q_min`` depends on (Eq. 7).

    Attributes
    ----------
    t_disclose:
        Key disclosure delay in seconds.
    mu, sigma:
        Mean and jitter of the Gaussian end-to-end delay.
    """

    t_disclose: float = 1.0
    mu: float = 0.2
    sigma: float = 0.1

    @property
    def xi(self) -> float:
        """The delay term ``Φ((T_d − μ)/σ)`` shared by every ``q_i``."""
        return tesla_analysis.xi(self.t_disclose, self.mu, self.sigma)


def check_block(n: int, p: float) -> None:
    """Reject a block size below 1 or a loss rate outside ``[0, 1]``."""
    if n < 1:
        raise AnalysisError(f"block size must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise AnalysisError(f"loss rate must be in [0, 1], got {p}")


def analytic_q_min(scheme: Scheme, n: int, p: float,
                   tesla_env: Optional[TeslaEnvironment] = None) -> float:
    """``q_min`` of ``scheme`` at block size ``n`` and loss rate ``p``.

    The minimum of the scheme's Eq. 9/10 profile when it has one (the
    paper's figures plot those), else of its exact profile.

    Parameters
    ----------
    tesla_env:
        Delay context for timed schemes (TESLA's Eq. 7); a default
        environment (``T_d = 1 s, μ = 0.2 s, σ = 0.1 s``) is used when
        omitted.
    """
    check_block(n, p)
    profile = scheme.recurrence_q_profile(n, p)
    if profile is None:
        env = tesla_env if tesla_env is not None else TeslaEnvironment()
        profile = scheme.q_profile(n, p, t_disclose=env.t_disclose,
                                   mu=env.mu, sigma=env.sigma)
    return min(profile.values())


def sweep_loss(schemes: Sequence[Scheme], n: int, p_values: Sequence[float],
               tesla_env: Optional[TeslaEnvironment] = None
               ) -> Dict[str, List[float]]:
    """``q_min`` per scheme across loss rates (Fig. 8a)."""
    if not schemes:
        raise AnalysisError("no schemes given")
    return {
        scheme.name: [analytic_q_min(scheme, n, p, tesla_env)
                      for p in p_values]
        for scheme in schemes
    }


def sweep_block_size(schemes: Sequence[Scheme], n_values: Sequence[int],
                     p: float,
                     tesla_env: Optional[TeslaEnvironment] = None
                     ) -> Dict[str, List[float]]:
    """``q_min`` per scheme across block sizes (Fig. 8b / Fig. 9)."""
    if not schemes:
        raise AnalysisError("no schemes given")
    return {
        scheme.name: [analytic_q_min(scheme, n, p, tesla_env)
                      for n in n_values]
        for scheme in schemes
    }


def overhead_delay_table(schemes: Sequence[Scheme], n: int,
                         l_sign: int = 128, l_hash: int = 16
                         ) -> List[Dict[str, float]]:
    """Fig. 10's overhead-and-delay comparison, one row per scheme."""
    rows = []
    for scheme in schemes:
        metrics = scheme.metrics(n, l_sign=l_sign, l_hash=l_hash)
        row = {"scheme": scheme.name}
        row.update(metrics.as_row())
        rows.append(row)
    return rows
