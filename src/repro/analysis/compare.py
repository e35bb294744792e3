"""Cross-scheme comparison API (Figures 8, 9 and 10).

Dispatches each scheme to its analytic ``q_min`` — closed form for
Rohatgi and Wong–Lam, Eq. 9 recurrence for EMSS/offset schemes,
Eq. 10 for augmented chains, Eq. 7 for TESLA — and assembles the
paper's comparison sweeps over loss rate and block size plus the
overhead/delay table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis import augmented_chain as ac_analysis
from repro.analysis import emss as emss_analysis
from repro.analysis import rohatgi as rohatgi_analysis
from repro.analysis import saida as saida_analysis
from repro.analysis import tesla as tesla_analysis
from repro.core.recurrence import solve_recurrence
from repro.exceptions import AnalysisError
from repro.schemes.augmented_chain import AugmentedChainScheme
from repro.schemes.base import Scheme
from repro.schemes.emss import EmssScheme, GenericOffsetScheme
from repro.schemes.rohatgi import RohatgiScheme
from repro.schemes.rohatgi_online import OnlineRohatgiScheme
from repro.schemes.saida import SaidaScheme
from repro.schemes.tesla import TeslaScheme

__all__ = [
    "TeslaEnvironment",
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


def analytic_q_min(scheme: Scheme, n: int, p: float,
                   tesla_env: Optional[TeslaEnvironment] = None) -> float:
    """``q_min`` of ``scheme`` at block size ``n`` and loss rate ``p``.

    Parameters
    ----------
    tesla_env:
        Required context for :class:`TeslaScheme`; a default
        environment (``T_d = 1 s, μ = 0.2 s, σ = 0.1 s``) is used when
        omitted.
    """
    if scheme.individually_verifiable:
        return 1.0
    if isinstance(scheme, (RohatgiScheme, OnlineRohatgiScheme)):
        return rohatgi_analysis.q_min(n, p)
    if isinstance(scheme, EmssScheme):
        return emss_analysis.q_min(n, scheme.m, scheme.d, p)
    if isinstance(scheme, GenericOffsetScheme):
        return solve_recurrence(n, scheme.offsets, p).q_min
    if isinstance(scheme, AugmentedChainScheme):
        return ac_analysis.q_min(n, scheme.a, scheme.b, p)
    if isinstance(scheme, TeslaScheme):
        env = tesla_env if tesla_env is not None else TeslaEnvironment()
        return tesla_analysis.q_min(n, p, env.t_disclose, env.mu, env.sigma)
    if isinstance(scheme, SaidaScheme):
        return saida_analysis.q_min(n, scheme.threshold(n), p)
    raise AnalysisError(f"no analytic q_min available for {scheme.name}")


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
