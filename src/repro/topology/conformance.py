"""Statistical conformance of topology-induced loss.

Two questions the test suite asks of the correlated-loss machinery,
answered here with the same 3-SE methodology the independent-channel
conformance suite uses (:mod:`repro.analysis.conformance`):

* **marginals** — on a star topology every root→leaf path is a single
  private edge, so the induced per-receiver loss *is* the paper's
  independent Bernoulli model and the wire-level ``q_i`` must match
  the same analytic profiles.  :func:`topology_wire_stats` runs any
  registered scheme's kernel trials through a
  :class:`~repro.topology.channel.TopologyChannel` (fresh edge bank
  per trial, :class:`TopologyChannels`), and
  :func:`topology_conformance_deviations` compares against
  :func:`~repro.analysis.conformance.analytic_q_profile` evaluated at
  the leaf's *path* loss rate;
* **correlation** — sibling leaves behind a shared spine edge must be
  positively correlated, by exactly the closed-form edge product:
  with shared up-probability ``s`` and private path up-probabilities
  ``l_a, l_b``, ``Cov(D_a, D_b) = l_a·l_b·s(1-s)``.
  :func:`sibling_delivery_correlation` measures the empirical
  correlation from bank draws and reports the deviation from the
  closed form in Fisher-z standard errors.

Trial sharding follows :mod:`repro.parallel.wire`: per-trial bank
seeds depend only on the *global* trial index, so any contiguous
partition merges back to the serial result bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.conformance import (
    ConformanceEnvironment,
    analytic_q_profile,
    deviation_rows,
)
from repro.crypto.signatures import Signer
from repro.exceptions import SimulationError
from repro.network.delay import GaussianDelay
from repro.schemes.base import Scheme
from repro.simulation.stats import SimulationStats
from repro.simulation.trials import DELAY_STRIDE, run_trials
from repro.topology.channel import TopologyChannel
from repro.topology.graph import Topology
from repro.topology.linkloss import EdgeLossBank, PathLoss, delivery_probability
from repro.topology.trees import DistTree, union_paths

__all__ = [
    "path_loss_rate",
    "TopologyChannels",
    "topology_wire_stats",
    "topology_adversarial_stats",
    "topology_conformance_deviations",
    "sibling_delivery_correlation",
]

#: Per-trial bank-seed stride.  Deliberately much larger than the
#: per-edge/per-block strides inside the bank so (trial, edge) seed
#: pairs never collide across neighbouring trials.
_TRIAL_STRIDE = 32452843


def path_loss_rate(topology: Topology, trees: Sequence[DistTree],
                   leaf: str, base_rate: float) -> float:
    """Marginal drop probability of ``leaf`` under the tree set.

    The rate the independent-channel analytic profile must be
    evaluated at for this leaf: ``1 - P(some path fully up)`` with
    per-edge rates scaled by ``loss_scale``.
    """
    paths = union_paths(trees, leaf)
    rates = {
        edge: min(1.0, base_rate * topology.scale_of_index(edge))
        for path in paths for edge in path
    }
    return 1.0 - delivery_probability(paths, rates)


@dataclass(frozen=True)
class TopologyChannels:
    """Trial ``t``'s channel to ``leaf``, over a fresh edge-loss bank.

    The bank is seeded ``seed + t * stride`` from the *global* trial
    index, so edge draws are independent across trials and any
    contiguous sharding of the trial range merges to the serial result
    exactly.  Delay is Gaussian, seeded like
    :class:`~repro.simulation.trials.SeededChannels`, when
    ``delay_mean`` or ``delay_std`` is nonzero.
    """

    topology: Topology
    paths: Tuple[Tuple[int, ...], ...]
    leaf: str
    base_rate: float
    seed: int
    edge_model: str = "bernoulli"
    delay_mean: float = 0.0
    delay_std: float = 0.0

    @classmethod
    def for_scheme(cls, scheme: Scheme, topology: Topology,
                   trees: Sequence[DistTree], leaf: str, base_rate: float,
                   seed: int, edge_model: str = "bernoulli",
                   env: Optional[ConformanceEnvironment] = None
                   ) -> "TopologyChannels":
        """Channels to ``leaf``; timed schemes get ``env``'s delay model."""
        env = env if env is not None else ConformanceEnvironment()
        delay = ((env.delay_mean, env.delay_std) if scheme.timed
                 else (0.0, 0.0))
        return cls(topology, union_paths(trees, leaf), leaf, base_rate, seed,
                   edge_model, *delay)

    def __call__(self, trial: int, receiver: int = 0) -> TopologyChannel:
        bank = EdgeLossBank(self.topology, self.seed + trial * _TRIAL_STRIDE,
                            model=self.edge_model)
        delay = None
        if self.delay_mean > 0 or self.delay_std > 0:
            delay = GaussianDelay(self.delay_mean, self.delay_std,
                                  seed=self.seed + trial * DELAY_STRIDE)
        return TopologyChannel(PathLoss(bank, 0, self.paths, self.base_rate),
                               self.leaf, delay=delay)


def topology_wire_stats(scheme: Scheme, topology: Topology,
                        trees: Sequence[DistTree], leaf: str,
                        block_size: int, base_rate: float, trials: int,
                        seed: int = 7, edge_model: str = "bernoulli",
                        env: Optional[ConformanceEnvironment] = None
                        ) -> SimulationStats:
    """Empirical wire statistics for one leaf over ``trials`` blocks."""
    if trials < 1:
        raise SimulationError(f"need >= 1 trial, got {trials}")
    channels = TopologyChannels.for_scheme(scheme, topology, trees, leaf,
                                           base_rate, seed, edge_model, env)
    return run_trials(scheme, block_size, 0, trials, channels)[0]


def topology_adversarial_stats(scheme: Scheme, topology: Topology,
                               trees: Sequence[DistTree], leaf: str,
                               block_size: int, base_rate: float,
                               plan, trials: int, seed: int = 7,
                               edge_model: str = "bernoulli",
                               env: Optional[ConformanceEnvironment] = None,
                               signer: Optional[Signer] = None
                               ) -> SimulationStats:
    """Attacked wire statistics for one leaf over correlated link loss.

    The kernel's attacked trials — defensive decoding, soundness
    audit, fault counters, the standard attack-plan reseed schedule —
    over :class:`TopologyChannels`.  The soundness invariant is
    unchanged: ``stats.forged_accepted`` must stay 0.
    """
    from repro.simulation.adversarial import AttackSchedule

    if trials < 1:
        raise SimulationError(f"need >= 1 trial, got {trials}")
    channels = TopologyChannels.for_scheme(scheme, topology, trees, leaf,
                                           base_rate, seed, edge_model, env)
    return run_trials(scheme, block_size, 0, trials, channels,
                      attack=AttackSchedule(plan, seed), signer=signer)[0]


def topology_conformance_deviations(scheme: Scheme, topology: Topology,
                                    trees: Sequence[DistTree], leaf: str,
                                    block_size: int, base_rate: float,
                                    trials: int, seed: int = 7,
                                    env: Optional[ConformanceEnvironment]
                                    = None) -> List[dict]:
    """Per-position rows: topology wire ``q_i`` vs the analytic model.

    The analytic side is the *independent-channel* profile evaluated
    at the leaf's marginal path loss rate — correct because one leaf's
    delivery process is i.i.d. Bernoulli across slots (every edge
    draws fresh per slot), so from a single receiver's viewpoint a
    topology is indistinguishable from an independent channel at the
    path rate.  Correlation only shows up *across* receivers, which
    :func:`sibling_delivery_correlation` covers.
    """
    stats = topology_wire_stats(scheme, topology, trees, leaf, block_size,
                                base_rate, trials, seed=seed, env=env)
    marginal = path_loss_rate(topology, trees, leaf, base_rate)
    analytic = analytic_q_profile(scheme, block_size, marginal, env=env)
    return deviation_rows(stats, analytic,
                          f"{scheme.name}@{topology.name}/{leaf}")


def sibling_delivery_correlation(topology: Topology,
                                 trees: Sequence[DistTree],
                                 leaf_a: str, leaf_b: str,
                                 base_rate: float, packets: int,
                                 seed: int = 7) -> Dict[str, float]:
    """Measured vs closed-form delivery correlation of two leaves.

    Draws ``packets`` slots from one shared bank (block 0) and scores
    the per-slot delivery indicators of both leaves against the
    closed form: with shared-edge up-probability ``s`` and private
    path up-probabilities ``l_a``, ``l_b``,

    ``P(D_a ∧ D_b) = s · l_a · l_b``  ⇒
    ``Cov = l_a · l_b · s (1 - s)``,

    normalized by the Bernoulli variances.  The deviation is reported
    in Fisher-z standard errors (``SE_z = 1/sqrt(N - 3)``), the right
    scale for a correlation estimate; the conformance tests threshold
    it at 3.
    """
    if packets < 8:
        raise SimulationError(f"need >= 8 packets, got {packets}")
    paths_a = union_paths(trees, leaf_a)
    paths_b = union_paths(trees, leaf_b)
    if len(paths_a) != 1 or len(paths_b) != 1:
        raise SimulationError(
            "closed-form sibling correlation is defined for single-tree "
            "(k = 1) paths")
    path_a, path_b = set(paths_a[0]), set(paths_b[0])

    def up_product(edges) -> float:
        product = 1.0
        for edge in edges:
            product *= 1.0 - min(1.0,
                                 base_rate * topology.scale_of_index(edge))
        return product

    shared = path_a & path_b
    s = up_product(shared)
    l_a = up_product(path_a - shared)
    l_b = up_product(path_b - shared)
    p_a, p_b = s * l_a, s * l_b
    cov = l_a * l_b * s * (1.0 - s)
    var_a, var_b = p_a * (1.0 - p_a), p_b * (1.0 - p_b)
    if var_a <= 0.0 or var_b <= 0.0:
        raise SimulationError(
            "degenerate delivery probability; correlation undefined")
    predicted = cov / math.sqrt(var_a * var_b)

    bank = EdgeLossBank(topology, seed)
    loss_a = PathLoss(bank, 0, paths_a, base_rate)
    loss_b = PathLoss(bank, 0, paths_b, base_rate)
    draws_a = [not lost for lost in loss_a.sample(packets)]
    draws_b = [not lost for lost in loss_b.sample(packets)]
    mean_a = sum(draws_a) / packets
    mean_b = sum(draws_b) / packets
    cov_hat = sum((a - mean_a) * (b - mean_b)
                  for a, b in zip(draws_a, draws_b)) / packets
    var_hat_a = mean_a * (1.0 - mean_a)
    var_hat_b = mean_b * (1.0 - mean_b)
    if var_hat_a <= 0.0 or var_hat_b <= 0.0:
        raise SimulationError(
            f"degenerate sample (means {mean_a}, {mean_b}); "
            f"raise packets or lower the loss rate")
    measured = cov_hat / math.sqrt(var_hat_a * var_hat_b)

    # Fisher z-transform: atanh(r) is ~normal with SE 1/sqrt(N-3).
    clamp = 1.0 - 1e-12
    z_measured = math.atanh(max(-clamp, min(clamp, measured)))
    z_predicted = math.atanh(max(-clamp, min(clamp, predicted)))
    se_z = 1.0 / math.sqrt(packets - 3)
    return {
        "leaf_a": leaf_a,
        "leaf_b": leaf_b,
        "packets": packets,
        "shared_edges": len(shared),
        "measured": measured,
        "predicted": predicted,
        "deviation_se": abs(z_measured - z_predicted) / se_z,
        "delivery_a": mean_a,
        "delivery_b": mean_b,
    }
