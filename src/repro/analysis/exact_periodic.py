"""The original offset-set bitmask walk, kept as the engine's oracle.

Offset set ``A`` in signature-rooted indexing (``P_1 = P_sign``, always
received): packet ``i`` is verifiable iff it is received and some
``P_{i-a}``, ``a ∈ A``, is verifiable, branches clamped to the root
(``i - a <= 1``) always succeeding.  The state is the verifiability of
the last ``max(A)`` packets, one dictionary entry per bitmask.  The
frontier engine (:mod:`repro.analysis.frontier`) computes the same
profile and is differential-tested against this walk.
"""
from __future__ import annotations

from typing import Dict, List, Sequence

from repro.exceptions import AnalysisError

__all__ = ["exact_periodic_q_profile_reference"]

_MAX_REACH = 16


def exact_periodic_q_profile_reference(n: int, offsets: Sequence[int],
                                       p: float) -> List[float]:
    """Exact ``[q_1 .. q_n]`` for offsets ``A``, ``max(A) <= 16``, iid loss."""
    a_set = tuple(sorted(set(offsets)))
    if not a_set:
        raise AnalysisError("offset set must be non-empty")
    if any(a < 1 for a in a_set):
        raise AnalysisError(f"offsets must be positive: {offsets}")
    if a_set[-1] > _MAX_REACH:
        raise AnalysisError(
            f"max offset {a_set[-1]} exceeds exact-evaluation reach "
            f"{_MAX_REACH}; use Monte Carlo"
        )
    if n < 1:
        raise AnalysisError(f"block size must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise AnalysisError(f"loss rate must be in [0, 1], got {p}")
    reach = a_set[-1]
    survive = 1.0 - p
    # distribution over bitmasks of the last `reach` verifiability bits;
    # bit k (value 1 << k) is the packet k+1 positions back.
    distribution: Dict[int, float] = {1: 1.0} if reach >= 1 else {0: 1.0}
    # Start: position 1 is the root, verifiable with certainty -> the
    # "1 position back" bit is set when we stand at position 2.
    profile = [1.0]
    for i in range(2, n + 1):
        # Probability the current packet would be verifiable given
        # receipt: some offset branch alive (or clamped to the root).
        clamp = any(i - a <= 1 for a in a_set)
        alive = 0.0
        for state, probability in distribution.items():
            if clamp or any(state >> (a - 1) & 1 for a in a_set):
                alive += probability
        profile.append(alive if not clamp else 1.0)
        # Advance the joint distribution by one position.
        advanced: Dict[int, float] = {}
        for state, probability in distribution.items():
            supported = clamp or any(state >> (a - 1) & 1 for a in a_set)
            shifted = (state << 1) & ((1 << reach) - 1)
            if supported:
                verifiable_state = shifted | 1
                advanced[verifiable_state] = advanced.get(
                    verifiable_state, 0.0) + probability * survive
                advanced[shifted] = advanced.get(
                    shifted, 0.0) + probability * p
            else:
                advanced[shifted] = advanced.get(
                    shifted, 0.0) + probability
        distribution = advanced
    return profile
