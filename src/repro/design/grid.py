"""Design-grid quantization shared by controllers and the table service.

Every consumer of a precomputed design — the pool-wide
:class:`~repro.serve.adaptive.AdaptiveController`, its per-subtree
variant, and :class:`~repro.design.service.DesignService` lookups —
faces the same problem: a continuous estimate (a loss rate, a target,
a block size) must land on a *discrete* lattice of design points, and
it must land there **conservatively** — design for at least the
observed loss, at least the requested target, at most the available
delay budget.  This module is the single implementation of that
rounding, so the controller's grid semantics and the table's lookup
semantics can never drift apart.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.exceptions import DesignError

__all__ = ["DEFAULT_P_GRID", "DEFAULT_DELAY_BUDGET", "validate_grid",
           "quantize_up", "quantize_down"]

#: The one loss-rate grid: the live controller quantizes its estimate
#: onto it and the default :class:`~repro.design.table.TableSpec`
#: covers it, so every controller grid point is a table cell.
DEFAULT_P_GRID = (0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5)

#: The one delay budget (packet slots) the controller designs under
#: and the default table is built for.
DEFAULT_DELAY_BUDGET = 8


def validate_grid(grid: Sequence[float], name: str = "grid"
                  ) -> Tuple[float, ...]:
    """Check a quantization grid (non-empty, sorted, duplicate-free).

    Returns the grid as a tuple so callers can store the validated
    form.  Raises :class:`DesignError` otherwise — a malformed grid
    silently changes which designs a consumer flies with, so it must
    never be accepted.
    """
    points = tuple(grid)
    if not points:
        raise DesignError(f"{name} must not be empty")
    if list(points) != sorted(set(points)):
        raise DesignError(
            f"{name} must be sorted and duplicate-free, got {points!r}")
    return points


def quantize_up(value: float, grid: Sequence[float],
                clamp: bool = False) -> float:
    """Smallest grid point ``>= value`` (the conservative round-up).

    ``clamp=True`` reproduces the controller's historical behaviour for
    estimates above the top of the grid: design for the harshest point
    the grid knows.  ``clamp=False`` is the table-lookup posture: a
    request above the grid is *uncovered* and must fail loudly rather
    than silently under-design, so it raises :class:`DesignError`.
    """
    for point in grid:
        if value <= point:
            return point
    if clamp:
        return grid[-1]
    raise DesignError(
        f"value {value!r} above the top of the grid {tuple(grid)!r}")


def quantize_down(value: float, grid: Sequence[float]) -> float:
    """Largest grid point ``<= value`` (conservative for budgets).

    A design built under a *smaller* delay budget always satisfies a
    larger one, so budget axes round down.  A value below the bottom of
    the grid has no satisfying point and raises :class:`DesignError`.
    """
    chosen = None
    for point in grid:
        if point <= value:
            chosen = point
        else:
            break
    if chosen is None:
        raise DesignError(
            f"value {value!r} below the bottom of the grid {tuple(grid)!r}")
    return chosen
