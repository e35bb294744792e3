"""The design service: O(1) scheme selection for the control plane.

A :class:`DesignService` wraps a precomputed
:class:`~repro.design.table.DesignTable` behind the one call the live
controllers need: :meth:`~DesignService.lookup`.  A request is
quantized **conservatively** onto the table lattice — loss rate,
block size and target round *up*, the delay budget rounds *down* —
then answered from a dict, so adaptation costs a hash lookup instead
of an inline optimizer run.

The coverage contract is loud: a request off the top of any axis (or
for a family the table never built) raises
:class:`DesignCoverageError` rather than silently serving the nearest
design, and the caller decides whether to fall back to an inline
search (the controllers do, and count it).  A *covered* cell where the
program itself found no satisfying design answers ``None`` —
authoritative infeasibility, exactly what the inline optimizer would
have concluded.

Every lookup is counted on the live :mod:`repro.obs` registry
(``design.service.lookups`` / ``.hits`` / ``.misses``) so a soak run's
manifest shows whether its control plane actually flew on the table.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.design.grid import quantize_down, quantize_up
from repro.design.optimizer import DesignPoint
from repro.design.table import DesignTable, cell_key
from repro.exceptions import DesignError
from repro.obs.registry import get_registry

__all__ = ["DesignCoverageError", "DesignService"]


class DesignCoverageError(DesignError):
    """A lookup landed outside the table lattice.

    Distinct from plain :class:`DesignError` so callers can tell "the
    table does not cover this point" (fall back to an inline search)
    apart from "the design program says this point is infeasible"
    (which no fallback will fix).
    """


class DesignService:
    """Serve precomputed designs from a table, with counted coverage."""

    def __init__(self, table: DesignTable) -> None:
        self.table = table
        spec = table.spec
        self.p_grid = spec.p_grid
        self.block_sizes = spec.block_sizes
        self.q_targets = spec.q_targets
        self.delay_budgets = spec.delay_budgets
        self.families = spec.families
        # One dict, fully materialized: feasible cells hold their
        # DesignPoint, infeasible cells hold None.  Lookup never parses.
        self._points: Dict[str, Optional[DesignPoint]] = {}
        for key, entry in table.cells.items():
            self._points[key] = (DesignPoint.from_dict(entry)
                                 if entry["feasible"] else None)
        self.hits = 0
        self.misses = 0

    @classmethod
    def load(cls, path: str) -> "DesignService":
        """Open a table written by ``repro-experiments design-table
        build`` (validated: schema, lattice completeness, content
        hash)."""
        return cls(DesignTable.load(path))

    # ------------------------------------------------------------------

    def resolve_cell(self, p: float, n: int, q_target: float,
                     max_delay_slots: Optional[int] = None
                     ) -> Tuple[float, int, float, int]:
        """Quantize a request onto the lattice (without looking it up).

        Raises :class:`DesignCoverageError` when any axis falls off the
        covered range in the conservative direction — above the top for
        ``p``/``n``/``q_target``, below the bottom for the delay
        budget.
        """
        try:
            grid_p = quantize_up(p, self.p_grid)
            grid_n = int(quantize_up(n, self.block_sizes))
            grid_q = quantize_up(q_target, self.q_targets)
            if max_delay_slots is None:
                grid_delay = self.delay_budgets[-1]
            else:
                grid_delay = int(quantize_down(max_delay_slots,
                                               self.delay_budgets))
        except DesignError as exc:
            raise DesignCoverageError(
                f"design table does not cover (p={p}, n={n}, "
                f"q_target={q_target}, max_delay_slots={max_delay_slots}): "
                f"{exc}")
        return grid_p, grid_n, grid_q, grid_delay

    def lookup(self, p: float, n: int, q_target: float,
               family: str = "emss",
               max_delay_slots: Optional[int] = None
               ) -> Optional[DesignPoint]:
        """The control-plane call: one covered cell, O(1).

        Returns the cell's :class:`~repro.design.optimizer.DesignPoint`,
        or ``None`` when the cell is covered but the design program
        found it infeasible.  Raises :class:`DesignCoverageError` for
        uncovered requests (off-lattice, or an unbuilt family).
        """
        registry = get_registry()
        if registry.enabled:
            registry.count("design.service.lookups")
        try:
            if family not in self.families:
                raise DesignCoverageError(
                    f"design table has no {family!r} family "
                    f"(built: {', '.join(self.families)})")
            cell = self.resolve_cell(p, n, q_target, max_delay_slots)
        except DesignCoverageError:
            self.misses += 1
            if registry.enabled:
                registry.count("design.service.misses")
            raise
        point = self._points[cell_key(family, *cell)]
        self.hits += 1
        if registry.enabled:
            registry.count("design.service.hits")
        return point

    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Manifest-ready summary: table identity plus traffic so far."""
        summary = self.table.describe()
        summary["lookup_hits"] = self.hits
        summary["lookup_misses"] = self.misses
        return summary
