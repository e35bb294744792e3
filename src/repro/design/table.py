"""Precomputed design tables: parameter choice turned into data.

A :class:`DesignTable` evaluates the unified design program
(:func:`~repro.design.frontend.design_point`) over the whole
``(p_grid x block_sizes x q_targets x delay_budgets)`` lattice, once
per family, offline — so the live control plane never has to run an
optimizer inline again (:mod:`repro.design.service` serves the result
as an O(1) lookup).

The build contract mirrors :mod:`repro.parallel`'s: cells fan out over
the process pool via :func:`~repro.parallel.pool.run_tasks` with
per-cell seeds spawned from one deterministic seed tree, and results
fold in lattice order — so a table built at any worker count is
**byte-identical**.  Serialization is canonical (sorted keys, no
timestamps, no machine identity) and carries a content hash plus a
versioned schema validated on load, like
:class:`~repro.obs.RunManifest` — schema drift fails loudly instead of
silently flying stale designs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.design.frontend import DESIGN_FAMILIES, design_point
from repro.design.grid import DEFAULT_DELAY_BUDGET, DEFAULT_P_GRID, validate_grid
from repro.design.optimizer import DesignPoint
from repro.exceptions import DesignError
from repro.obs.registry import get_registry
from repro.obs.spans import span
from repro.parallel.pool import run_tasks
from repro.parallel.seeds import spawn_seed_tree

__all__ = ["TABLE_SCHEMA_VERSION", "TableSpec", "DesignTable",
           "cell_key", "validate_table_payload"]

TABLE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TableSpec:
    """The lattice a table covers, and nothing machine-specific.

    The spec is part of the serialized payload: two builds from equal
    specs produce equal bytes, whatever the worker count.
    ``mc_trials``/``seed`` only influence the sampled families
    (``probabilistic``, ``heuristic``); the analytic families are pure
    functions of the lattice point.
    """

    p_grid: Tuple[float, ...] = DEFAULT_P_GRID
    block_sizes: Tuple[int, ...] = (12,)
    q_targets: Tuple[float, ...] = (0.75,)
    delay_budgets: Tuple[int, ...] = (DEFAULT_DELAY_BUDGET,)
    families: Tuple[str, ...] = ("emss", "ac", "offset")
    seed: int = 7
    mc_trials: int = 1500

    def __post_init__(self) -> None:
        validate_grid(self.p_grid, "p_grid")
        validate_grid(self.block_sizes, "block_sizes")
        validate_grid(self.q_targets, "q_targets")
        validate_grid(self.delay_budgets, "delay_budgets")
        for p in self.p_grid:
            if not 0.0 <= p < 1.0:
                raise DesignError(f"loss rates must be in [0, 1), got {p}")
        for q in self.q_targets:
            if not 0.0 < q <= 1.0:
                raise DesignError(f"q targets must be in (0, 1], got {q}")
        for n in self.block_sizes:
            if n < 2:
                raise DesignError(f"block sizes must be >= 2, got {n}")
        for budget in self.delay_budgets:
            if budget < 1:
                raise DesignError(f"delay budgets must be >= 1, got {budget}")
        if not self.families:
            raise DesignError("need at least one design family")
        for family in self.families:
            if family not in DESIGN_FAMILIES:
                raise DesignError(
                    f"unknown design family {family!r}; known: "
                    f"{', '.join(DESIGN_FAMILIES)}")
        if len(set(self.families)) != len(self.families):
            raise DesignError(f"duplicate families in {self.families!r}")
        if self.mc_trials < 1:
            raise DesignError(f"mc_trials must be >= 1, got {self.mc_trials}")

    def lattice(self) -> List[Tuple[str, float, int, float, int]]:
        """Every ``(family, p, n, q_target, delay_budget)`` cell, in
        canonical (sorted-axis) order — the order seeds are assigned
        and results are folded in."""
        return [
            (family, p, n, q, delay)
            for family in self.families
            for p in self.p_grid
            for n in self.block_sizes
            for q in self.q_targets
            for delay in self.delay_budgets
        ]

    def to_dict(self) -> Dict[str, object]:
        return {
            "p_grid": list(self.p_grid),
            "block_sizes": list(self.block_sizes),
            "q_targets": list(self.q_targets),
            "delay_budgets": list(self.delay_budgets),
            "families": list(self.families),
            "seed": self.seed,
            "mc_trials": self.mc_trials,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TableSpec":
        try:
            return cls(
                p_grid=tuple(payload["p_grid"]),
                block_sizes=tuple(int(n) for n in payload["block_sizes"]),
                q_targets=tuple(payload["q_targets"]),
                delay_budgets=tuple(int(b)
                                    for b in payload["delay_budgets"]),
                families=tuple(str(f) for f in payload["families"]),
                seed=int(payload["seed"]),
                mc_trials=int(payload["mc_trials"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DesignError(f"malformed table spec: {exc}")


def cell_key(family: str, p: float, n: int, q_target: float,
             delay_budget: int) -> str:
    """Canonical string key for one lattice cell.

    ``repr`` for the float axes: it round-trips exactly through JSON,
    so a key computed from a loaded grid equals the key computed at
    build time.
    """
    return (f"{family}|p={float(p)!r}|n={int(n)}|q={float(q_target)!r}"
            f"|delay={int(delay_budget)}")


def _build_cell(task: Tuple[str, float, int, float, int, int, int]
                ) -> Tuple[str, Dict[str, object]]:
    """Evaluate one lattice cell (module-level: must pickle to workers).

    Infeasibility at a cell is an *answer*, not an error: the entry
    records it so lookups can report it authoritatively instead of
    falling back to an inline search that would fail identically.
    """
    family, p, n, q_target, delay, seed, mc_trials = task
    key = cell_key(family, p, n, q_target, delay)
    registry = get_registry()
    if registry.enabled:
        registry.count("design.table.cells")
    try:
        point = design_point(family, n, p, q_target, max_delay_slots=delay,
                             seed=seed, mc_trials=mc_trials)
    except DesignError as exc:
        return key, {"feasible": False, "family": family,
                     "reason": str(exc)}
    entry: Dict[str, object] = {"feasible": True}
    entry.update(point.to_dict())
    return key, entry


@dataclass
class DesignTable:
    """A built table: the spec, every cell, and the content hash."""

    spec: TableSpec
    cells: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @classmethod
    def build(cls, spec: Optional[TableSpec] = None,
              workers: Optional[int] = None) -> "DesignTable":
        """Evaluate the whole lattice, fanned out across the pool.

        Per-cell seeds come from one
        :func:`~repro.parallel.seeds.spawn_seed_tree` over the lattice
        in canonical order, so cell ``i`` sees the same seed whether it
        runs in-process or on any worker — rebuilds are byte-identical
        at every pool size.
        """
        spec = spec if spec is not None else TableSpec()
        lattice = spec.lattice()
        seeds = spawn_seed_tree(spec.seed, len(lattice))
        tasks = [
            cell + (int(seeds[index].generate_state(1)[0]), spec.mc_trials)
            for index, cell in enumerate(lattice)
        ]
        registry = get_registry()
        if registry.enabled:
            registry.count("design.table.builds")
        with span("design.table.build"):
            results = run_tasks(_build_cell, tasks, workers)
        table = cls(spec=spec)
        for key, entry in results:
            table.cells[key] = entry
        return table

    # -- serialization -------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """JSON payload, content hash included."""
        body = {
            "schema_version": TABLE_SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "cells": {key: self.cells[key] for key in sorted(self.cells)},
        }
        body["content_hash"] = _content_hash(body)
        return body

    @property
    def content_hash(self) -> str:
        """Hash of the canonical payload (identity for caching/CI)."""
        return str(self.to_payload()["content_hash"])

    def to_bytes(self) -> bytes:
        """Canonical serialized form: sorted keys, no whitespace drift."""
        return (json.dumps(self.to_payload(), sort_keys=True,
                           separators=(",", ":")) + "\n").encode("utf-8")

    def save(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "DesignTable":
        validate_table_payload(payload)
        return cls(spec=TableSpec.from_dict(payload["spec"]),
                   cells=dict(payload["cells"]))

    @classmethod
    def load(cls, path: str) -> "DesignTable":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise DesignError(f"cannot read design table {path}: {exc}")
        except ValueError as exc:
            raise DesignError(f"malformed design table {path}: {exc}")
        return cls.from_payload(payload)

    # -- introspection -------------------------------------------------

    def feasible_count(self) -> int:
        return sum(1 for entry in self.cells.values() if entry["feasible"])

    def describe(self) -> Dict[str, object]:
        """Summary for manifests and the ``design-table show`` CLI."""
        per_family: Dict[str, Dict[str, int]] = {}
        for key, entry in self.cells.items():
            family = key.split("|", 1)[0]
            stats = per_family.setdefault(family,
                                          {"cells": 0, "feasible": 0})
            stats["cells"] += 1
            stats["feasible"] += 1 if entry["feasible"] else 0
        return {
            "schema_version": TABLE_SCHEMA_VERSION,
            "content_hash": self.content_hash,
            "cells": len(self.cells),
            "feasible": self.feasible_count(),
            "families": {name: per_family[name]
                         for name in sorted(per_family)},
            "spec": self.spec.to_dict(),
        }


def _content_hash(body: Dict[str, object]) -> str:
    canonical = json.dumps(
        {key: value for key, value in body.items()
         if key != "content_hash"},
        sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.blake2b(canonical, digest_size=16).hexdigest()


def validate_table_payload(payload: Dict[str, object]) -> None:
    """Raise :class:`DesignError` unless ``payload`` is a valid table.

    Checks the schema version, the spec, the cell-key/entry shapes,
    lattice completeness (every spec cell present, nothing extra) and
    the content hash — a truncated or hand-edited table must never be
    served.
    """
    if not isinstance(payload, dict):
        raise DesignError(
            f"design table must be a JSON object, got {type(payload)!r}")
    version = payload.get("schema_version")
    if version != TABLE_SCHEMA_VERSION:
        raise DesignError(f"unsupported design-table schema {version!r}")
    if not isinstance(payload.get("spec"), dict):
        raise DesignError("design table missing its spec")
    spec = TableSpec.from_dict(payload["spec"])
    cells = payload.get("cells")
    if not isinstance(cells, dict):
        raise DesignError("design table missing its cells")
    expected = {cell_key(*cell) for cell in spec.lattice()}
    if set(cells) != expected:
        missing = sorted(expected - set(cells))[:3]
        extra = sorted(set(cells) - expected)[:3]
        raise DesignError(
            f"design table cells do not match the spec lattice "
            f"(missing {missing!r}..., extra {extra!r}...)")
    for key, entry in cells.items():
        if not isinstance(entry, dict) or "feasible" not in entry:
            raise DesignError(f"malformed cell entry at {key!r}")
        if entry["feasible"]:
            DesignPoint.from_dict(entry)  # raises DesignError when bad
    stated = payload.get("content_hash")
    actual = _content_hash(payload)
    if stated != actual:
        raise DesignError(
            f"design-table content hash mismatch: file says {stated!r}, "
            f"payload hashes to {actual!r}")
