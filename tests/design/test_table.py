"""Unit tests for design-table builds, serialization and validation."""

import json

import pytest

from repro.cli import _build_design_table_parser, _table_spec
from repro.design.grid import DEFAULT_P_GRID
from repro.design.table import (
    TABLE_SCHEMA_VERSION,
    DesignTable,
    TableSpec,
    cell_key,
    validate_table_payload,
)
from repro.exceptions import DesignError

SMALL = TableSpec(p_grid=(0.05, 0.2), block_sizes=(12,),
                  q_targets=(0.75,), delay_budgets=(8,),
                  families=("emss", "ac"))


class TestTableSpec:
    def test_lattice_order_is_canonical(self):
        lattice = SMALL.lattice()
        assert lattice == [
            ("emss", 0.05, 12, 0.75, 8), ("emss", 0.2, 12, 0.75, 8),
            ("ac", 0.05, 12, 0.75, 8), ("ac", 0.2, 12, 0.75, 8),
        ]

    def test_round_trips_through_dict(self):
        assert TableSpec.from_dict(SMALL.to_dict()) == SMALL

    def test_rejects_unknown_family(self):
        with pytest.raises(DesignError, match="unknown design family"):
            TableSpec(families=("emss", "tesla"))

    def test_rejects_duplicate_families(self):
        with pytest.raises(DesignError, match="duplicate"):
            TableSpec(families=("emss", "emss"))

    def test_rejects_bad_axes(self):
        with pytest.raises(DesignError):
            TableSpec(p_grid=(0.2, 0.1))
        with pytest.raises(DesignError):
            TableSpec(p_grid=(0.1, 1.5))
        with pytest.raises(DesignError):
            TableSpec(q_targets=(0.0,))
        with pytest.raises(DesignError):
            TableSpec(block_sizes=(1,))
        with pytest.raises(DesignError):
            TableSpec(delay_budgets=(0,))
        with pytest.raises(DesignError):
            TableSpec(families=())

    def test_cell_key_floats_round_trip_json(self):
        p = 0.1 + 0.2  # 0.30000000000000004: repr must survive JSON
        key = cell_key("emss", p, 12, 0.75, 8)
        reloaded = json.loads(json.dumps(p))
        assert cell_key("emss", reloaded, 12, 0.75, 8) == key


class TestBuildCommand:
    """``repro-experiments design-table build`` over ``TableSpec``."""

    @staticmethod
    def _spec(*flags):
        return _table_spec(
            _build_design_table_parser().parse_args(["build", *flags]))

    def test_no_flags_build_the_default_spec(self):
        assert self._spec() == TableSpec()

    def test_each_flag_sets_its_field_only(self):
        assert self._spec("--block-sizes", "8, 12", "--families", "emss",
                          "--seed", "3") == TableSpec(
            block_sizes=(8, 12), families=("emss",), seed=3)
        assert self._spec("--p-grid", "0.1,0.2", "--q-targets", "0.9",
                          "--delay-budgets", "4", "--mc-trials", "10") == \
            TableSpec(p_grid=(0.1, 0.2), q_targets=(0.9,),
                      delay_budgets=(4,), mc_trials=10)


class TestBuild:
    def test_covers_the_whole_lattice(self):
        table = DesignTable.build(SMALL, workers=1)
        assert set(table.cells) == {cell_key(*cell)
                                    for cell in SMALL.lattice()}
        assert table.feasible_count() == len(SMALL.lattice())

    def test_byte_identical_across_worker_counts(self):
        serial = DesignTable.build(SMALL, workers=1)
        fanned = DesignTable.build(SMALL, workers=2)
        assert serial.to_bytes() == fanned.to_bytes()
        assert serial.content_hash == fanned.content_hash

    def test_sampled_families_are_seed_deterministic(self):
        spec = TableSpec(p_grid=(0.1,), block_sizes=(16,),
                         q_targets=(0.6,), delay_budgets=(8,),
                         families=("probabilistic",), mc_trials=300)
        assert (DesignTable.build(spec, workers=1).to_bytes()
                == DesignTable.build(spec, workers=2).to_bytes())

    def test_infeasible_cells_are_recorded_not_raised(self):
        spec = TableSpec(p_grid=(0.5,), block_sizes=(12,),
                         q_targets=(0.9999,), delay_budgets=(1,),
                         families=("emss",))
        table = DesignTable.build(spec, workers=1)
        assert table.feasible_count() == 0
        entry = table.cells[cell_key("emss", 0.5, 12, 0.9999, 1)]
        assert entry["feasible"] is False
        assert entry["reason"]

    def test_default_spec_builds(self):
        table = DesignTable.build(
            TableSpec(p_grid=DEFAULT_P_GRID[:2], families=("emss",)),
            workers=1)
        assert table.feasible_count() == 2


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        table = DesignTable.build(SMALL, workers=1)
        path = str(tmp_path / "table.json")
        table.save(path)
        loaded = DesignTable.load(path)
        assert loaded.to_bytes() == table.to_bytes()

    def test_payload_carries_schema_and_hash(self):
        payload = DesignTable.build(SMALL, workers=1).to_payload()
        assert payload["schema_version"] == TABLE_SCHEMA_VERSION
        validate_table_payload(payload)

    def test_rejects_wrong_schema_version(self):
        payload = DesignTable.build(SMALL, workers=1).to_payload()
        payload["schema_version"] = 99
        with pytest.raises(DesignError, match="schema"):
            validate_table_payload(payload)

    def test_rejects_tampered_cells(self):
        payload = DesignTable.build(SMALL, workers=1).to_payload()
        key = next(iter(payload["cells"]))
        payload["cells"][key]["cost"] = 0.0
        with pytest.raises(DesignError, match="hash"):
            validate_table_payload(payload)

    def test_rejects_missing_cells(self):
        payload = DesignTable.build(SMALL, workers=1).to_payload()
        payload["cells"].popitem()
        with pytest.raises(DesignError, match="lattice"):
            validate_table_payload(payload)

    def test_load_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "table.json"
        table = DesignTable.build(SMALL, workers=1)
        path.write_bytes(table.to_bytes()[:-40])
        with pytest.raises(DesignError):
            DesignTable.load(str(path))

    def test_load_missing_file(self):
        with pytest.raises(DesignError, match="cannot read"):
            DesignTable.load("/nonexistent/table.json")


class TestDescribe:
    def test_per_family_summary(self):
        summary = DesignTable.build(SMALL, workers=1).describe()
        assert summary["cells"] == 4
        assert summary["families"]["emss"] == {"cells": 2, "feasible": 2}
        assert summary["families"]["ac"] == {"cells": 2, "feasible": 2}
