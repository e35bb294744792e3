"""The soak table: every row passes, failures are named, CI runs each row."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.serve import soak
from repro.serve.soak import SOAKS, main, run_soak

#: The smallest row: 4 receivers x 10 blocks, lifecycle on.
SMALL = "trace-determinism"
CI_FILE = Path(__file__).resolve().parents[2] / ".github/workflows/ci.yml"


@pytest.mark.parametrize("name", sorted(SOAKS))
def test_row_passes(name, tmp_path):
    assert run_soak(name, str(tmp_path)) == []


def _patch_pass(monkeypatch, edit):
    """Run ``edit(result, obs, index)`` after each ``run_loadgen`` pass."""
    real = soak.run_loadgen
    passes = []

    def patched(config, obs=None):
        result = real(config, obs=obs)
        edit(result, obs, len(passes))
        passes.append(obs)
        return result

    monkeypatch.setattr(soak, "run_loadgen", patched)


def _failures(tmp_path, capsys):
    status = main([SMALL, "--out", str(tmp_path)])
    assert status != 0
    return capsys.readouterr().err


class TestFailurePath:
    def test_one_lifecycle_byte_differs(self, monkeypatch, tmp_path, capsys):
        def drift(result, obs, index):
            if index == 1:
                data = bytearray(Path(obs.lifecycle_out).read_bytes())
                # The last trace ID's final hex digit: still a valid line.
                at = data.rindex(b'"}') - 1
                data[at] = ord("1") if data[at] == ord("0") else ord("0")
                Path(obs.lifecycle_out).write_bytes(bytes(data))

        _patch_pass(monkeypatch, drift)
        err = _failures(tmp_path, capsys)
        assert (f"FAIL {SMALL}: lifecycle.jsonl differs between passes"
                in err)
        assert err.count("FAIL") == 1

    def test_forged_summary(self, monkeypatch, tmp_path, capsys):
        def forge(result, obs, index):
            if index == 0:
                result.summary["forged_accepted"] = 1

        _patch_pass(monkeypatch, forge)
        err = _failures(tmp_path, capsys)
        assert f"FAIL {SMALL}: pass a: forged_accepted == 1" in err
        assert f"FAIL {SMALL}: summary.json differs between passes" in err

    def test_raising_check(self, monkeypatch, tmp_path, capsys):
        def boom(run):
            raise KeyError("no such counter")

        row = SOAKS[SMALL]
        monkeypatch.setitem(SOAKS, SMALL, replace(
            row, checks=row.checks + (("boom check", boom),
                                      ("false check", lambda run: False))))
        err = _failures(tmp_path, capsys)
        assert f"FAIL {SMALL}: boom check raised KeyError" in err
        assert f"FAIL {SMALL}: false check" in err

    def test_unknown_row_lists_names(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["no-such-row", "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        for name in SOAKS:
            assert name in err


def _ci_soak_rows():
    """The ``soak`` job's ``matrix.row`` list, read as plain text."""
    lines = CI_FILE.read_text().splitlines()
    start = lines.index("  soak:")
    rows, in_rows = [], False
    for line in lines[start + 1:]:
        if line.startswith("  ") and not line.startswith("   "):
            break  # the next job
        stripped = line.strip()
        if stripped == "row:":
            in_rows = True
        elif in_rows and stripped.startswith("- "):
            rows.append(stripped[2:].strip())
        elif in_rows and stripped:
            break
    return rows


def test_ci_matrix_runs_every_row():
    assert _ci_soak_rows() == sorted(SOAKS)
