"""The one validator for the canonical JSON-lines artifacts."""

import pytest

from repro.exceptions import AnalysisError
from repro.obs.artifacts import ARTIFACT_KINDS, validate_artifact


class TestValidateArtifact:
    @pytest.mark.parametrize("kind", ARTIFACT_KINDS)
    @pytest.mark.parametrize("line", ["3", "null", '"x"', "[1]"])
    def test_non_object_line_rejected_with_location(self, kind, line,
                                                    tmp_path):
        path = tmp_path / f"{kind}.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(AnalysisError, match=rf"{path}:1: .*objects"):
            validate_artifact(str(path), kind)

    @pytest.mark.parametrize("kind", ARTIFACT_KINDS)
    def test_blank_lines_skipped(self, kind, tmp_path):
        path = tmp_path / f"{kind}.jsonl"
        path.write_text("\n  \n")
        assert validate_artifact(str(path), kind) == 0

    @pytest.mark.parametrize("kind", ARTIFACT_KINDS)
    def test_invalid_json_rejected(self, kind, tmp_path):
        path = tmp_path / f"{kind}.jsonl"
        path.write_text("{\n")
        with pytest.raises(AnalysisError, match="not valid JSON"):
            validate_artifact(str(path), kind)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("")
        with pytest.raises(AnalysisError, match="unknown artifact kind"):
            validate_artifact(str(path), "spans")
