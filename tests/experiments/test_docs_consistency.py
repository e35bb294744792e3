"""Documentation stays in lockstep with the code.

DESIGN.md's experiment index, EXPERIMENTS.md's sections and the
README's claims all reference experiment ids and scheme names; these
tests fail when the code moves and the docs don't.
"""

import pathlib
import re

from repro.experiments import ALL_EXPERIMENTS
from repro.schemes.registry import available_schemes

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestDesignDoc:
    def test_exists_with_inventory(self):
        text = _read("DESIGN.md")
        assert "Experiment index" in text or "experiment index" in text

    def test_paper_figures_all_indexed(self):
        text = _read("DESIGN.md")
        for figure in range(1, 11):
            assert f"fig{figure}" in text.lower() or \
                f"Fig. {figure}" in text, figure

    def test_every_bench_file_mentioned_exists(self):
        text = _read("DESIGN.md")
        for match in re.finditer(r"benchmarks/(test_bench_\w+\.py)", text):
            assert (ROOT / "benchmarks" / match.group(1)).exists(), \
                match.group(1)


class TestExperimentsDoc:
    def test_extension_sections_match_registry(self):
        text = _read("EXPERIMENTS.md")
        for experiment_id in ALL_EXPERIMENTS:
            if experiment_id.startswith("ext-"):
                assert f"`{experiment_id}`" in text, experiment_id

    def test_regeneration_instructions_present(self):
        text = _read("EXPERIMENTS.md")
        assert "repro-experiments" in text


class TestReadme:
    def test_examples_listed_exist(self):
        text = _read("README.md")
        for match in re.finditer(r"`(\w+\.py)`", text):
            name = match.group(1)
            if (ROOT / "examples" / name).exists():
                continue
            assert name in ("setup.py",), f"README references missing {name}"

    def test_registry_schemes_described(self):
        text = _read("README.md").lower()
        for keyword in ("rohatgi", "emss", "tesla", "augmented chain",
                        "wong-lam", "saida"):
            assert keyword in text, keyword

    def test_equation_map_linked(self):
        assert "docs/equations.md" in _read("README.md")
        assert (ROOT / "docs" / "equations.md").exists()


class TestEquationMap:
    def test_every_module_cited_exists(self):
        text = _read("docs/equations.md")
        for match in re.finditer(r"`repro\.([a-z_.]+)`", text):
            dotted = "repro." + match.group(1).rstrip(".")
            parts = dotted.split(".")
            # Accept module paths and module.attr paths.
            candidates = [
                ROOT / "src" / pathlib.Path(*parts).with_suffix(".py"),
                ROOT / "src" / pathlib.Path(*parts[:-1]).with_suffix(".py"),
                ROOT / "src" / pathlib.Path(*parts) / "__init__.py",
            ]
            assert any(c.exists() for c in candidates), dotted

    def test_every_cited_test_file_exists(self):
        text = _read("docs/equations.md")
        for match in re.finditer(r"tests/([\w/]+\.py)", text):
            assert (ROOT / "tests" / match.group(1)).exists(), match.group(1)


class TestTutorial:
    def test_section3_snippet_runs_and_its_values_hold(self):
        """Every line of §3 runs; every exact value in a comment holds."""
        text = _read("docs/tutorial.md")
        section = text[text.index("## 3."):]
        snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        namespace = {}
        exec("from repro import make_scheme\n"
             "emss = make_scheme('emss(2,1)')", namespace)
        for line in snippet.splitlines():
            code, _, comment = line.partition("#")
            if not code.strip():
                continue
            claimed = re.search(r":\s*([0-9.]+)\s*$", comment)
            if claimed is None:
                exec(code, namespace)
                continue
            value = eval(code, namespace)
            assert round(value, 3) == float(claimed.group(1)), line
