"""The public API surface stays importable and coherent."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("module", [
        "repro.core", "repro.crypto", "repro.schemes", "repro.network",
        "repro.simulation", "repro.analysis", "repro.design",
        "repro.experiments",
    ])
    def test_subpackage_all_resolves(self, module):
        package = importlib.import_module(module)
        for name in package.__all__:
            assert hasattr(package, name), f"{module}.{name}"

    def test_exception_hierarchy(self):
        from repro import (
            AnalysisError,
            CryptoError,
            DesignError,
            GraphError,
            ReproError,
            SchemeParameterError,
            SimulationError,
            VerificationError,
        )

        for exc in (AnalysisError, CryptoError, DesignError, GraphError,
                    SchemeParameterError, SimulationError):
            assert issubclass(exc, ReproError)
        assert issubclass(VerificationError, CryptoError)
        assert issubclass(SchemeParameterError, ValueError)

    def test_every_registered_scheme_instantiates_and_packetizes(self):
        from repro.crypto.signatures import HmacStubSigner
        from repro.schemes import available_schemes, make_scheme
        from repro.simulation.sender import make_payloads

        defaults = {
            "rohatgi": "rohatgi",
            "rohatgi-online": "rohatgi-online",
            "wong-lam": "wong-lam",
            "sign-each": "sign-each",
            "emss": "emss(2,1)",
            "ac": "ac(3,3)",
            "offsets": "offsets(1,4)",
            "random": "random(0.3,1)",
            "tesla": "tesla",
            "saida": "saida(0.5)",
        }
        assert set(defaults) == set(available_schemes())
        signer = HmacStubSigner(key=b"surface")
        for spec in defaults.values():
            scheme = make_scheme(spec)
            if spec == "tesla":
                continue  # TESLA packetizes through its own sender
            packets = scheme.make_block(make_payloads(12), signer)
            assert len(packets) == 12

    def test_docstrings_everywhere(self):
        """Every public module and top-level callable is documented."""
        modules = [
            "repro.core.graph", "repro.core.metrics", "repro.core.paths",
            "repro.core.bounds", "repro.core.recurrence",
            "repro.schemes.base", "repro.schemes.emss",
            "repro.schemes.augmented_chain", "repro.schemes.tesla",
            "repro.schemes.saida", "repro.network.loss",
            "repro.network.delay", "repro.simulation.receiver",
            "repro.analysis.montecarlo", "repro.analysis.exact_chain",
            "repro.analysis.frontier",
            "repro.design.dp", "repro.packets",
        ]
        for name in modules:
            module = importlib.import_module(name)
            assert module.__doc__, name
            for export in getattr(module, "__all__", []):
                item = getattr(module, export)
                if callable(item):
                    assert item.__doc__, f"{name}.{export}"
