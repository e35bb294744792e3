"""Puts the repository root on ``sys.path`` so tests and benchmarks can
share the oracles in ``tests/oracles.py`` under plain ``pytest`` too."""
