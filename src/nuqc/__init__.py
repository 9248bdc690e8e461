"""Measurement-driven simulation and synthesis of nonunitary gates."""

# bench/tests/test_bench.py reads these two through the package
from .qstate import basis_state, normalize

__version__ = "0.1.0"
