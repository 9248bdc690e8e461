"""Exception types shared across the package."""

from __future__ import annotations


class NuqcError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(NuqcError, ValueError):
    """Operands have incompatible or malformed dimensions."""


class DomainError(NuqcError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class AnnihilatedStateError(NuqcError):
    """A state vector with norm below the annihilation threshold cannot be normalized."""


class StateMemoryError(NuqcError):
    """A register's state vectors would not fit in the memory available."""


class DegenerateBranchError(NuqcError):
    """A sampled measurement branch carries too little probability mass to trust numerically."""


class MeasurementError(NuqcError, ValueError):
    """Measurement strength parameters violate their admissible range."""


class IrreversibleError(MeasurementError):
    """The failure operator is singular, so no reversing measurement exists."""


class SearchBudgetError(NuqcError):
    """An approximation search exhausted its exponent budget without a hit."""


class CircuitError(NuqcError, ValueError):
    """A circuit program violates a semantic constraint."""


class CircuitParseError(CircuitError):
    """A circuit or netlist file failed to parse; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NetlistError(NuqcError, ValueError):
    """A gate-level netlist violates wiring or splitting rules."""


class UnsupportedInstanceError(NuqcError, ValueError):
    """The problem instance falls outside the handled class."""
