"""Measurement-driven simulation and synthesis of nonunitary gates."""

import types

from .errors import (
    AnnihilatedStateError,
    CircuitError,
    CircuitParseError,
    DegenerateBranchError,
    DomainError,
    IrreversibleError,
    MeasurementError,
    NetlistError,
    NuqcError,
    SearchBudgetError,
    ShapeError,
    StateMemoryError,
    UnsupportedInstanceError,
)
from .gates import GateSpec, from_matrix, normalize_gate, parse_label
from .measure import (
    MeasurementPair,
    ProtocolResult,
    ReversalPolicy,
    analytic_success,
    build_pair,
    build_reversal,
    run_with_reversal,
    sample,
    sample_reversal,
    success_prob,
)
from .qstate import StateVector, basis_state, fidelity, normalize, uniform_state
from .circuit import (
    CircuitProgram,
    CircuitStep,
    EnsembleStats,
    RunRecord,
    StepRecord,
    format_program,
    parse,
    parse_file,
    run_branch,
    run_ensemble,
    run_sampled,
)
from .synth import (
    approximate_n1,
    decompose_cn1,
    decompose_mcn1_ancilla,
    decompose_mcn1_bare,
    factor_diagonal,
    netlist_matrix,
    read_netlist,
    realized_operator,
    reconstruction_residual,
    svd_split,
    synthesize,
    write_netlist,
)
from .apps import (
    NandNetlist,
    TruthTableOracle,
    abrams_lloyd_run,
    compile_nand,
    evaluate_netlist,
    parse_nand_netlist,
    parse_truth_table,
    search_program,
)

__version__ = "0.1.0"

# The import blocks above are the one list of public names.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
__all__.append("__version__")
