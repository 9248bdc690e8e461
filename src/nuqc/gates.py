"""Gate catalog: unitary primitives and normalized nonunitary gates.

A nonunitary gate is kept with its largest singular value scaled to 1, which
maximizes the success probability of the measurement that realizes it.  Gate
matrices are written in the local basis ``|t_0 ... t_{k-1}>`` of the target
list, so for controlled gates the controls come first.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .linops import max_abs, require_square

# A normalized gate's largest singular value may exceed 1, and a unitary gate's
# Gram matrix differ from I, by at most this.
UNITARY_ATOL = 1e-9

# Gates whose smallest singular value sits below this are logically
# irreversible: they erase input information even on the success branch.
SINGULAR_ATOL = 1e-12

_LABEL_RE = re.compile(r"^([A-Z][A-Z0-9]*)\((.*)\)$")


@dataclass(frozen=True, eq=False)
class GateSpec:
    """A gate matrix plus the metadata the rest of the pipeline needs."""

    label: str
    arity: int
    matrix: np.ndarray
    kind: str  # "unitary" or "nonunitary"
    normalization_scale: float
    logically_reversible: bool

    @property
    def is_unitary(self) -> bool:
        return self.kind == "unitary"


def _arity_of(matrix: np.ndarray) -> int:
    dim = matrix.shape[0]
    arity = dim.bit_length() - 1
    if dim < 2 or dim != 1 << arity:
        raise ShapeError(f"gate dimension {dim} is not a power of two >= 2")
    return arity


def _make(label: str, matrix, kind: str | None = None, scale: float = 1.0,
          sv: Sequence[float] | None = None) -> GateSpec:
    """``sv``: the singular values of ``matrix``, descending, where the caller knows them."""
    m = require_square(matrix)
    arity = _arity_of(m)
    if kind is None:
        gram_defect = max_abs(m.conj().T @ m - np.eye(m.shape[0]))
        kind = "unitary" if gram_defect <= UNITARY_ATOL else "nonunitary"
    if kind == "unitary":  # every singular value is 1 within UNITARY_ATOL
        reversible = True
    else:
        if sv is None:
            sv = np.linalg.svd(m, compute_uv=False)
        reversible = bool(sv[-1] > SINGULAR_ATOL)
    m = m.copy()
    m.flags.writeable = False
    return GateSpec(
        label=label,
        arity=arity,
        matrix=m,
        kind=kind,
        normalization_scale=float(scale),
        logically_reversible=reversible,
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def _check_unit_interval(name: str, value: float, closed_top: bool) -> float:
    value = float(value)
    top_ok = value <= 1.0 if closed_top else value < 1.0
    if not (0.0 <= value and top_ok):
        rng = "[0, 1]" if closed_top else "[0, 1)"
        raise DomainError(f"{name} must lie in {rng}, got {value!r}")
    return value


def identity(n_qubits: int = 1) -> GateSpec:
    return _make("I", np.eye(1 << n_qubits), kind="unitary")


def x() -> GateSpec:
    return _make("X", [[0, 1], [1, 0]], kind="unitary")


def h() -> GateSpec:
    s = 1.0 / math.sqrt(2.0)
    return _make("H", [[s, s], [s, -s]], kind="unitary")


def cnot() -> GateSpec:
    return _make("CNOT", _controlled_block(np.array([[0, 1], [1, 0]]), 1), kind="unitary")


def ckx(n_controls: int) -> GateSpec:
    """X conditioned on ``n_controls`` control qubits (controls listed first)."""
    if n_controls < 1:
        raise DomainError(f"n_controls must be >= 1, got {n_controls}")
    block = _controlled_block(np.array([[0, 1], [1, 0]]), n_controls)
    return _make(f"CKX({n_controls})", block, kind="unitary")


def n1(a: float) -> GateSpec:
    """Single-qubit nonunitary gate diag(1, a) with 0 <= a < 1."""
    a = _check_unit_interval("a", a, closed_top=False)
    return _make(f"N1({_fmt(a)})", np.diag([1.0, a]), kind="nonunitary", sv=[1.0, a])


def _rotation(a: float) -> np.ndarray:
    a = _check_unit_interval("a", a, closed_top=True)
    s = math.sqrt(max(0.0, 1.0 - a * a))
    return np.array([[a, s], [s, -a]])


def u1(a: float) -> GateSpec:
    """Real rotation [[a, s], [s, -a]] with s = sqrt(1 - a**2); unitary partner of n1."""
    return _make(f"U1({_fmt(a)})", _rotation(a), kind="unitary")


def cn1(a: float) -> GateSpec:
    a = _check_unit_interval("a", a, closed_top=False)
    return _make(f"CN1({_fmt(a)})", np.diag([1.0, 1.0, 1.0, a]), kind="nonunitary",
                 sv=[1.0, 1.0, 1.0, a])


def cu1(a: float) -> GateSpec:
    return _make(f"CU1({_fmt(a)})", _controlled_block(_rotation(a), 1), kind="unitary")


def diagonal(entries: Sequence[float]) -> GateSpec:
    """Diagonal gate D(d_1, ..., d_m) with entries in [0, 1], as ``from_matrix`` bounds them."""
    values = [float(v) for v in entries]
    for v in values:
        if not 0.0 <= v <= 1.0 + UNITARY_ATOL:
            raise DomainError(f"diagonal entry must lie in [0, 1], got {v!r}")
    label = f"D({','.join(_fmt(v) for v in values)})"
    return _make(label, np.diag(values), sv=sorted(values, reverse=True))


def nand() -> GateSpec:
    """Two-qubit quantum NAND.

    Maps the basis states |00>, |01>, |10> to |10> and |11> to |00>, each with
    weight 1/sqrt(3): the logical result lands on the first target qubit and
    the second is cleared.
    """
    m = np.zeros((4, 4))
    m[2, 0] = m[2, 1] = m[2, 2] = 1.0
    m[0, 3] = 1.0
    return _make("NAND", m / math.sqrt(3.0), kind="nonunitary")


def abrams_lloyd() -> GateSpec:
    """Two-qubit nonlinear-evolution gate used for satisfiability search."""
    m = np.array(
        [
            [0.0, -1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [0.0, -1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
        ]
    )
    return _make("AL", m / math.sqrt(6.0), kind="nonunitary")


def _controlled_block(u: np.ndarray, n_controls: int) -> np.ndarray:
    dim = u.shape[0] << n_controls
    block = np.eye(dim, dtype=np.complex128)
    block[dim - u.shape[0]:, dim - u.shape[0]:] = u
    return block


def from_matrix(matrix, label: str | None = None) -> GateSpec:
    """Wrap an already-normalized matrix (largest singular value <= 1)."""
    m = require_square(matrix)
    sv = np.linalg.svd(m, compute_uv=False)
    top = float(sv[0])
    if top > 1.0 + UNITARY_ATOL:
        raise DomainError(
            f"largest singular value {top!r} exceeds 1; normalize_gate() first"
        )
    return _make(label or "MAT(@)", m, sv=sv)


def normalize_gate(matrix, label: str | None = None) -> GateSpec:
    """Scale a matrix so its largest singular value is 1 and record the factor."""
    m = require_square(matrix)
    sv = np.linalg.svd(m, compute_uv=False)
    top = float(sv[0])
    if top <= SINGULAR_ATOL:
        raise DomainError("cannot normalize a zero matrix")
    return _make(label or "MAT(@)", m / top, scale=top, sv=sv / top)


MatrixLoader = Callable[[str], np.ndarray]


def _parse_params(text: str, label: str) -> list[float]:
    if not text.strip():
        raise DomainError(f"{label} requires parameters")
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad parameter list {text!r} for {label}") from exc


def parse_label(text: str, matrix_loader: MatrixLoader | None = None) -> GateSpec:
    """Build a gate from its circuit-file label.

    Plain labels: X, H, CNOT, NAND, AL.  Parameterized: CKX(k), N1(a), U1(a),
    CN1(a), CU1(a), D(d1,...).  MAT(path) loads a matrix file through
    ``matrix_loader`` and normalizes it.
    """
    text = text.strip()
    plain = {
        "X": x,
        "H": h,
        "CNOT": cnot,
        "NAND": nand,
        "AL": abrams_lloyd,
        "I": identity,
    }
    if text in plain:
        return plain[text]()
    m = _LABEL_RE.match(text)
    if not m:
        raise DomainError(f"unrecognized gate label {text!r}")
    name, params = m.group(1), m.group(2)
    if name == "MAT":
        path = params.strip()
        if not path:
            raise DomainError("MAT(...) requires a file path")
        if matrix_loader is None:
            raise DomainError("no matrix loader available for MAT(...) labels")
        return normalize_gate(matrix_loader(path), label=f"MAT({path})")
    if name == "CKX":
        values = _parse_params(params, name)
        if len(values) != 1 or values[0] != int(values[0]):
            raise DomainError(f"CKX takes one integer parameter, got {params!r}")
        return ckx(int(values[0]))
    one_param = {"N1": n1, "U1": u1, "CN1": cn1, "CU1": cu1}
    if name in one_param:
        values = _parse_params(params, name)
        if len(values) != 1:
            raise DomainError(f"{name} takes one parameter, got {params!r}")
        return one_param[name](values[0])
    if name == "D":
        return diagonal(_parse_params(params, name))
    raise DomainError(f"unrecognized gate label {text!r}")
