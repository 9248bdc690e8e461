"""State vectors over a register of up to 24 qubits.

Qubit 0 is the least significant bit of the basis index, so ``|q_{n-1} ... q_1
q_0>`` reads left to right from the written ket.  When a k-qubit operator is
applied to targets ``(t_0, ..., t_{k-1})``, target ``t_0`` supplies the most
significant bit of the operator's local basis index, matching how small gate
matrices are written down.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import AnnihilatedStateError, ShapeError

MAX_QUBITS = 24
NORM_ATOL = 1e-10

# Norms below this are treated as an annihilated (fully suppressed) state.
ANNIHILATION_THRESHOLD = 1e-14

# Amplitudes below this magnitude are omitted from dumps.
DUMP_THRESHOLD = 1e-12


class StateVector:
    """Immutable amplitude vector for an ``n_qubits`` register."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes, copy: bool = True):
        if not 1 <= n_qubits <= MAX_QUBITS:
            raise ShapeError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
        amps = np.array(amplitudes, dtype=np.complex128, copy=copy).reshape(-1)
        if amps.size != 1 << n_qubits:
            raise ShapeError(f"expected {1 << n_qubits} amplitudes, got {amps.size}")
        if not np.isfinite(amps).all():
            raise ShapeError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __reduce__(self):
        return (StateVector, (self.n_qubits, np.asarray(self.amplitudes)))

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


def basis_state(n_qubits: int, index: int) -> StateVector:
    """Computational basis state ``|index>``."""
    if not 0 <= index < (1 << n_qubits):
        raise ShapeError(f"basis index {index} out of range for {n_qubits} qubits")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n_qubits, amps, copy=False)


def uniform_state(n_qubits: int) -> StateVector:
    """Equal superposition of all basis states."""
    dim = 1 << n_qubits
    amps = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    return StateVector(n_qubits, amps, copy=False)


def norm_sq(state: StateVector) -> float:
    a = state.amplitudes
    return float(np.real(np.vdot(a, a)))


def normalize(state: StateVector) -> StateVector:
    nrm = np.sqrt(norm_sq(state))
    if nrm < ANNIHILATION_THRESHOLD:
        raise AnnihilatedStateError(f"cannot normalize state with norm {nrm:.3e}")
    return StateVector(state.n_qubits, state.amplitudes / nrm, copy=False)


def is_normalized(state: StateVector, atol: float = NORM_ATOL) -> bool:
    return abs(norm_sq(state) - 1.0) <= atol


def fidelity(a: StateVector, b: StateVector) -> float:
    """Overlap ``|<a|b>|**2`` between two states of the same width."""
    if a.n_qubits != b.n_qubits:
        raise ShapeError("states act on registers of different width")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def _check_targets(n_qubits: int, targets: Sequence[int]) -> tuple[int, ...]:
    targets = tuple(int(t) for t in targets)
    if not targets:
        raise ShapeError("at least one target qubit is required")
    for t in targets:
        if not 0 <= t < n_qubits:
            raise ShapeError(f"target qubit {t} out of range for {n_qubits} qubits")
    if len(set(targets)) != len(targets):
        raise ShapeError(f"duplicate target qubits in {targets}")
    return targets


def _check_operator(n_qubits: int, op,
                    targets: Sequence[int]) -> tuple[np.ndarray, tuple[int, ...]]:
    targets = _check_targets(n_qubits, targets)
    op = np.asarray(op, dtype=np.complex128)
    k = len(targets)
    if op.shape != (1 << k, 1 << k):
        raise ShapeError(f"operator shape {op.shape} does not match {k} targets")
    return op, targets


def _apply(amps: np.ndarray, op: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """The state kernel: ``op`` on ``targets`` of a ``(2**n,)`` or ``(2**n, cols)`` array.

    Each column is one register state.  Unchecked; callers validate through
    :func:`_check_operator`.
    """
    n = amps.shape[0].bit_length() - 1
    k = len(targets)
    psi = amps.reshape((2,) * n + amps.shape[1:])
    # the target axes first, as np.moveaxis would put them, without its
    # axis normalization, which costs more than the rest on small registers
    axes = [n - 1 - t for t in targets]
    order = axes + [a for a in range(psi.ndim) if a not in axes]
    moved = psi.transpose(order)
    block = moved.reshape(1 << k, -1)
    out = (op @ block).reshape(moved.shape)
    inverse = sorted(range(psi.ndim), key=order.__getitem__)
    return out.transpose(inverse).reshape(amps.shape)


def apply_embedded(state: StateVector, op, targets: Sequence[int]) -> StateVector:
    """Apply a k-qubit operator to the chosen targets of a wider register.

    The result is returned unnormalized so that its squared norm is the
    probability weight of the branch the operator represents.  Runs in
    O(2**n * 2**k) time without forming the embedded full-register matrix.
    """
    n = state.n_qubits
    op, targets = _check_operator(n, op, targets)
    return StateVector(n, _apply(state.amplitudes, op, targets), copy=False)


def apply_columns(columns, op, targets: Sequence[int]) -> np.ndarray:
    """Apply a k-qubit operator to every column of a ``(2**n, cols)`` array.

    Column j of the result is :func:`apply_embedded` of column j, computed by
    the same kernel for all columns at once; unnormalized, like it.
    """
    columns = np.asarray(columns, dtype=np.complex128)
    n = columns.shape[0].bit_length() - 1 if columns.ndim == 2 else 0
    if not 1 <= n <= MAX_QUBITS or columns.shape[0] != 1 << n:
        raise ShapeError(f"expected a (2**n, cols) array with 1 <= n <= {MAX_QUBITS}, "
                         f"got shape {columns.shape}")
    op, targets = _check_operator(n, op, targets)
    return _apply(columns, op, targets)


def embedded_matrix(op, targets: Sequence[int], n_qubits: int) -> np.ndarray:
    """Dense full-register matrix of an operator embedded on ``targets``.

    Built entry by entry from the index arithmetic, so it serves as an
    independent test oracle for the state kernel behind :func:`apply_embedded`
    and :func:`apply_columns`.  Exponential in ``n_qubits``; meant for small
    registers.
    """
    op, targets = _check_operator(n_qubits, op, targets)
    k = len(targets)
    dim = 1 << n_qubits
    clear = 0
    for t in targets:
        clear |= 1 << t
    full = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        loc = 0
        for t in targets:
            loc = (loc << 1) | ((col >> t) & 1)
        base = col & ~clear
        for row_loc in range(1 << k):
            row = base
            for j, t in enumerate(targets):
                if (row_loc >> (k - 1 - j)) & 1:
                    row |= 1 << t
            full[row, col] = op[row_loc, loc]
    return full


def live_amplitudes(state: StateVector,
                    threshold: float = DUMP_THRESHOLD) -> list[tuple[int, float, float]]:
    """``(index, re, im)`` of each amplitude with magnitude above ``threshold``, by index."""
    amps = state.amplitudes
    live = np.flatnonzero(np.abs(amps) > threshold)
    return list(zip(live.tolist(), amps.real[live].tolist(), amps.imag[live].tolist()))


def dump_state(state: StateVector, threshold: float = DUMP_THRESHOLD) -> str:
    """Text dump, one ``binary_index re im`` line per non-negligible amplitude."""
    n = state.n_qubits
    lines = [f"{idx:0{n}b} {re!r} {im!r}" for idx, re, im in live_amplitudes(state, threshold)]
    return "\n".join(lines) + ("\n" if lines else "")


def load_state(text: str, n_qubits: int | None = None) -> StateVector:
    """Parse the :func:`dump_state` format.

    When ``n_qubits`` is omitted it is taken from the width of the binary
    indices.  Unlisted amplitudes are zero.  The result is not normalized.
    """
    entries: list[tuple[str, complex]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ShapeError(f"bad state line {raw!r}; expected 'bits re im'")
        bits, re_s, im_s = parts
        if set(bits) - {"0", "1"}:
            raise ShapeError(f"bad basis index {bits!r}")
        try:
            entries.append((bits, complex(float(re_s), float(im_s))))
        except ValueError as exc:
            raise ShapeError(f"bad amplitude on line {raw!r}") from exc
    if not entries:
        raise ShapeError("state text contains no amplitudes")
    width = len(entries[0][0])
    if any(len(bits) != width for bits, _ in entries):
        raise ShapeError("inconsistent basis index widths")
    if n_qubits is None:
        n_qubits = width
    elif n_qubits != width:
        raise ShapeError(f"state has {width} qubits, expected {n_qubits}")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    for bits, amp in entries:
        amps[int(bits, 2)] += amp
    return StateVector(n_qubits, amps, copy=False)
