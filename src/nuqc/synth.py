"""Factor normalized gates into the universal set {1-qubit unitaries, CNOT, diag(1, a)}.

A singular value decomposition peels off two unitaries and leaves a diagonal
of singular values; each diagonal entry below 1 becomes a multi-controlled
diag(1, a) factor conjugated by X gates.  Two realizations of those factors
are provided: a bare route that rewrites them over one- and two-qubit gates
(inverting the diagonal parameter where needed, at the cost of a known
proportionality constant), and an ancilla route that defers the nonunitary
part to a single measured ancilla.

Every netlist is a :class:`~nuqc.circuit.CircuitProgram` that records that
constant as its ``scale``: the product of its embedded step matrices,
restricted to its ``ancillas`` entering and leaving in |0>, equals
``scale**-1`` times the target operator.  ``nuqc simulate`` runs it as is.
"""

from __future__ import annotations

import math
import os
from typing import Sequence

import numpy as np

from . import gates
from .circuit import CircuitProgram, CircuitStep, format_program, parse_file
from .errors import DomainError, SearchBudgetError, ShapeError
from .gates import SINGULAR_ATOL, UNITARY_ATOL, GateSpec
from .linops import max_abs, svd, write_matrix
from .qstate import Gathers, apply_columns

# entries within ZERO_ATOL of 0, or UNIT_ATOL of 1 or I, count as exactly that
ZERO_ATOL = 1e-12
UNIT_ATOL = 1e-12
RESIDUAL_ATOL = 1e-8  # largest relative reconstruction residual a netlist may have
EPSILON_FLOOR = 1e-12  # approximate_n1's smallest log-domain accuracy
DEFAULT_EXPONENT_BUDGET = 10**7
SEARCH_CHUNK = 1 << 12  # approximate_n1 tries this many m at a time


def svd_split(gate: GateSpec) -> tuple[GateSpec, np.ndarray, GateSpec]:
    """Split ``gate`` as left_unitary @ diag(d) @ right_unitary.

    Singular values come back descending and clipped to [0, 1]; a largest
    singular value beyond 1 + ``UNITARY_ATOL`` means the gate was never
    normalized and raises ``DomainError``.
    """
    u, s, v = svd(gate.matrix)
    if s[0] > 1.0 + UNITARY_ATOL:
        raise DomainError(f"gate is not normalized: largest singular value {s[0]!r}")
    s = np.minimum(s, 1.0)
    # numpy's factors are unitary: no SVD of theirs is needed to check them
    return (gates._make("MAT(@left)", u, kind="unitary"), s,
            gates._make("MAT(@right)", v, kind="unitary"))


def factor_diagonal(d: Sequence[float]) -> list[tuple[int, float]]:
    """Factor diag(d) over basis-index factors.

    Returns ``(x_mask, a)`` pairs, one per diagonal entry below 1: conjugating
    a multi-controlled diag(1, a) on the full register by X gates on the
    qubits set in ``x_mask`` moves its action onto that entry.  Entries within
    ``UNIT_ATOL`` of 1 are skipped, and entries below ``SINGULAR_ATOL`` snap to 0.
    """
    values = [float(v) for v in d]
    n = (len(values) - 1).bit_length()
    if len(values) < 2 or (1 << n) != len(values):
        raise ShapeError(f"diagonal length {len(values)} is not a power of two >= 2")
    out: list[tuple[int, float]] = []
    for idx, v in enumerate(values):
        if v < -ZERO_ATOL or v > 1.0 + UNITARY_ATOL:
            raise DomainError(f"diagonal entry {v!r} outside [0, 1]")
        v = min(max(v, 0.0), 1.0)
        if abs(v - 1.0) <= UNIT_ATOL:
            continue
        mask = ~idx & ((1 << n) - 1)
        out.append((mask, 0.0 if v < SINGULAR_ATOL else v))
    return out


class GateMemo:
    """One object per distinct gate and per distinct step, for one synthesis.

    Steps that share a gate object share its prepared measurement pair when
    the netlist runs and its index map when it is verified.  Gates are made
    on first use, keyed by factory and parameter as the label prints it, and
    steps, which are immutable, by gate and targets.  A memo lives for one
    top-level call; a process-wide one would grow with every parameter ever
    synthesized.
    """

    def __init__(self):
        self._made: dict[tuple, GateSpec] = {}
        self._steps: dict[tuple, CircuitStep] = {}

    def step(self, gate: GateSpec, targets: tuple[int, ...]) -> CircuitStep:
        step = self._steps.get((gate, targets))
        if step is None:
            step = self._steps[gate, targets] = CircuitStep(gate, targets)
        return step

    def gate(self, factory, *params) -> GateSpec:
        key = (factory, *map(repr, params))
        gate = self._made.get(key)
        if gate is None:
            gate = self._made[key] = factory(*params)
        return gate


def _x_step(qubit: int, memo: GateMemo) -> CircuitStep:
    return memo.step(memo.gate(gates.x), (qubit,))


def _cn1_steps(v: float, control: int, target: int, memo: GateMemo,
               inverted: bool = False) -> list[CircuitStep]:
    """Steps realizing sqrt(v) * controlled-diag(1, v), or v * controlled-diag(1, 1/v).

    Three N1(sqrt(v)) factors, on the target, the target and the control,
    sit between two CNOTs.  The middle factor is X-conjugated; ``inverted``
    conjugates the other two instead, which inverts the diagonal parameter
    by the identity diag(1, 1/w) = (1/w) X diag(1, w) X.
    """
    n1 = memo.gate(gates.n1, math.sqrt(v))
    cnot = memo.step(memo.gate(gates.cnot), (control, target))

    def factor(wire: int, conjugated: bool) -> list[CircuitStep]:
        step = memo.step(n1, (wire,))
        if not conjugated:
            return [step]
        x = _x_step(wire, memo)
        return [x, step, x]

    return [*factor(target, inverted), cnot, *factor(target, not inverted), cnot,
            *factor(control, inverted)]


def decompose_cn1(a_prime: float, memo: GateMemo | None = None) -> CircuitProgram:
    """Rewrite controlled-diag(1, a') over one-qubit gates and CNOTs.

    Control is qubit 0, target qubit 1.  The emitted product equals
    sqrt(a') * diag(1, 1, 1, a'), so the netlist scale is 1/sqrt(a').
    """
    if not 0.0 < a_prime < 1.0:
        raise DomainError(f"a' must lie in (0, 1), got {a_prime!r}")
    memo = GateMemo() if memo is None else memo
    return CircuitProgram(2, _cn1_steps(a_prime, 0, 1, memo), scale=1.0 / math.sqrt(a_prime))


def decompose_mcn1_bare(a: float, n_controls: int, memo: GateMemo | None = None) -> CircuitProgram:
    """Rewrite a diag(1, a) on the target controlled by ``n_controls`` qubits.

    Controls are qubits 0..n_controls-1, target is qubit n_controls.  Walks a
    reflected Gray code over the controls, keeping the running parity of the
    current bit pattern on the pattern's highest control wire via CNOTs and
    firing a singly controlled diag(1, a**(1/2**(n_controls-1))) with a sign
    given by the pattern parity; odd patterns use the gate, even patterns its
    parameter-inverted mirror.  Uses 2**n_controls - 1 controlled factors and
    2**n_controls - 2 CNOTs.
    """
    if not 0.0 < a < 1.0:
        raise DomainError(f"a must lie in (0, 1), got {a!r}")
    if n_controls < 2:
        raise DomainError("one control is handled by decompose_cn1 directly")
    memo = GateMemo() if memo is None else memo
    k = n_controls
    target = k
    root = a ** (1.0 / (1 << (k - 1)))
    cn1 = memo.gate(gates.cn1, root)
    steps: list[CircuitStep] = []
    scale = 1.0
    last = 0
    for j in range(1, 1 << k):
        pattern = j ^ (j >> 1)
        wire = pattern.bit_length() - 1
        if last:
            changed = (pattern ^ last).bit_length() - 1
            source = (last.bit_length() - 1) if changed == wire else changed
            steps.append(memo.step(memo.gate(gates.cnot), (source, wire)))
        if bin(pattern).count("1") % 2 == 1:
            steps.append(memo.step(cn1, (wire, target)))
        else:
            # the constant the inverted ladder drops, 1 over root, joins the netlist scale
            steps.extend(_cn1_steps(root, wire, target, memo, inverted=True))
            scale *= 1.0 / root
        last = pattern
    return CircuitProgram(k + 1, steps, scale=scale)


def decompose_mcn1_ancilla(a: float, n_controls: int,
                           memo: GateMemo | None = None) -> CircuitProgram:
    """Realize a multi-controlled diag(1, a) by deferring it to an ancilla.

    Controls are qubits 0..n_controls-1 and the target is qubit n_controls;
    with no controls the construction acts on qubit 0 alone.  An X controlled
    on all data qubits marks the all-ones component on a fresh ancilla, whose
    diag(1, a) is replaced by its unitary partner rotating into a second
    ancilla that a projective diag(1, 0) measurement then clears.  Unmarking
    leaves the data register carrying the factor exactly, so the scale is 1.
    """
    if not 0.0 <= a < 1.0:
        raise DomainError(f"a must lie in [0, 1), got {a!r}")
    if n_controls < 0:
        raise DomainError(f"n_controls must be >= 0, got {n_controls}")
    memo = GateMemo() if memo is None else memo
    k = n_controls
    if k == 0:
        steps = [
            memo.step(memo.gate(gates.cu1, a), (0, 1)),
            memo.step(memo.gate(gates.n1, 0.0), (1,)),
        ]
        return CircuitProgram(2, steps, ancillas=(1,))
    mark = k + 1
    flag = memo.step(memo.gate(gates.ckx, k + 1), tuple(range(k + 1)) + (mark,))
    sink = k + 2
    steps = [
        flag,
        memo.step(memo.gate(gates.cu1, a), (mark, sink)),
        memo.step(memo.gate(gates.n1, 0.0), (sink,)),
        flag,
    ]
    return CircuitProgram(k + 3, steps, ancillas=(mark, sink))


def _power_block(value: float, power: int, qubit: int,
                 memo: GateMemo) -> tuple[list[CircuitStep], float]:
    """|power| copies of diag(1, value), X-conjugated when the power is negative.

    Returns the steps and the block's scale contribution: the emitted product
    for a negative power is value**|power| * diag(1, value**power), so the
    convention product = scale**-1 * target makes that contribution
    value**-|power|, or ``inf`` when that overflows a float.
    """
    steps = [memo.step(memo.gate(gates.n1, value), (qubit,))] * abs(power)
    if power >= 0:
        return steps, 1.0
    try:
        contribution = value ** (-abs(power))
    except OverflowError:
        contribution = math.inf
    return [_x_step(qubit, memo)] + steps + [_x_step(qubit, memo)], contribution


def approximate_n1(a: float, alpha: float, gamma: float, epsilon: float,
                   budget: int = DEFAULT_EXPONENT_BUDGET) -> tuple[int, int, CircuitProgram]:
    """Approximate diag(1, a) with powers of just diag(1, alpha**gamma) and diag(1, alpha).

    Searches for integers (m, l) with |log_alpha(a) - (m*gamma + l)| < epsilon,
    trying |m| = 0, 1, 2, ... with the positive sign first and picking l by
    rounding, ``SEARCH_CHUNK`` values of m per array pass.  Negative powers
    are realized through X conjugation, which costs a known proportionality
    constant folded into the netlist scale.  Raises
    ``SearchBudgetError`` once |m| exceeds ``budget``, and ``DomainError``
    when that scale overflows a float.
    """
    if not 0.0 < a < 1.0:
        raise DomainError(f"a must lie in (0, 1), got {a!r}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if gamma <= 0.0:
        raise DomainError(f"gamma must be positive, got {gamma!r}")
    if epsilon <= EPSILON_FLOOR:
        raise DomainError(f"epsilon must exceed {EPSILON_FLOOR!r}, got {epsilon!r}")
    goal = math.log(a) / math.log(alpha)
    last = max(budget, 0)  # m = 0 is always tried
    for start in range(0, last + 1, SEARCH_CHUNK):
        # per m of the chunk, the candidates m and -m in the order they are
        # tried; -0 repeats 0, which is tried first anyway
        chunk = np.arange(start, min(start + SEARCH_CHUNK, last + 1))
        candidates = chunk[:, None] * np.array([1, -1])
        # a non-finite gamma gives nan at m = 0, which ends the search where round() raises
        with np.errstate(invalid="ignore"):
            rest = goal - candidates * gamma
            ends = ~np.isfinite(rest) | (np.abs(rest - np.rint(rest)) < epsilon)
        if ends.any():
            first = int(ends.argmax())
            m, l = int(candidates.flat[first]), round(float(rest.flat[first]))
            break
    else:
        raise SearchBudgetError(f"no (m, l) within epsilon={epsilon!r} for |m| <= {budget}")
    steps: list[CircuitStep] = []
    scale = 1.0
    strong = alpha ** gamma
    memo = GateMemo()
    for value, power in ((alpha, l), (strong, m)):
        if power == 0:
            continue
        block, contribution = _power_block(value, power, 0, memo)
        steps.extend(block)
        scale *= contribution
    if math.isinf(scale):
        raise DomainError(f"the netlist scale for (m, l) = ({m}, {l}) overflows a float")
    return m, l, CircuitProgram(1, steps, scale=scale)


def synthesize(gate: GateSpec, mode: str = "bare") -> CircuitProgram:
    """Compile a normalized gate to a netlist over the universal set.

    ``bare`` keeps the register width equal to the gate arity and accepts the
    scale cost of inverted diagonal parameters; ``ancilla`` appends measured
    ancilla qubits (restored to |0> on the success branch) and keeps scale 1.
    An identity input yields an empty netlist.
    """
    if mode not in ("bare", "ancilla"):
        raise DomainError(f"mode must be 'bare' or 'ancilla', got {mode!r}")
    n = gate.arity
    # matrix index bit j lives on qubit j, and a step's first target is the
    # most significant bit of its own index, so raw-matrix steps span the
    # register highest qubit first
    data = tuple(reversed(range(n)))
    left, d, right = _split_or_passthrough(gate)
    factors = factor_diagonal(d)
    if not factors:
        steps = []
        if max_abs(gate.matrix - np.eye(1 << n)) > UNIT_ATOL:
            steps.append(CircuitStep(gates.from_matrix(gate.matrix, "MAT(@gate)"), data))
        return CircuitProgram(n, steps)
    # a one-qubit factor needs one ancilla, a controlled one a marker and a sink
    width = n if mode == "bare" else n + (1 if n == 1 else 2)
    ancillas = tuple(range(n, width))
    steps = []
    scale = 1.0
    eye = np.eye(1 << n)
    memo = GateMemo()
    if right is not None and max_abs(right.matrix - eye) > UNIT_ATOL:
        steps.append(CircuitStep(right, data))
    for mask, a in factors:
        conjugation = [_x_step(q, memo) for q in range(n) if (mask >> q) & 1]
        steps.extend(conjugation)
        sub = _factor_core(a, n, mode, memo)
        steps.extend(sub.steps)
        scale *= sub.scale
        steps.extend(conjugation)
    if left is not None and max_abs(left.matrix - eye) > UNIT_ATOL:
        steps.append(CircuitStep(left, data))
    return CircuitProgram(width, steps, scale=scale, ancillas=ancillas)


def _split_or_passthrough(gate: GateSpec):
    """Diagonal split of ``gate``, avoiding the SVD when it is already diagonal.

    Degenerate singular values let the SVD pick arbitrary unitary bases, which
    would wrap an exactly diagonal input in two opaque permutation steps.
    """
    m = gate.matrix
    d = np.diagonal(m)
    if (
        max_abs(m - np.diag(d)) <= ZERO_ATOL
        and max_abs(d.imag) <= ZERO_ATOL
        and np.all(d.real >= -ZERO_ATOL)
        and np.all(d.real <= 1.0 + UNITARY_ATOL)
    ):
        return None, np.clip(d.real, 0.0, 1.0), None
    return svd_split(gate)


def _factor_core(a: float, n: int, mode: str, memo: GateMemo) -> CircuitProgram:
    """Netlist for diag(1,...,1,a) on an n-qubit register (controls 0..n-2, target n-1)."""
    if mode == "ancilla":
        return decompose_mcn1_ancilla(a, n - 1, memo=memo)
    if n == 1:
        return CircuitProgram(1, [memo.step(memo.gate(gates.n1, a), (0,))])
    if a < SINGULAR_ATOL:
        # a projective factor has no legal parameter-inverted mirror, so emit
        # it as a single gate and let the runtime realize it as a measurement
        if n == 2:
            step = memo.step(memo.gate(gates.cn1, 0.0), (0, 1))
        else:
            entries = [1.0] * ((1 << n) - 1) + [0.0]
            step = CircuitStep(gates.diagonal(entries), tuple(reversed(range(n))))
        return CircuitProgram(n, [step])
    if n == 2:
        return decompose_cn1(a, memo)
    return decompose_mcn1_bare(a, n - 1, memo)


def _push_columns(netlist: CircuitProgram, columns: np.ndarray) -> np.ndarray:
    """Every column of ``columns`` after the netlist's steps, in order.

    A run of real monomial steps (X, CNOT, CKX, N1, CN1, real diagonals) is
    composed into one gather, ``coef * columns[index]``, applied just before
    the next other step, which goes through the state kernel, or at the end.
    """
    gathers = Gathers(netlist.n_qubits)
    index = coef = None  # the run so far; None is the identity
    for step in netlist.steps:
        found = gathers[step.gate, step.targets]
        if found is None:
            columns = _gather(columns, index, coef)
            index = coef = None
            columns = apply_columns(columns, step.gate.matrix, step.targets)
            continue
        # the run then the step: v -> c * (coef * v[index])[f]
        f, c = found
        if f is not None:
            index = f if index is None else index[f]
            coef = None if coef is None else coef[f]
        if c is not None:
            coef = c if coef is None else c * coef
    return _gather(columns, index, coef)


def _gather(columns: np.ndarray, index: np.ndarray | None,
            coef: np.ndarray | None) -> np.ndarray:
    """``coef[:, None] * columns[index]``, skipping an identity part."""
    if index is not None:
        columns = columns[index]
    if coef is not None:
        columns = coef[:, None] * columns
    return columns


def netlist_matrix(netlist: CircuitProgram) -> np.ndarray:
    """Dense product of the embedded step matrices (last step leftmost)."""
    return _push_columns(netlist, np.eye(1 << netlist.n_qubits, dtype=np.complex128))


def realized_operator(netlist: CircuitProgram) -> np.ndarray:
    """Netlist product restricted to ancillas entering and leaving in |0>.

    Only the 2**n basis columns with every ancilla in |0> go through the
    steps, so the cost is O(steps * 2**width * 2**n) rather than a dense
    2**width-square product per step.
    """
    index = np.arange(1 << netlist.n_qubits)
    keep = index[(index & sum(1 << q for q in netlist.ancillas)) == 0]
    columns = np.zeros((index.size, keep.size), dtype=np.complex128)
    columns[keep, np.arange(keep.size)] = 1.0
    return _push_columns(netlist, columns)[keep]


def reconstruction_residual(netlist: CircuitProgram, target) -> float:
    """Distance of the scaled realized operator from ``target``, relative to it.

    Measured in the target's frame, ``max|scale * realized - target| /
    max|target|``, so a wrong step shows at any scale.
    """
    target = np.asarray(target)
    return max_abs(netlist.scale * realized_operator(netlist) - target) / max_abs(target)


def write_netlist(netlist: CircuitProgram, path) -> None:
    """Write the netlist to ``path``, dumping raw-matrix gates as sidecar files."""
    directory, base = os.path.split(os.fspath(path))

    def namer(index: int, matrix: np.ndarray) -> str:
        name = f"{base}.g{index}.mat"
        write_matrix(os.path.join(directory, name), matrix)
        return name

    text = format_program(netlist, namer)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_netlist(path) -> CircuitProgram:
    """Read a netlist file; it is a circuit file like any other."""
    return parse_file(path)
