"""Each acceptance tolerance gives one answer through the whole chain.

A strength or a matrix just inside a bound is accepted by every layer that
sees it: the parser or a gate factory, ``build_pair``, ``build_reversal``,
``run_branch`` and ``run_sampled``, and ``synthesize`` for matrices.  One just
outside is refused by every one of them.  Inputs sit 0.5 and 2 times the
tolerance from each bound.  Exactly at a bound is tested only where the input
and the bound are computed alike: on scalars and diagonal matrices.  A rotated
matrix's computed singular values round either way there.
"""

import math

import numpy as np
import pytest

from nuqc import circuit, gates, measure, synth
from nuqc.errors import CircuitParseError, DomainError, IrreversibleError, MeasurementError
from nuqc.gates import UNITARY_ATOL, GateSpec
from nuqc.measure import STRENGTH_SLACK
from nuqc.qstate import uniform_state

S = STRENGTH_SLACK
Q_BOUND = math.sqrt(1.0 - 0.6 * 0.6)

# (c, q, k, accepted)
STRENGTHS = [
    # |c| in (STRENGTH_SLACK, 1 + STRENGTH_SLACK]
    (0.5 * S, None, 0, False),
    (S, None, 0, False),
    (2 * S, None, 0, True),
    (1 - 2 * S, None, 0, True),
    (1 - 0.5 * S, None, 0, True),
    (1 + 0.5 * S, None, 0, True),
    (1 + S, None, 0, True),
    (1 + 2 * S, None, 0, False),
    # a reversal needs 1 - |c|^2 > STRENGTH_SLACK
    (math.sqrt(1 - 0.5 * S), None, 1, False),
    (math.sqrt(1 - 2 * S), None, 1, True),
    (0.9999999999993, None, 1, True),  # 1 - |c|^2 = 1.4 S although |c| > 1 - S
    # |q| in (STRENGTH_SLACK, sqrt(1 - |c|^2) + STRENGTH_SLACK]
    (0.6, 0.5 * S, 1, False),
    (0.6, S, 1, False),
    (0.6, 2 * S, 1, True),
    (0.6, Q_BOUND + 0.5 * S, 1, True),
    (0.6, Q_BOUND + 2 * S, 1, False),
]


def _answer(layer) -> bool:
    """True if ``layer()`` accepts its input, False if it refuses it with a domain error."""
    try:
        layer()
    except (CircuitParseError, MeasurementError, DomainError):
        return False
    return True


def _runs(program: circuit.CircuitProgram) -> list[bool]:
    return [_answer(lambda: circuit.run_branch(program)),
            _answer(lambda: circuit.run_sampled(program, seed=0))]


@pytest.mark.parametrize("c,q,k,accepted", STRENGTHS)
def test_every_layer_applies_the_strength_rule(c, q, k, accepted):
    gate = gates.n1(0.5)
    attributes = f"c={c!r}" + (f" q={q!r}" if q is not None else "") + (f" k={k}" if k else "")
    text = f"qubits 1\ninit uniform\ngate N1(0.5) 0 {attributes}\n"
    if accepted:
        program = circuit.parse(text)
        step = program.steps[0]
        assert (step.c, step.q, step.max_reversals) == (c, q, k)
        assert _runs(program) == [True, True]
    else:
        with pytest.raises(CircuitParseError, match="^line 3: "):
            circuit.parse(text)

    def prepare():
        pair = measure.build_pair(gate, c)
        if k:
            measure.build_reversal(pair, q, max_reversals=k)

    built = circuit.CircuitProgram(1, [circuit.CircuitStep(gate, (0,), c, q, k)],
                                   uniform_state(1))
    assert [_answer(prepare)] + _runs(built) == [accepted] * 3


def test_a_missing_reversal_is_an_irreversible_error():
    pair = measure.build_pair(gates.n1(0.5), math.sqrt(1 - 0.5 * S))
    with pytest.raises(IrreversibleError, match=r"^reversal requires c < 1 "):
        measure.build_reversal(pair, max_reversals=1)


def _matrix(excess: float, rotate: bool) -> np.ndarray:
    """diag(1 + excess * UNITARY_ATOL, 0.5), optionally as U . diag . U^dag."""
    m = np.diag([1.0 + excess * UNITARY_ATOL, 0.5]).astype(complex)
    if rotate:
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        m = u @ m @ u.conj().T
    return m


# (excess over 1 in units of UNITARY_ATOL, rotated); 1x only on the diagonal
MATRICES = ([(e, False) for e in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)]
            + [(e, True) for e in (-2.0, -0.5, 0.5, 2.0)])


def _program(gate: GateSpec, c: float, k: int = 0) -> circuit.CircuitProgram:
    return circuit.CircuitProgram(1, [circuit.CircuitStep(gate, (0,), c, None, k)],
                                  uniform_state(1))


@pytest.mark.parametrize("excess,rotate", MATRICES)
def test_every_layer_bounds_a_singular_value_by_the_unitary_slack(excess, rotate):
    m = _matrix(excess, rotate)
    accepted = excess <= 1.0
    factories = [lambda: gates.from_matrix(m)]
    if not rotate:
        top = 1.0 + excess * UNITARY_ATOL
        text = f"qubits 1\ninit uniform\ngate D({top!r},0.5) 0\n"
        factories += [lambda: gates.diagonal([top, 0.5]), lambda: circuit.parse(text)]
        if accepted:
            assert _runs(circuit.parse(text)) == [True, True]
    assert [_answer(f) for f in factories] == [accepted] * len(factories)
    # the gate a factory makes, made here also where the factory refuses, so
    # that each later layer gives its own answer
    gate = GateSpec("MAT(@)", 1, m, "nonunitary", 1.0, True)
    answers = [_answer(lambda: measure.build_pair(gate, 1.0))] + _runs(_program(gate, 1.0))
    answers += [_answer(lambda: synth.synthesize(gate, mode=mode)) for mode in ("bare", "ancilla")]
    assert answers == [accepted] * 5
    if accepted:  # below full strength every gate a factory accepts is legal
        assert _answer(lambda: measure.build_pair(gate, 0.9))
        assert _runs(_program(gate, 0.9)) == [True, True]


@pytest.mark.parametrize("excess,rotate", [
    (-2.0, False), (-0.5, False), (-2.0, True), (-0.5, True),
    (0.5, False), (1.0, False), (0.5, True)])
def test_a_reversal_accepts_every_gate_a_factory_accepts(excess, rotate):
    gate = gates.from_matrix(_matrix(excess, rotate))
    pair = measure.build_pair(gate, 0.9)
    measure.build_reversal(pair, max_reversals=1)
    program = _program(gate, 0.9, k=1)
    circuit.run_branch(program)
    circuit.run_sampled(program, seed=0)


def test_a_reversal_refuses_a_gate_ten_slacks_above_one():
    # I - R0^dag R0 then has an eigenvalue near -85 UNITARY_ATOL at |c| = 0.9, past
    # the 8.5 UNITARY_ATOL + PSD_CLAMP that build_reversal allows
    gate = gates._make("MAT(@)", np.diag([1.0 + 10 * UNITARY_ATOL, 0.5]))
    pair = measure.build_pair(gate, 0.9)
    with pytest.raises(DomainError, match="^matrix is not positive semidefinite"):
        measure.build_reversal(pair, max_reversals=1)
