import numpy as np
import pytest

from nuqc import circuit
from nuqc.errors import AnnihilatedStateError, ShapeError
from nuqc.qstate import (
    DUMP_THRESHOLD,
    StateVector,
    apply_columns,
    apply_embedded,
    basis_state,
    dump_state,
    embedded_matrix,
    fidelity,
    is_normalized,
    load_state,
    norm_sq,
    normalize,
    uniform_state,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _embed_reference(op, targets, n):
    """Embed via an explicit permutation and a Kronecker product.

    Builds the permutation sending qubit targets[0] to the most significant
    axis, independent of the index loop inside embedded_matrix.
    """
    k = len(targets)
    rest = [q for q in range(n - 1, -1, -1) if q not in targets]
    order = list(targets) + rest
    dim = 1 << n
    perm = np.zeros((dim, dim))
    for idx in range(dim):
        out = 0
        for pos, q in enumerate(order):
            out |= ((idx >> q) & 1) << (n - 1 - pos)
        perm[out, idx] = 1.0
    wide = np.kron(op, np.eye(1 << (n - k)))
    return perm.T @ wide @ perm


def test_state_vector_validation():
    with pytest.raises(ShapeError):
        StateVector(0, [1.0])
    with pytest.raises(ShapeError):
        StateVector(2, [1.0, 0.0])
    with pytest.raises(ShapeError):
        StateVector(1, [np.nan, 0.0])


def test_state_vector_is_immutable():
    psi = basis_state(1, 0)
    with pytest.raises(AttributeError):
        psi.n_qubits = 3
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_basis_state():
    psi = basis_state(3, 5)
    assert psi.dim == 8
    assert psi.amplitudes[5] == 1.0
    assert norm_sq(psi) == 1.0
    with pytest.raises(ShapeError):
        basis_state(2, 4)


def test_uniform_state():
    psi = uniform_state(2)
    assert np.allclose(psi.amplitudes, 0.5)
    assert is_normalized(psi)


def test_normalize():
    psi = StateVector(1, [3.0, 4.0])
    unit = normalize(psi)
    assert np.allclose(unit.amplitudes, [0.6, 0.8])
    with pytest.raises(AnnihilatedStateError):
        normalize(StateVector(1, [0.0, 0.0]))


def test_fidelity():
    a = basis_state(2, 0)
    b = uniform_state(2)
    assert fidelity(a, b) == pytest.approx(0.25, abs=1e-15)
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-15)


def test_apply_embedded_frozen_cnot():
    # on targets (0, 1) qubit 0 is the control; |01> has the control set
    psi = apply_embedded(basis_state(2, 0b01), CNOT, (0, 1))
    assert np.allclose(psi.amplitudes, basis_state(2, 0b11).amplitudes)
    # and with the roles swapped the target is qubit 0
    psi = apply_embedded(basis_state(2, 0b10), CNOT, (1, 0))
    assert np.allclose(psi.amplitudes, basis_state(2, 0b11).amplitudes)


def test_apply_embedded_frozen_h_on_high_qubit():
    expect = np.kron(H, np.eye(2))
    psi = apply_embedded(uniform_state(2), H, (1,))
    assert np.allclose(psi.amplitudes, expect @ uniform_state(2).amplitudes)


def test_apply_embedded_does_not_normalize():
    down = np.diag([1.0, 0.5]).astype(complex)
    psi = apply_embedded(basis_state(1, 1), down, (0,))
    assert norm_sq(psi) == pytest.approx(0.25, abs=1e-15)


def test_apply_embedded_target_validation():
    psi = uniform_state(2)
    with pytest.raises(ShapeError):
        apply_embedded(psi, X, ())
    with pytest.raises(ShapeError):
        apply_embedded(psi, X, (2,))
    with pytest.raises(ShapeError):
        apply_embedded(psi, CNOT, (0, 0))
    with pytest.raises(ShapeError):
        apply_embedded(psi, X, (0, 1))


def test_apply_embedded_matches_reference():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 4):
        for _ in range(12):
            k = int(rng.integers(1, min(n, 3) + 1))
            targets = tuple(rng.permutation(n)[:k].tolist())
            op = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            psi = StateVector(n, amps)
            got = apply_embedded(psi, op, targets).amplitudes
            want = _embed_reference(op, targets, n) @ amps
            assert np.allclose(got, want, atol=1e-12)


def test_embedded_matrix_matches_reference():
    rng = np.random.default_rng(43)
    for n in (2, 3, 4):
        for _ in range(8):
            k = int(rng.integers(1, 3))
            targets = tuple(rng.permutation(n)[:k].tolist())
            op = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
            got = embedded_matrix(op, targets, n)
            want = _embed_reference(op, targets, n)
            assert np.allclose(got, want, atol=1e-12)


def test_embedded_matrix_agrees_with_apply():
    rng = np.random.default_rng(44)
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = StateVector(3, amps)
    full = embedded_matrix(op, (2, 0), 3)
    assert np.allclose(full @ amps, apply_embedded(psi, op, (2, 0)).amplitudes)


def test_apply_columns_applies_the_kernel_to_each_column():
    rng = np.random.default_rng(45)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            k = int(rng.integers(1, min(n, 3) + 1))
            targets = tuple(rng.permutation(n)[:k].tolist())
            op = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
            cols = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
            got = apply_columns(cols, op, targets)
            assert got.shape == cols.shape
            for j in range(3):
                want = apply_embedded(StateVector(n, cols[:, j]), op, targets).amplitudes
                # a batched product may round differently from a vector one
                assert np.allclose(got[:, j], want, rtol=1e-13, atol=1e-13)


def test_apply_columns_validation():
    cols = np.eye(4, dtype=complex)
    with pytest.raises(ShapeError):
        apply_columns(cols, X, (2,))
    with pytest.raises(ShapeError):
        apply_columns(cols, CNOT, (0, 0))
    with pytest.raises(ShapeError):
        apply_columns(cols, X, (0, 1))
    with pytest.raises(ShapeError):
        apply_columns(np.ones(4, dtype=complex), X, (0,))  # one state, not columns
    with pytest.raises(ShapeError):
        apply_columns(np.ones((6, 2), dtype=complex), X, (0,))


def _dump_state_by_loop(state, threshold=DUMP_THRESHOLD):
    """The per-amplitude loop dump_state replaced, kept as its reference."""
    n = state.n_qubits
    lines = []
    for idx, amp in enumerate(state.amplitudes):
        if abs(amp) > threshold:
            lines.append(f"{idx:0{n}b} {float(amp.real)!r} {float(amp.imag)!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def edge_amplitudes(n, rng):
    """Amplitudes around DUMP_THRESHOLD, with signed zeros, on an n-qubit register."""
    amps = np.zeros(1 << n, dtype=complex)
    edge = [
        complex(DUMP_THRESHOLD, 0.0),
        complex(np.nextafter(DUMP_THRESHOLD, 1.0), -0.0),
        complex(np.nextafter(DUMP_THRESHOLD, 0.0), 0.0),
        complex(-0.0, np.nextafter(DUMP_THRESHOLD, 1.0)),
        complex(0.6, -0.0),
        complex(-0.0, -0.8),
        complex(0.7e-12, 0.8e-12),
        complex(-0.3, 0.1),
    ]
    idx = rng.permutation(1 << n)[: len(edge)]
    amps[idx] = edge[: idx.size]
    if n > 3:
        rest = rng.permutation(1 << n)[:200]
        amps[rest] = rng.normal(size=200) * 10.0 ** rng.integers(-14, 0, size=200)
    return amps


@pytest.mark.parametrize("n", [1, 3, 12])
def test_dump_state_matches_the_per_amplitude_loop(n):
    rng = np.random.default_rng(n)
    state = StateVector(n, edge_amplitudes(n, rng))
    text = dump_state(state)
    assert text == _dump_state_by_loop(state)
    assert "-0.0" in text
    assert dump_state(state, threshold=0.5) == _dump_state_by_loop(state, threshold=0.5)
    empty = StateVector(n, np.zeros(1 << n))
    assert dump_state(empty) == _dump_state_by_loop(empty) == ""


@pytest.mark.parametrize("n", [1, 3, 12])
def test_record_json_matches_the_per_amplitude_loop(n):
    rng = np.random.default_rng(100 + n)
    state = StateVector(n, edge_amplitudes(n, rng))
    record = circuit.RunRecord("success", 0.5, [], state)
    by_loop = [
        {"index": i, "re": float(a.real), "im": float(a.imag)}
        for i, a in enumerate(state.amplitudes)
        if abs(a) > 1e-12
    ]
    doc = circuit.record_to_json(record)
    assert doc["final_state"] == by_loop
    assert all(type(e["index"]) is int and type(e["re"]) is float for e in doc["final_state"])
    want = circuit.dumps_json(dict(doc, final_state=by_loop))
    assert circuit.dumps_json(doc) == want


def test_dump_load_round_trip():
    amps = np.zeros(8, dtype=complex)
    amps[1] = 0.6
    amps[6] = -0.8j
    psi = StateVector(3, amps)
    text = dump_state(psi)
    lines = text.strip().splitlines()
    assert lines[0].startswith("001 ")
    again = load_state(text)
    assert again.n_qubits == 3
    assert np.array_equal(again.amplitudes, amps)


def test_dump_skips_negligible_amplitudes():
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    amps[3] = 1e-15
    assert len(dump_state(StateVector(2, amps)).strip().splitlines()) == 1


def test_load_state_checks_declared_width():
    psi = load_state("01 1.0 0.0\n", n_qubits=2)
    assert psi.n_qubits == 2
    assert psi.amplitudes[1] == 1.0
    with pytest.raises(ShapeError):
        load_state("01 1.0 0.0\n", n_qubits=4)


def test_load_state_rejects_garbage():
    with pytest.raises(ShapeError):
        load_state("01 1.0\n")
    with pytest.raises(ShapeError):
        load_state("2x 1.0 0.0\n")
