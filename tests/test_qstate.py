import io

import numpy as np
import pytest

from nuqc import circuit
from nuqc.errors import AnnihilatedStateError, ShapeError
from nuqc.qstate import (
    DUMP_THRESHOLD,
    Buffers,
    StateVector,
    apply_columns,
    apply_embedded,
    basis_state,
    dump_state,
    embedded_matrix,
    fidelity,
    load_state,
    norm_sq,
    normalize,
    uniform_state,
)

import stepwise
from stepwise import is_normalized

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
    with pytest.raises(ShapeError, match=r"^states act on registers of different width$"):
        fidelity(a, uniform_state(3))


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
    """``dump_state``'s text, one f-string per printed amplitude: its reference."""
    n = state.n_qubits
    live = np.flatnonzero(np.abs(state.amplitudes) > threshold)
    values = state.amplitudes[live].astype(complex)
    return "".join(f"{i:0{n}b} {re!r} {im!r}\n" for i, re, im
                   in zip(live.tolist(), values.real.tolist(), values.imag.tolist()))


def _dump_text(state, threshold=DUMP_THRESHOLD):
    """The lines ``dump_state`` writes for ``state``, as one string."""
    out = io.StringIO()
    dump_state(state, threshold, out=out)
    return out.getvalue()


def _record_json_by_loop(record, **extra):
    """The document ``write_record_json`` streams, built whole and per amplitude: its reference."""
    final = None
    if record.final_state is not None:
        final = [{"index": i, "re": float(a.real), "im": float(a.imag)}
                 for i, a in enumerate(record.final_state.amplitudes) if abs(a) > DUMP_THRESHOLD]
    doc = {
        "outcome": record.outcome,
        "total_probability": record.total_probability,
        "per_step": [{"label": r.label, "p": r.probability, "reversals": r.reversals}
                     for r in record.steps],
        "final_state": final,
    }
    if record.failed_step is not None:
        doc["failed_step"] = record.failed_step
    return circuit.dumps_json(doc | extra) + "\n"


def _record_json_streamed(record, **extra):
    out = io.StringIO()
    assert circuit.write_record_json(record, out, **extra) is None
    return out.getvalue()


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
    text = _dump_text(state)
    assert text == _dump_state_by_loop(state)
    assert "-0.0" in text
    assert _dump_text(state, threshold=0.5) == _dump_state_by_loop(state, threshold=0.5)
    empty = StateVector(n, np.zeros(1 << n))
    assert _dump_text(empty) == _dump_state_by_loop(empty) == ""


def _dump_cases(n, rng):
    """``(what, amplitudes)`` on n qubits for the byte tables of ``dump_state``, float64 and complex."""
    above = np.nextafter(DUMP_THRESHOLD, 1.0)
    edge = np.array([0.0, -0.0, 5e-320, -5e-320, DUMP_THRESHOLD, -DUMP_THRESHOLD, above, -above,
                     0.5, -0.25, 1 / 3])
    size = 1 << min(n, 17)  # on 20 qubits, only the lowest 2^17 amplitudes are nonzero

    def parts(values):
        amps = np.zeros(1 << n)
        amps[:size] = rng.choice(values, size=size)
        return amps

    def complex_of(re, im):
        amps = np.empty(1 << n, dtype=complex)
        amps.real, amps.imag = re, im
        return amps

    mixed = np.concatenate([edge, rng.normal(size=edge.size)])
    short = np.array([0.1, 0.2, 0.5, 0.7])  # every tail of one length
    yield "mixed parts", parts(mixed)
    yield "mixed parts", complex_of(parts(mixed), parts(mixed))
    yield "equal tails", parts(short)
    yield "equal tails", complex_of(parts(short), parts(short))
    if n >= 13:
        # 4,095 to 4,097 live amplitudes in one scan: one chunk short of, at and past DUMP_CHUNK
        for live in (4095, 4096, 4097):
            index = rng.choice(1 << 16, size=live, replace=False)
            for values in (short, mixed[mixed > 0.5]):
                amps = np.zeros(1 << n)
                amps[index] = rng.choice(values, size=live)
                yield f"{live} live", amps
                yield f"{live} live", complex_of(amps, -amps[::-1])


@pytest.mark.parametrize("n", [1, 8, 9, 10, 16, 17, 20])
def test_dump_state_is_the_per_line_reference(n):
    rng = np.random.default_rng(60 + n)
    for what, amps in _dump_cases(n, rng):
        state = StateVector._trusted(n, amps)
        assert _dump_text(state) == _dump_state_by_loop(state), (what, amps.dtype)


def test_dump_state_only_writes():
    with pytest.raises(TypeError):
        dump_state(basis_state(2, 1))


@pytest.mark.parametrize("n", [1, 3, 12])
def test_record_json_matches_the_per_amplitude_loop(n):
    rng = np.random.default_rng(100 + n)
    state = StateVector(n, edge_amplitudes(n, rng))
    record = circuit.RunRecord("success", 0.5, [], state)
    assert _record_json_streamed(record) == _record_json_by_loop(record)


def test_dump_load_round_trip():
    amps = np.zeros(8, dtype=complex)
    amps[1] = 0.6
    amps[6] = -0.8j
    psi = StateVector(3, amps)
    text = _dump_text(psi)
    lines = text.strip().splitlines()
    assert lines[0].startswith("001 ")
    again = load_state(text)
    assert again.n_qubits == 3
    assert np.array_equal(again.amplitudes, amps)


def test_dump_skips_negligible_amplitudes():
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    amps[3] = 1e-15
    assert len(_dump_text(StateVector(2, amps)).strip().splitlines()) == 1


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
    for text, message in (("1 x 0\n", "bad amplitude on line '1 x 0'"),
                          ("", "state text contains no amplitudes"),
                          ("# only a comment\n\n", "state text contains no amplitudes"),
                          ("1 1 0\n10 1 0\n", "inconsistent basis index widths")):
        with pytest.raises(ShapeError) as err:
            load_state(text)
        assert str(err.value) == message


def test_load_state_skips_comments_and_blank_lines():
    psi = load_state("# a header\n\n10 0.6 0  # a note\n  \n01 0 -0.8\n")
    assert psi.n_qubits == 2
    assert psi.amplitudes.tolist() == [0, -0.8j, 0.6, 0]


@pytest.mark.parametrize("text, available", [
    (b"MemTotal: 4096 kB\nMemAvailable:   2048 kB\n", 2048 * 1024),
    (b"MemTotal: 4096 kB\n", None),
    (b"MemAvailable: lots kB\n", None),
    (b"MemAvailable:\n", None),
    (None, None),  # the file cannot be opened
])
def test_mem_available_reads_meminfo(text, available, monkeypatch):
    from nuqc import qstate

    def fake_open(path, mode):
        assert (path, mode) == ("/proc/meminfo", "rb")
        if text is None:
            raise PermissionError(path)
        return io.BytesIO(text)

    monkeypatch.setattr(qstate, "open", fake_open, raising=False)
    assert qstate._mem_available() == available


def _monomial_ops(rng):
    """Real monomial operators on 1-3 targets: gates, measurement operators, random."""
    from nuqc import gates, measure

    ops = [gates.x().matrix, gates.cnot().matrix, gates.ckx(2).matrix]
    for gate in (gates.n1(0.993), gates.cn1(0.97), gates.diagonal([0.3, 0.7])):
        pair = measure.build_pair(gate, 0.9)
        policy = measure.build_reversal(pair, max_reversals=1)
        ops += [pair.m0, pair.m1, policy.r0, policy.r1]
    for k in (1, 2, 3):
        dim = 1 << k
        op = np.zeros((dim, dim), dtype=complex)
        coefs = rng.choice([0.0, 1.0, -1.0, 0.37, -2.5], size=dim)
        op[np.arange(dim), rng.permutation(dim)] = coefs
        ops.append(op)
    return [np.asarray(op, dtype=complex) for op in ops]


def _random_targets(rng, n, k):
    """Unsorted, mostly non-adjacent targets."""
    return tuple(int(t) for t in rng.permutation(n)[:k])


def _random_amplitudes(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("cols", [None, 3])
def test_monomial_path_matches_embedded_matrix(cols, monkeypatch):
    from nuqc import qstate

    rng = np.random.default_rng(50)
    # with 2-bit tables every block wider than 2 bits is gathered in chunks
    for block_bits in (14, 2):
        monkeypatch.setattr(qstate, "MONOMIAL_BLOCK_BITS", block_bits)
        for op in _monomial_ops(rng):
            real, rows = qstate._structure(op.tobytes())
            assert real and rows is not None
            k = op.shape[0].bit_length() - 1
            for n in range(max(k, 1), 9):
                targets = _random_targets(rng, n, k)
                shape = (1 << n,) if cols is None else (1 << n, cols)
                amps = _random_amplitudes(rng, shape)
                got = qstate._apply_monomial(amps, rows, targets)
                want = embedded_matrix(op, targets, n) @ amps
                assert got.shape == amps.shape
                assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


def test_monomial_path_takes_non_contiguous_batches():
    from nuqc import qstate

    rng = np.random.default_rng(51)
    op = np.asarray(CNOT)
    batch = _random_amplitudes(rng, (5, 1 << 6)).T  # a (64, 5) view in Fortran order
    got = qstate._apply_monomial(batch, qstate._structure(op.tobytes())[1], (4, 1))
    assert np.allclose(got, embedded_matrix(op, (4, 1), 6) @ batch, rtol=1e-14, atol=1e-14)


def test_structure_separates_monomial_dense_and_complex_operators():
    from nuqc import qstate

    assert qstate._structure(np.asarray(X).tobytes()) == (True, ((1, 1.0), (0, 1.0)))
    zero_row = np.diag([0.0, 0.5]).astype(complex)
    assert qstate._structure(zero_row.tobytes()) == (True, ((0, 0.0), (1, 0.5)))
    assert qstate._structure(np.asarray(H).tobytes()) == (True, None)
    phase = np.diag([1.0, 1j])
    assert qstate._structure(phase.tobytes()) == (False, None)


def test_low_block_path_matches_embedded_matrix():
    from nuqc import qstate

    rng = np.random.default_rng(52)
    for k in (1, 2, 3):
        for _ in range(8):
            op = rng.normal(size=(1 << k, 1 << k)).astype(complex)
            targets = _random_targets(rng, qstate.LOW_BLOCK_BITS, k)
            for n in range(qstate.LOW_BLOCK_BITS, 9):
                amps = _random_amplitudes(rng, 1 << n)
                got = qstate._apply_low_block(amps, op.tobytes(), targets)
                want = embedded_matrix(op, targets, n) @ amps
                assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def _wide_cases(rng):
    """Operators and targets on 13-14 qubit states and 10-12 qubit batches."""
    from nuqc import gates

    dense = [np.asarray(H), gates.abrams_lloyd().matrix, gates.nand().matrix,
             rng.normal(size=(8, 8)).astype(complex)]
    complex_ops = [np.diag([1.0, 1j]), _random_amplitudes(rng, (4, 4))]
    for n, cols in ((13, None), (14, None), (16, None), (10, 4), (12, 3)):
        # wide spans, (0, n-1) among them; from 16 qubits on their monomial
        # blocks are wider than one table and are gathered in chunks
        spans = {1: [(0,), (n - 1,)], 2: [(0, n - 1), (n - 1, 0)],
                 3: [(n - 1, 0, 1), (0, n - 1, 1)]}
        for op in _monomial_ops(rng) + dense + complex_ops:
            k = op.shape[0].bit_length() - 1
            shape = (1 << n,) if cols is None else (1 << n, cols)
            # adjacent targets listed high to low, where real operators take the batched GEMM
            adjacent = [tuple(range(low + k - 1, low - 1, -1)) for low in (4, 5)]
            for targets in (_random_targets(rng, n, k), _random_targets(rng, 4, k),
                            tuple(sorted(_random_targets(rng, 4, k), reverse=True)),
                            *spans[k], *adjacent):
                yield _random_amplitudes(rng, shape), op, targets


def test_dispatch_above_the_crossover_equals_the_transpose_path():
    from nuqc import qstate

    rng = np.random.default_rng(53)
    for amps, op, targets in _wide_cases(rng):
        assert amps.size >= qstate.COPY_FREE_MIN_SIZE
        got = qstate._apply(amps, op, targets)
        want = qstate._apply_transposed(amps, op, targets)
        # equal values; only the sign of an exactly zero part may differ
        assert np.array_equal(got, want), (op, targets, amps.shape)


def _real_adjacent_ops(rng):
    from nuqc import gates

    return [np.asarray(H), gates.u1(0.3).matrix, gates.cu1(0.6).matrix,
            gates.abrams_lloyd().matrix, rng.normal(size=(4, 4)).astype(complex)]


def test_real_adjacent_gemm_is_bitwise_the_transpose_path(monkeypatch):
    from nuqc import qstate

    taken = []
    real_gemm = qstate._apply_adjacent_real
    monkeypatch.setattr(qstate, "_apply_adjacent_real",
                        lambda amps, *args: taken.append(amps) or real_gemm(amps, *args))
    rng = np.random.default_rng(54)
    state = _random_amplitudes(rng, 1 << 11)
    batch = _random_amplitudes(rng, (1 << 10, 3))
    strided = _random_amplitudes(rng, (3, 1 << 10)).T  # a (1024, 3) view in Fortran order
    for op in _real_adjacent_ops(rng):
        k = op.shape[0].bit_length() - 1
        for amps in (state, batch, strided):
            n = amps.shape[0].bit_length() - 1
            for low in range(n - k + 1):
                targets = tuple(range(low + k - 1, low - 1, -1))
                taken.clear()
                got = qstate._apply(amps, op, targets)
                want = qstate._apply_transposed(amps, op, targets)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (op, targets)
                # a state's targets below LOW_BLOCK_BITS take the low block first
                real_path = (low >= qstate.REAL_ADJACENT_MIN_BIT and amps is not strided
                             and not (amps is state and targets[0] < qstate.LOW_BLOCK_BITS))
                assert len(taken) == real_path, (targets, amps.shape)


def test_dense_targets_below_the_low_block_bits_take_the_low_block(monkeypatch):
    from nuqc import qstate

    taken = []
    low_block = qstate._apply_low_block
    monkeypatch.setattr(qstate, "_apply_low_block",
                        lambda amps, *args: taken.append(amps) or low_block(amps, *args))
    rng = np.random.default_rng(58)
    real = rng.normal(size=qstate.COPY_FREE_MIN_SIZE)
    for op in _real_adjacent_ops(rng):
        k = op.shape[0].bit_length() - 1
        for amps in (real, real.astype(complex)):
            for low in range(qstate.LOW_BLOCK_BITS - k + 1):  # H on qubit 3 among them
                targets = tuple(range(low + k - 1, low - 1, -1))
                taken.clear()
                got = qstate._apply(amps, op, targets)
                want = qstate._apply_transposed(amps, op, targets)
                assert len(taken) == 1, (targets, amps.dtype)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (op, targets)


def _pair_path_cases(rng, n):
    """Random real operators whose last target is qubit 0: on (i, 0) for every i, and on three targets."""
    zero_column = rng.normal(size=(4, 4)).astype(complex)
    zero_column[:, 2] = 0.0
    equal_rows = rng.normal(size=(4, 4)).astype(complex)
    equal_rows[3] = equal_rows[1]
    for i in range(1, n):
        yield rng.normal(size=(4, 4)).astype(complex), (i, 0)
        if i % 4 == 1:
            yield zero_column, (i, 0)
            yield equal_rows, (i, 0)
    for _ in range(3):
        i, j = (int(t) for t in rng.permutation(np.arange(1, n))[:2])
        yield rng.normal(size=(8, 8)).astype(complex), (i, j, 0)


@pytest.mark.parametrize("n", [10, 13, 16, 20])
def test_pair_path_is_bitwise_the_transpose_path(n, monkeypatch):
    from nuqc import qstate

    taken = []
    pairs = qstate._apply_pairs
    monkeypatch.setattr(qstate, "_apply_pairs",
                        lambda amps, op, targets, *args: taken.append(targets)
                        or pairs(amps, op, targets, *args))
    rng = np.random.default_rng(80 + n)
    # on 10 and 13 qubits also in blocks of 2^7 entries, whose rows stop below
    # qubit i, take in bits above it too, or hold every other bit
    for block in (qstate.TRANSPOSE_BLOCK_ENTRIES, 1 << 7)[:1 + (n <= 13)]:
        monkeypatch.setattr(qstate, "TRANSPOSE_BLOCK_ENTRIES", block)
        states = [rng.normal(size=1 << n)]
        if n <= 16:  # signed zeros and subnormals, whose exact zeros show the sums' order
            states.append(_zero_rich_amplitudes(rng, 1 << n).real.copy())
        for amps in states:
            for op, targets in _pair_path_cases(rng, n):
                want = qstate._apply_transposed(amps, op, targets)
                out = np.empty(1 << n)
                for got in (pairs(amps, op, targets), pairs(amps, op, targets, out)):
                    assert got.dtype == np.float64
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (targets,
                                                                                        block)
                assert np.shares_memory(got, out)
                taken.clear()
                qstate._apply(amps, op, targets)
                # dense targets below LOW_BLOCK_BITS listed high to low take the low block
                low_block = (targets[0] < qstate.LOW_BLOCK_BITS
                             and list(targets) == sorted(targets, reverse=True))
                assert taken == ([] if low_block else [targets]), targets
                if n <= 13:
                    taken.clear()
                    qstate._apply(amps.astype(complex), op, targets)
                    assert taken == []  # a complex state keeps the transpose path


def test_dispatch_takes_the_copy_free_paths(monkeypatch):
    from nuqc import gates, qstate

    transposed = qstate._apply_transposed

    def no_transpose(amps, *args):
        # the low block is built through the transpose path, on a small identity
        if amps.size >= qstate.COPY_FREE_MIN_SIZE:
            raise AssertionError("took the transpose path")
        return transposed(amps, *args)

    monkeypatch.setattr(qstate, "_apply_transposed", no_transpose)
    state = uniform_state(14)
    for op, targets in ((np.asarray(CNOT), (0, 13)), (gates.ckx(2).matrix, (5, 0, 9)),
                        (np.asarray(H), (2,)), (gates.abrams_lloyd().matrix, (3, 0)),
                        (np.asarray(H), (9,)), (gates.abrams_lloyd().matrix, (6, 5)),
                        (np.asarray(H), (4,)), (gates.abrams_lloyd().matrix, (9, 0))):
        apply_embedded(state, op, targets)
    complex_dense = _random_amplitudes(np.random.default_rng(55), (4, 4))
    for op, targets in ((gates.abrams_lloyd().matrix, (0, 3)), (np.diag([1.0, 1j]), (4,)),
                        (complex_dense, (6, 5))):
        with pytest.raises(AssertionError, match="transpose path"):
            apply_embedded(state, op, targets)
    with pytest.raises(AssertionError, match="transpose path"):  # a batch of a dense gate
        apply_columns(np.ones((1 << 10, 2), dtype=complex), H, (0,))
    monkeypatch.undo()
    got = apply_embedded(state, complex_dense, (6, 5)).amplitudes
    want = transposed(state.amplitudes, complex_dense, (6, 5))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    small = uniform_state(int(np.log2(qstate.COPY_FREE_MIN_SIZE)) - 1)
    calls = []
    monkeypatch.setattr(qstate, "_apply_monomial", lambda *a: calls.append(a))
    apply_embedded(small, CNOT, (0, 1))
    assert calls == []


def test_no_cached_monomial_table_exceeds_the_block_bound(monkeypatch):
    from nuqc import qstate

    sizes = []
    cached = qstate._monomial_block

    def recording(*args):
        tables = cached(*args)
        sizes.extend(t.size for t in tables if t is not None)
        return tables

    monkeypatch.setattr(qstate, "_monomial_block", recording)
    rng = np.random.default_rng(57)
    for n, cols in ((17, None), (14, None), (12, 8)):
        shape = (1 << n,) if cols is None else (1 << n, cols)
        amps = _random_amplitudes(rng, shape)
        for op in _monomial_ops(rng):
            k = op.shape[0].bit_length() - 1
            for targets in ((n - 1, 0, 2)[:k], (0, 3, 1)[:k], (n - 2, 2, n - 4)[:k]):
                got = qstate._apply(amps, op, targets)
                assert np.array_equal(got, qstate._apply_transposed(amps, op, targets))
    assert sizes and max(sizes) <= 1 << qstate.MONOMIAL_BLOCK_BITS == 1 << 14


def _zero_rich_amplitudes(rng, shape):
    """Amplitudes whose parts are signed zeros, subnormals and small numbers.

    Many products and sums over them are exact zeros, whose sign shows how
    they were computed.
    """
    parts = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 5e-320, -5e-320])
    amps = rng.choice(parts, size=shape).astype(complex)
    amps.imag = rng.choice(parts, size=shape)
    return amps


def _transpose_path_cases(n, rng):
    """Dense operators and targets on an n-qubit register that only the transpose path serves."""
    from nuqc import gates

    al = gates.abrams_lloyd().matrix
    unitary = np.linalg.qr(_random_amplitudes(rng, (4, 4)))[0]
    dense = [rng.normal(size=(8, 8)).astype(complex), _random_amplitudes(rng, (8, 8))]
    return ([(al, (i, 0)) for i in (4, n // 2, n - 1)] + [(al, (0, 2))]
            + [(gates.nand().matrix, (n - 3, 2)), (unitary, (0, n - 2)), (unitary, (n - 1, 1))]
            + [(op, (2, n - 1, 0)) for op in dense])


@pytest.mark.parametrize("cols", [None, 3])
def test_blocked_transpose_path_is_bitwise_the_one_block_path(cols, monkeypatch):
    from nuqc import qstate

    rng = np.random.default_rng(67)
    # registers below, at and above one block of TRANSPOSE_BLOCK_ENTRIES
    for n in ((11, 13, 14, 16) if cols is None else (9, 11, 13)):
        shape = (1 << n,) if cols is None else (1 << n, cols)
        amps = _zero_rich_amplitudes(rng, shape)
        for op, targets in _transpose_path_cases(n, rng):
            with monkeypatch.context() as one_block:
                one_block.setattr(qstate, "TRANSPOSE_BLOCK_ENTRIES", 1 << 30)
                want = qstate._apply_transposed(amps, op, targets)
            out = np.empty(shape, dtype=complex)
            for got in (qstate._apply_transposed(amps, op, targets),
                        qstate._apply_transposed(amps, op, targets, out)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, targets)
            assert np.shares_memory(got, out)


def test_a_real_operator_on_the_whole_register_is_its_matrix_vector_product():
    # one column: numpy takes a complex gemv, whose sums the float64 view's would
    # not repeat; 10 qubits reach the float64 view's array size
    rng = np.random.default_rng(69)
    for n in (1, 2, 3, 10):
        for _ in range(20 if n < 10 else 2):
            op = rng.normal(size=(1 << n, 1 << n)).astype(complex)
            state = StateVector(n, _random_amplitudes(rng, 1 << n))
            got = apply_embedded(state, op, tuple(range(n - 1, -1, -1))).amplitudes
            assert np.array_equal(got.view(np.uint64), (op @ state.amplitudes).view(np.uint64))


def test_transpose_path_repeats_the_unblocked_gemm():
    from nuqc import qstate

    rng = np.random.default_rng(70)
    for n, cols in ((6, None), (7, None), (9, None), (6, 3), (8, 3), (11, None), (14, None),
                    (12, 3)):
        shape = (1 << n,) if cols is None else (1 << n, cols)
        amps = _zero_rich_amplitudes(rng, shape)
        for op, targets in _transpose_path_cases(n, rng):
            got = qstate._apply_transposed(amps, op, targets)
            want = stepwise.transposed_whole(amps, op, targets)
            if amps.size < qstate.COPY_FREE_MIN_SIZE or op.imag.any():  # the same complex GEMM
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, targets)
            else:  # the float64 view: the same values, an exact zero's sign aside
                assert np.array_equal(got, want), (n, cols, targets)


def test_blocked_transpose_path_matches_embedded_matrix(monkeypatch):
    from nuqc import qstate

    monkeypatch.setattr(qstate, "TRANSPOSE_BLOCK_ENTRIES", 1 << 4)  # many blocks, few qubits
    rng = np.random.default_rng(68)
    for n, cols in ((7, None), (6, None), (6, 3), (6, 2)):
        shape = (1 << n,) if cols is None else (1 << n, cols)
        amps = _random_amplitudes(rng, shape)
        for op, targets in _transpose_path_cases(n, rng):
            want = embedded_matrix(op, targets, n) @ amps
            assert np.allclose(qstate._apply_transposed(amps, op, targets), want,
                               rtol=1e-13, atol=1e-13), (n, cols, targets)


def _kernel_path_cases():
    """Operators and targets of a 16-qubit register that reach every kernel path."""
    from nuqc import gates

    al = gates.abrams_lloyd().matrix
    # dense operators the transpose path serves, in blocks on 16 qubits:
    # real and complex, on 2 and 3 non-adjacent targets
    swap_phase = np.kron(H, np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0))
    return [(np.asarray(CNOT), (3, 9)), (np.asarray(CNOT), (0, 15)),
            (gates.ckx(2).matrix, (15, 0, 1)), (np.diag([0.5, 0.25]).astype(complex), (0,)),
            (np.asarray(H), (9,)), (al, (6, 5)), (al, (3, 0)), (al, (9, 0)),
            (np.diag([1.0, 1j]), (4,)), (gates.nand().matrix, (9, 2)), (swap_phase, (2, 13)),
            (np.kron(H, al), (14, 7, 0)), (np.kron(swap_phase, H), (1, 12, 6))]


def test_kernel_results_never_share_memory_with_their_input():
    rng = np.random.default_rng(58)
    state = StateVector(16, _random_amplitudes(rng, 1 << 16))
    columns = _random_amplitudes(rng, (1 << 12, 16))
    saved = state.amplitudes.copy(), columns.copy()
    for op, targets in _kernel_path_cases():
        out = apply_embedded(state, op, targets)
        assert not np.shares_memory(out.amplitudes, state.amplitudes), targets
        batch_targets = tuple(t % 12 for t in targets)
        out = apply_columns(columns, op, batch_targets)
        assert not np.shares_memory(out, columns), batch_targets
    assert np.array_equal(state.amplitudes.view(np.uint64), saved[0].view(np.uint64))
    assert np.array_equal(columns.view(np.uint64), saved[1].view(np.uint64))


def test_normalize_and_sample_leave_their_inputs_unchanged():
    from nuqc import gates, measure

    rng = np.random.default_rng(59)
    state = StateVector(12, _random_amplitudes(rng, 1 << 12))
    saved = state.amplitudes.copy()
    mass = norm_sq(state)
    for out in (normalize(state), normalize(state, mass)):
        assert not np.shares_memory(out.amplitudes, state.amplitudes)
        assert np.array_equal(out.amplitudes.view(np.uint64),
                              (saved / np.sqrt(mass)).view(np.uint64))
    assert np.array_equal(state.amplitudes.view(np.uint64), saved.view(np.uint64))

    state = normalize(state)
    pair = measure.build_pair(gates.n1(0.6), 0.9)
    kept = apply_embedded(state, pair.m0, (3,))
    kept_saved = kept.amplitudes.copy()
    outcomes = set()
    for seed in range(12):
        outcome, post = measure.sample(pair, state, (3,), np.random.default_rng(seed))
        outcomes.add(outcome)
        assert not np.shares_memory(post.amplitudes, kept.amplitudes)
        assert not np.shares_memory(post.amplitudes, state.amplitudes)
    assert outcomes == {"success", "failure"}
    assert np.array_equal(kept.amplitudes.view(np.uint64), kept_saved.view(np.uint64))


def _almost_unit_start(rng, n):
    """A random start of squared norm 1 + 2e-11: accepted, yet not fixed by normalizing."""
    amps = _random_amplitudes(rng, 1 << n)
    start = StateVector(n, amps * np.sqrt((1.0 + 2e-11) / np.vdot(amps, amps).real))
    assert normalize(start).amplitudes.tobytes() != start.amplitudes.tobytes()
    return start


def test_runs_leave_the_program_state_unchanged():
    from nuqc import gates, measure

    rng = np.random.default_rng(60)
    parsed = circuit.parse(
        "qubits 11\ngate H 7\ngate N1(0.6) 3 c=0.9 q=opt k=3\n"
        "gate CN1(0.7) 10 0 c=0.9 q=opt k=3\ngate CNOT 0 10\n")
    # a start of squared norm 1 + 2e-11, so that normalizing it in place would show
    start = _almost_unit_start(rng, 11)
    saved = start.amplitudes.copy()
    program = circuit.CircuitProgram(11, parsed.steps, start)
    circuit.run_branch(program)
    circuit.run_ensemble(program, trials=50, seed=1)
    for seed in range(8):
        circuit.run_sampled(program, seed=int(rng.integers(1 << 30)))
    pair = measure.build_pair(gates.n1(0.6), 0.9)
    policy = measure.build_reversal(pair, max_reversals=3)
    for seed in range(8):
        measure.run_with_reversal(pair, policy, start, (3,), np.random.default_rng(seed))
    assert np.array_equal(start.amplitudes.view(np.uint64), saved.view(np.uint64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_operators_are_rejected(bad):
    op = np.array(CNOT)
    op[2, 3] = bad
    for n in (2, 14):
        with pytest.raises(ShapeError, match="finite"):
            apply_embedded(uniform_state(n), op, (0, 1))
    with pytest.raises(ShapeError, match="finite"):
        apply_columns(np.eye(4, dtype=complex), op, (0, 1))
    with pytest.raises(ShapeError, match="finite"):
        embedded_matrix(op, (0, 1), 2)


def _normalize_edge_amplitudes(rng, norm):
    """Amplitudes of squared norm close to ``norm**2`` whose parts include ±0 and subnormals."""
    tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308])
    re = rng.choice(tiny, size=4096)
    im = rng.choice(tiny, size=4096)
    big = rng.permutation(4096)[:300]
    re[big[:200]] = rng.normal(size=200)
    im[big[100:]] = rng.normal(size=200)
    amps = np.empty(4096, dtype=complex)
    amps.real = re
    amps.imag = im
    return amps * (norm / np.linalg.norm(amps))


def test_normalize_is_bitwise_the_divide():
    rng = np.random.default_rng(54)
    # norms below 2 take the multiply, 2 and above the divide
    for norm in (1e-12, 0.3, 1.0, 1.5, 1.999, 2.0, 7.0, 1e10, 1e150):
        state = StateVector(12, _normalize_edge_amplitudes(rng, norm))
        nrm = np.sqrt(norm_sq(state))
        want = state.amplitudes / nrm
        got = normalize(state).amplitudes
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), norm
        handed_over = StateVector(12, state.amplitudes)  # made by a run, which gives it up
        in_place = normalize(handed_over, norm_sq(state), out=Buffers().out(handed_over))
        in_place = in_place.amplitudes
        assert np.shares_memory(in_place, handed_over.amplitudes)
        assert np.array_equal(in_place.view(np.uint64), want.view(np.uint64)), norm
        parts = got.view(np.float64)
        assert np.signbit(parts[parts == 0]).any() and (~np.signbit(parts[parts == 0])).any()


def test_normalize_rejects_a_non_finite_norm():
    huge = StateVector(1, [1e200, 1e200])  # finite amplitudes, norm_sq overflows
    with pytest.raises(ShapeError, match="norm"):
        normalize(huge)


def test_dump_state_memo_keeps_repeated_and_signed_values_apart():
    rng = np.random.default_rng(55)
    values = np.array([0.0, -0.0, 0.5, -0.5, 1e-12, np.nextafter(1e-12, 1.0), 0.1 + 0.2])
    n = 10
    amps = np.empty(1 << n, dtype=complex)
    amps.real = rng.choice(values, size=1 << n)
    amps.imag = rng.choice(values, size=1 << n)
    state = StateVector(n, amps)
    assert _dump_text(state) == _dump_state_by_loop(state)
    assert _dump_text(state, threshold=0.3) == _dump_state_by_loop(state, threshold=0.3)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_dump_state_in_chunks_matches_the_per_amplitude_loop(chunk, monkeypatch):
    from nuqc import qstate

    monkeypatch.setattr(qstate, "DUMP_CHUNK", chunk)
    rng = np.random.default_rng(56)
    state = StateVector(8, edge_amplitudes(8, rng))
    for scan in (1, 24, 1 << 16):
        monkeypatch.setattr(qstate, "DUMP_SCAN", scan)
        assert _dump_text(state) == _dump_state_by_loop(state)
        assert _dump_text(state, threshold=0.5) == _dump_state_by_loop(state, threshold=0.5)


def _traced_peak(run):
    """``run()`` and the peak in bytes of the memory it allocated, as tracemalloc counts it."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_dump_of_a_random_state_stays_within_the_memory_budget():
    from nuqc import qstate

    rng = np.random.default_rng(61)
    state = normalize(StateVector(16, _random_amplitudes(rng, 1 << 16)))

    class Sink:
        lines = 0

        def write(self, text):
            self.lines += text.count("\n")

    sink = Sink()
    written, peak = _traced_peak(lambda: dump_state(state, out=sink))
    assert written is None
    assert sink.lines == 1 << 16
    assert peak <= qstate.LIVE_STATES * state.amplitudes.nbytes


@pytest.mark.parametrize("chunk", [7, 1 << 14])
def test_streamed_dump_writes_the_dump_text(chunk, monkeypatch):
    from nuqc import qstate

    monkeypatch.setattr(qstate, "DUMP_CHUNK", chunk)
    state = StateVector(9, edge_amplitudes(9, np.random.default_rng(62)))
    out = io.StringIO()
    assert dump_state(state, out=out) is None
    assert out.getvalue() == _dump_state_by_loop(state)


@pytest.mark.parametrize("scan, chunk", [(64, 5), (1 << 16, 7), (1 << 16, 1 << 12)])
@pytest.mark.parametrize("n", [1, 3, 10])
def test_streamed_record_json_equals_dumps_json(n, scan, chunk, monkeypatch):
    from nuqc import qstate

    monkeypatch.setattr(qstate, "DUMP_SCAN", scan)
    monkeypatch.setattr(qstate, "DUMP_CHUNK", chunk)
    state = StateVector(n, edge_amplitudes(n, np.random.default_rng(300 + n)))
    # a label equal to the placeholder of the streamed array comes before it
    steps = [circuit.StepRecord("\0final_state", (0,), 0.25, 1)]
    record = circuit.RunRecord("success", 0.25, steps, state)
    extra = {"outputs": {"s": 1}, "qubits": n, "qubit_savings": {"saved": 2}}
    assert _record_json_streamed(record) == _record_json_by_loop(record)
    assert _record_json_streamed(record, **extra) == _record_json_by_loop(record, **extra)
    failed = circuit.RunRecord("failure", 0.0, steps, state, failed_step=0)
    assert _record_json_streamed(failed, s=None) == _record_json_by_loop(failed, s=None)


def test_streamed_record_json_of_an_empty_or_missing_state():
    empty = circuit.RunRecord("success", 1.0, [], StateVector(2, np.zeros(4)))
    assert '"final_state": [],' in _record_json_streamed(empty, s=0)
    assert _record_json_streamed(empty, s=0) == _record_json_by_loop(empty, s=0)
    missing = circuit.RunRecord("failure", 0.0, [], None, failed_step=3)
    assert _record_json_streamed(missing, s=None) == _record_json_by_loop(missing, s=None)


def test_streamed_record_json_of_a_random_state_stays_within_the_memory_budget():
    from nuqc import qstate

    rng = np.random.default_rng(63)
    state = normalize(StateVector(16, _random_amplitudes(rng, 1 << 16)))
    record = circuit.RunRecord("success", 1.0, [], state)

    class Sink:
        entries = 0

        def write(self, text):
            self.entries += text.count('"index"')

    sink = Sink()
    _, peak = _traced_peak(lambda: circuit.write_record_json(record, sink, s=0))
    assert sink.entries == 1 << 16
    assert peak <= qstate.LIVE_STATES * state.amplitudes.nbytes


def test_memory_guard_refuses_a_register_before_allocating(monkeypatch):
    from nuqc import qstate
    from nuqc.errors import NuqcError, StateMemoryError

    def refuse_all():
        for make in (lambda: basis_state(24, 0), lambda: qstate.uniform_state(24),
                     lambda: load_state("1" * 24 + " 1.0 0.0\n")):
            with pytest.raises(StateMemoryError, match="MiB") as info:
                make()
            assert isinstance(info.value, NuqcError)

    monkeypatch.setattr(qstate, "_mem_available", lambda: 1 << 20)
    _, peak = _traced_peak(refuse_all)
    assert peak < 1 << 20
    monkeypatch.setattr(qstate, "_mem_available", lambda: 24 << 20)
    qstate.check_memory(18)  # 2^18 * 16 B * LIVE_STATES = 16 MiB fits
    with pytest.raises(StateMemoryError):
        qstate.check_memory(19)  # 32 MiB does not

    def unread():
        raise AssertionError("read /proc/meminfo for a small register")

    monkeypatch.setattr(qstate, "_mem_available", unread)
    qstate.check_memory(17)  # 8 MiB: below MEMORY_CHECK_MIN_BYTES
    monkeypatch.setattr(qstate, "_mem_available", lambda: None)  # unreadable: no check
    qstate.check_memory(24)


# A 16-qubit program on the copy-free kernel paths: H steps, a composed
# permutation run and diagonal measured steps with reversals, every target
# below 14, so no per-call gather tables are counted.
_WIDE_PROGRAM = (
    "qubits 16\ninit uniform\ngate H 4\ngate H 9\ngate H 1\n"
    "gate N1(0.7) 3 c=0.9 q=opt k=2\ngate CNOT 3 12\ngate CKX(2) 2 5 11\n"
    "gate CN1(0.6) 12 3 c=0.9 q=opt k=2\ngate N1(0.8) 9 c=0.9 q=opt k=2\ngate H 0\n")


# a float64 16-qubit state's bytes: the runners' memory bounds are written
# in them, for the real programs below start float64
REAL_STATE_16 = 2**16 * 8


def _run_peak(run):
    """``run()`` and its allocation peak in bytes, the program's initial state not counted.

    ``run`` goes once untraced first, so that cached gate tables and
    prepared measurements are not counted.
    """
    run()
    return _traced_peak(run)


def test_a_branch_run_holds_its_current_state_and_one_spare():
    program = circuit.parse(_WIDE_PROGRAM)
    record, peak = _run_peak(lambda: circuit.run_branch(program))
    assert record.outcome == "success"
    assert peak <= 2.5 * REAL_STATE_16


def test_a_sampled_run_that_fails_and_restores_holds_two_states():
    program = circuit.parse(_WIDE_PROGRAM)
    # at seed 3 the N1 step on qubit 9 fails once, its reversal restores the
    # state and the retry succeeds
    record, peak = _run_peak(lambda: circuit.run_sampled(program, seed=3))
    assert record.outcome == "success"
    assert [step.reversals for step in record.steps] == [0, 0, 0, 0, 0, 0, 0, 1, 0]
    assert peak <= 2.5 * REAL_STATE_16


def test_the_ensemble_branch_pass_holds_what_a_branch_run_holds():
    program = circuit.parse(_WIDE_PROGRAM)
    stats, peak = _run_peak(lambda: circuit.run_ensemble(program, seed=1, trials=20))
    assert stats.trials == 20
    assert peak <= 2.5 * REAL_STATE_16


def test_a_real_program_runs_on_float64_states_in_half_the_bytes():
    program = circuit.parse(_WIDE_PROGRAM)
    assert program.initial_state.amplitudes.dtype == np.float64
    record, peak = _run_peak(lambda: circuit.run_branch(program))
    assert record.final_state.amplitudes.dtype == np.float64
    assert peak <= 2.5 * 2**16 * 8
    # the same run from the complex twin of the start needs more than that
    program.initial_state = StateVector(16, program.initial_state.amplitudes)
    twin, twin_peak = _run_peak(lambda: circuit.run_branch(program))
    assert twin.final_state.amplitudes.dtype == np.complex128
    assert 2.5 * 2**16 * 8 < twin_peak <= 2.5 * 2**16 * 16


# a diagonal measured step whose targets span more than MONOMIAL_BLOCK_BITS,
# so that each kernel call builds its gather tables anew
_WIDE_SPAN_PROGRAM = "qubits 16\ninit uniform\ngate CN1(0.5) 15 1 c=0.9 q=opt k=2\n"


@pytest.mark.parametrize("runner", ["branch", "sampled", "mc"])
def test_a_wide_span_diagonal_step_holds_two_states_on_every_runner(runner):
    program = circuit.parse(_WIDE_SPAN_PROGRAM)
    # at seed 6 the step fails once, its reversal restores the state and the
    # retry succeeds
    run = {"branch": lambda: circuit.run_branch(program),
           "sampled": lambda: circuit.run_sampled(program, seed=6),
           "mc": lambda: circuit.run_ensemble(program, seed=1, trials=20)}[runner]
    result, peak = _run_peak(run)
    if runner == "sampled":
        assert result.outcome == "success"
        assert [step.reversals for step in result.steps] == [1]
    assert peak <= 2.5 * REAL_STATE_16


def _transposed_sizes(monkeypatch):
    """A list of the array size of every transpose-path call from now on."""
    from nuqc import qstate

    sizes = []
    transposed = qstate._apply_transposed
    monkeypatch.setattr(qstate, "_apply_transposed",
                        lambda amps, *args: sizes.append(amps.size) or transposed(amps, *args))
    return sizes


# dense measured steps with reversals on the blocked paths: NAND on (9, 2),
# which only the transpose path serves, and AL on (12, 0), which the pair path
# serves on the float64 state
_TRANSPOSE_PROGRAM = ("qubits 16\ninit uniform\ngate H 4\ngate H 9\n"
                      "gate NAND 9 2 c=0.9 q=opt k=2\ngate AL 12 0 c=0.9 q=opt k=2\ngate H 1\n")


@pytest.mark.parametrize("runner, states", [("branch", 2.5), ("sampled", 2.5), ("mc", 2.5)])
def test_transpose_path_steps_hold_no_state_sized_temporary(runner, states, monkeypatch):
    from nuqc import qstate

    program = circuit.parse(_TRANSPOSE_PROGRAM)
    # at seed 6 the NAND step fails once, its reversal restores the state and
    # the retry succeeds
    run = {"branch": lambda: circuit.run_branch(program),
           "sampled": lambda: circuit.run_sampled(program, seed=6),
           "mc": lambda: circuit.run_ensemble(program, seed=1, trials=20)}[runner]
    sizes = _transposed_sizes(monkeypatch)
    paired = []
    pairs = qstate._apply_pairs
    monkeypatch.setattr(qstate, "_apply_pairs", lambda amps, op, targets, *args: paired.append(
        (amps.size, targets)) or pairs(amps, op, targets, *args))
    result, peak = _run_peak(run)
    assert max(sizes) == 1 << 16
    assert set(paired) == {(1 << 16, (12, 0))}
    if runner == "sampled":
        assert result.outcome == "success"
        assert [step.reversals for step in result.steps] == [0, 0, 1, 0, 0]
    assert peak <= states * REAL_STATE_16


def test_kernel_paths_write_into_out_with_the_same_bits(monkeypatch):
    from nuqc import qstate

    sizes = _transposed_sizes(monkeypatch)
    rng = np.random.default_rng(65)
    for n in (8, 16):  # the transpose path alone, then every kernel path
        state = StateVector(n, _random_amplitudes(rng, 1 << n))
        for op, targets in _kernel_path_cases():
            targets = tuple(t % n for t in targets)
            want = apply_embedded(state, op, targets).amplitudes
            out = np.empty(1 << n, dtype=complex)
            got = apply_embedded(state, op, targets, out=out).amplitudes
            assert np.shares_memory(got, out), targets
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), targets
            rows = qstate._structure(np.asarray(op, dtype=complex).tobytes())[1]
            if rows is not None and all(col == row for row, (col, _) in enumerate(rows)):
                # a diagonal written over its own input
                own = StateVector(n, state.amplitudes)
                buffer = own.amplitudes
                buffer.flags.writeable = True
                got = apply_embedded(own, op, targets, out=buffer).amplitudes
                assert np.shares_memory(got, buffer)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), targets
    # the transpose path ran in one block on 8 qubits and in several on 16
    assert min(sizes) <= qstate.TRANSPOSE_BLOCK_ENTRIES < max(sizes)


def _bad_outs(size, dtype):
    """``out=`` arrays that each break one rule: dtype, shape, length, stride, writeability."""
    other = np.complex128 if dtype == np.float64 else np.float64
    read_only = np.zeros(size, dtype=dtype)
    read_only.flags.writeable = False
    return {"dtype": np.zeros(size, dtype=other), "2-D": np.zeros((size // 2, 2), dtype=dtype),
            "short": np.zeros(10, dtype=dtype), "strided": np.zeros(2 * size, dtype=dtype)[::2],
            "read-only": read_only, "list": [0.0] * size}


def test_every_kernel_path_and_normalize_refuse_a_bad_out(monkeypatch):
    taken = _spy_paths(monkeypatch)
    rng = np.random.default_rng(66)
    n = 16
    for state in (uniform_state(n), StateVector(n, _random_amplitudes(rng, 1 << n))):
        for op, targets in _kernel_path_cases():
            dtype = apply_embedded(state, op, targets).amplitudes.dtype
            for name, out in _bad_outs(1 << n, dtype).items():
                with pytest.raises(ShapeError, match="out must be"):
                    apply_embedded(state, op, targets, out=out)
                assert not isinstance(out, np.ndarray) or not out.any(), (name, targets)
        for out in _bad_outs(1 << n, state.amplitudes.dtype).values():
            with pytest.raises(ShapeError, match="out must be"):
                normalize(state, out=out)
    # the good calls above reached every path, on both dtypes
    assert {path for path, _ in taken} == set(_REAL_KERNEL_PATHS)
    assert {dtype for _, dtype in taken} == {np.dtype(np.float64), np.dtype(np.complex128)}


def _real_kernel_cases(rng):
    """Real operators and targets on a 10-qubit register that reach every kernel path."""
    from nuqc import gates, measure

    al = gates.abrams_lloyd().matrix
    cn1 = measure.build_pair(gates.cn1(0.6), 0.9).m0
    scaled_swap = np.array([[0.0, -0.5], [2.0, 0.0]], dtype=complex)
    return [(cn1, (7, 2)), (cn1, (9, 0)), (gates.ckx(2).matrix, (5, 0, 9)),
            (np.asarray(CNOT), (0, 9)), (scaled_swap, (6,)), (np.asarray(H), (5,)),
            (al, (7, 6)), (np.asarray(H), (2,)), (al, (3, 0)), (al, (9, 0)),
            (gates.nand().matrix, (4, 8)), (rng.normal(size=(8, 8)).astype(complex), (2, 9, 0))]


_REAL_KERNEL_PATHS = ("_apply_monomial", "_apply_monomial_chunks", "_apply_adjacent_real",
                      "_apply_low_block", "_apply_pairs", "_apply_transposed")


def _spy_paths(monkeypatch):
    """A set of ``(path, dtype)`` for every kernel path call on a register-sized array from now on."""
    from nuqc import qstate

    taken = set()
    for name in _REAL_KERNEL_PATHS:
        def spy(amps, *args, name=name, path=getattr(qstate, name)):
            if amps.size >= qstate.COPY_FREE_MIN_SIZE:
                taken.add((name, amps.dtype))
            return path(amps, *args)
        monkeypatch.setattr(qstate, name, spy)
    return taken


@pytest.mark.parametrize("block_bits", [14, 4])
def test_a_float64_state_takes_every_path_with_its_complex_twins_real_parts(block_bits,
                                                                            monkeypatch):
    from nuqc import qstate

    # with 4-bit tables the monomial steps whose targets span more are chunked
    monkeypatch.setattr(qstate, "MONOMIAL_BLOCK_BITS", block_bits)
    monkeypatch.setattr(qstate, "TRANSPOSE_BLOCK_ENTRIES", 1 << 7)  # several blocks
    taken = _spy_paths(monkeypatch)
    rng = np.random.default_rng(71)
    n = 10
    real = rng.normal(size=1 << n)
    twin = real.astype(complex)
    for op, targets in _real_kernel_cases(rng):
        got = qstate._apply(real, op, targets)
        assert got.dtype == np.float64, targets
        assert np.allclose(got, embedded_matrix(op, targets, n) @ real, rtol=1e-13, atol=1e-13)
        want = np.ascontiguousarray(qstate._apply(twin, op, targets).real)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), targets
        out = np.empty(1 << n)
        assert np.shares_memory(qstate._apply(real, op, targets, out), out)
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64)), targets
    assert {path for path, dtype in taken if dtype == np.float64} >= set(_REAL_KERNEL_PATHS) - (
        {"_apply_monomial_chunks"} if block_bits == 14 else set())


def test_normalize_gives_a_float64_state_its_complex_twins_real_parts():
    rng = np.random.default_rng(72)
    for norm in (1e-12, 0.3, 0.9, 1.0, 2.0, 2.5, 7.3, 1e10):
        real = rng.normal(size=1 << 10)
        real *= norm / np.linalg.norm(real)
        state = StateVector._trusted(10, real)
        twin = StateVector(10, real)
        mass = norm_sq(twin)  # ddot and zdotc may round apart; the same mass for both
        want = np.ascontiguousarray(normalize(twin, mass).amplitudes.real)
        got = normalize(state, mass).amplitudes
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), norm
        assert np.allclose(got, real / np.sqrt(mass), rtol=1e-15, atol=0.0)
        handed_over = StateVector._trusted(10, real.copy())  # made by a run, which gives it up
        in_place = normalize(handed_over, mass, out=Buffers().out(handed_over)).amplitudes
        assert np.shares_memory(in_place, handed_over.amplitudes)
        assert np.array_equal(in_place.view(np.uint64), want.view(np.uint64)), norm
        assert abs(norm_sq(state) - mass) <= 1e-14 * mass


def test_a_complex_step_after_real_steps_gives_the_complex_paths_bits():
    from nuqc import gates

    rng = np.random.default_rng(73)
    unitary = np.linalg.qr(_random_amplitudes(rng, (4, 4)))[0]
    real_steps = [(np.asarray(H), (5,)), (gates.cn1(0.7).matrix, (9, 1)),
                  (gates.abrams_lloyd().matrix, (3, 0)), (np.asarray(CNOT), (2, 8))]
    complex_steps = [(unitary, (6, 2)), (np.diag([1.0, 1j]), (4,)), (np.asarray(H), (7,))]
    start = StateVector._trusted(12, rng.normal(size=1 << 12))
    state, twin = start, StateVector(12, start.amplitudes)
    for i, (op, targets) in enumerate(real_steps + complex_steps):
        state = apply_embedded(state, op, targets)
        twin = apply_embedded(twin, op, targets)
        promoted = i >= len(real_steps)
        assert state.amplitudes.dtype == (np.complex128 if promoted else np.float64)
        # the real parts while real, then exactly the complex path's bits
        want = twin.amplitudes if promoted else np.ascontiguousarray(twin.amplitudes.real)
        assert np.array_equal(state.amplitudes.view(np.uint64), want.view(np.uint64)), i


def test_a_float64_spare_never_takes_a_complex_result(monkeypatch):
    from nuqc import gates, qstate

    real = [StateVector._trusted(10, np.ones(1 << 10)) for _ in range(3)]
    buffers = Buffers()
    assert buffers.out(real[0], H) is None  # real[0]'s array is now the spare
    assert buffers.out(real[1], np.diag([1.0, 1j])) is None  # a complex result
    # real[1]'s array is the spare now, and a complex state's real step skips it too
    promoted = StateVector(10, real[2].amplitudes)
    assert buffers.out(promoted, H) is None
    assert buffers.out(real[2], H) is None
    assert buffers.out(StateVector._trusted(10, np.ones(1 << 10)), H) is real[2].amplitudes

    seen = []
    kernel = qstate._apply

    def recording(amps, op, targets, out=None):
        result = kernel(amps, op, targets, out)
        seen.append((amps.dtype, None if out is None else out.dtype, result.dtype))
        return result

    monkeypatch.setattr(qstate, "_apply", recording)
    phase = gates.from_matrix(np.diag([1.0, 1j]), "PHASE")
    parsed = circuit.parse("qubits 12\ninit uniform\ngate H 4\ngate N1(0.6) 3 c=0.9 q=opt k=2\n"
                           "gate H 9\ngate N1(0.8) 9 c=0.9 q=opt k=2\ngate H 2\n")
    steps = parsed.steps[:3] + [circuit.CircuitStep(phase, (5,))] + parsed.steps[3:]
    program = circuit.CircuitProgram(12, steps, parsed.initial_state)
    assert program.initial_state.amplitudes.dtype == np.float64
    for record in (circuit.run_branch(program), circuit.run_sampled(program, seed=3)):
        assert record.outcome == "success"
        assert record.final_state.amplitudes.dtype == np.complex128
    assert all(out is None or out == result for _, out, result in seen)
    assert (np.float64, None, np.complex128) in seen  # the promoting step
    assert (np.float64, np.float64, np.float64) in seen  # a real array reused before it
    assert (np.complex128, np.complex128, np.complex128) in seen  # a complex spare after it


def test_runs_write_only_into_states_they_made():
    from nuqc import measure

    rng = np.random.default_rng(66)
    parsed = circuit.parse(
        "qubits 12\ngate N1(0.6) 3 c=0.9 q=opt k=3\ngate CN1(0.7) 10 0 c=0.9 q=opt k=3\n"
        "gate H 7\ngate CNOT 0 10\ngate X 2\ngate AL 9 0 c=0.9 q=opt k=2\ngate N1(0.5) 5\n")
    # the first step is a diagonal on the initial state itself, and the start's
    # squared norm is 1 + 2e-11, so that writing over it or normalizing it would show
    start = _almost_unit_start(rng, 12)
    saved = start.amplitudes.copy()
    program = circuit.CircuitProgram(12, parsed.steps, start)
    runs = [lambda: circuit.run_branch(program)]
    runs += [lambda seed=seed: circuit.run_sampled(program, seed=seed) for seed in range(12)]
    finals = []
    for run in runs:
        first, second = run(), run()
        assert (first.outcome, first.steps, first.total_probability, first.failed_step) == (
            second.outcome, second.steps, second.total_probability, second.failed_step)
        if first.final_state is None:
            continue
        amps = first.final_state.amplitudes
        assert not amps.flags.writeable
        with pytest.raises(ValueError):
            amps[0] = 0.0
        assert not np.shares_memory(amps, start.amplitudes)
        assert not np.shares_memory(amps, second.final_state.amplitudes)
        assert np.array_equal(amps.view(np.uint64), second.final_state.amplitudes.view(np.uint64))
        finals.append((first.final_state, amps.copy()))
    assert len(finals) >= 3
    assert circuit.run_ensemble(program, seed=3, trials=200) == circuit.run_ensemble(
        program, seed=3, trials=200)
    # a caller's states, handed to the protocol functions, stay as they are
    pair, policy = program.prepared(program.steps[0])
    caller = normalize(start)
    caller_saved = caller.amplitudes.copy()
    for seed in range(8):
        measure.run_with_reversal(pair, policy, caller, (3,), np.random.default_rng(seed))
        measure.sample_reversal(policy, caller, (3,), np.random.default_rng(seed))
    assert np.array_equal(caller.amplitudes.view(np.uint64), caller_saved.view(np.uint64))
    assert np.array_equal(start.amplitudes.view(np.uint64), saved.view(np.uint64))
    # no later run wrote into a final state a caller holds
    for state, amps in finals:
        assert np.array_equal(state.amplitudes.view(np.uint64), amps.view(np.uint64))
