import numpy as np
import pytest

from nuqc import cli, gates
from nuqc.errors import DomainError, ShapeError

SQ3 = np.sqrt(3.0)
SQ6 = np.sqrt(6.0)

NAND_MATRIX = np.array(
    [
        [0, 0, 0, 1],
        [0, 0, 0, 0],
        [1, 1, 1, 0],
        [0, 0, 0, 0],
    ],
    dtype=complex,
) / SQ3

AL_MATRIX = np.array(
    [
        [0, -1, 1, 0],
        [0, 1, 0, 1],
        [0, -1, 1, 0],
        [0, 1, 0, 1],
    ],
    dtype=complex,
) / SQ6


def test_pauli_x():
    assert np.array_equal(gates.x().matrix, [[0, 1], [1, 0]])
    assert gates.x().is_unitary


def test_hadamard_is_unitary_involution():
    h = gates.h().matrix
    assert np.allclose(h @ h, np.eye(2), atol=1e-12)
    assert gates.h().kind == "unitary"


def test_cnot_control_first():
    m = gates.cnot().matrix
    assert np.array_equal(m, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def test_ckx_sizes_and_action():
    g = gates.ckx(2)
    assert g.arity == 3
    m = g.matrix
    assert np.array_equal(m[:6, :6], np.eye(6))
    assert m[6, 7] == 1.0 and m[7, 6] == 1.0
    with pytest.raises(DomainError):
        gates.ckx(0)


def test_n1_diagonal():
    g = gates.n1(0.25)
    assert np.array_equal(g.matrix, np.diag([1.0, 0.25]))
    assert g.kind == "nonunitary"
    assert g.logically_reversible
    assert not gates.n1(0.0).logically_reversible


def test_n1_rejects_out_of_range():
    with pytest.raises(DomainError):
        gates.n1(1.0)
    with pytest.raises(DomainError):
        gates.n1(-0.1)


def test_u1_is_unitary_partner():
    a = 0.3
    g = gates.u1(a)
    s = np.sqrt(1.0 - a * a)
    assert np.allclose(g.matrix, [[a, s], [s, -a]], atol=1e-15)
    assert g.is_unitary


def test_cn1_and_cu1_controlled_blocks():
    a = 0.6
    assert np.allclose(gates.cn1(a).matrix, np.diag([1, 1, 1, a]), atol=1e-15)
    cu = gates.cu1(a).matrix
    assert np.array_equal(cu[:2, :2], np.eye(2))
    assert np.allclose(cu[2:, 2:], gates.u1(a).matrix, atol=1e-15)
    assert gates.cu1(a).is_unitary
    assert not gates.cn1(a).is_unitary


def test_diagonal_gate():
    g = gates.diagonal([1.0, 0.5, 1.0, 0.0])
    assert np.array_equal(g.matrix, np.diag([1.0, 0.5, 1.0, 0.0]))
    assert g.arity == 2
    with pytest.raises(ShapeError):
        gates.diagonal([1.0, 0.5, 1.0])
    with pytest.raises(DomainError):
        gates.diagonal([1.0, 1.5])


def test_nand_matrix_and_classification():
    g = gates.nand()
    assert np.allclose(g.matrix, NAND_MATRIX, atol=1e-15)
    assert g.arity == 2
    assert g.kind == "nonunitary"
    # two inputs collapse onto one column, so the gate cannot be inverted
    assert not g.logically_reversible


def test_nand_truth_table_on_columns():
    # column x maps to |NAND(x) on the first qubit, 0 on the second>
    g = gates.nand().matrix * SQ3
    for x, out in ((0b00, 1), (0b01, 1), (0b10, 1), (0b11, 0)):
        col = g[:, x]
        assert col[out << 1] == 1.0
        assert np.count_nonzero(col) == 1


def test_abrams_lloyd_matrix():
    g = gates.abrams_lloyd()
    assert np.allclose(g.matrix, AL_MATRIX, atol=1e-15)
    assert g.kind == "nonunitary"
    assert not g.logically_reversible


def test_largest_singular_values_are_one():
    for g in (gates.nand(), gates.abrams_lloyd()):
        s = np.linalg.svd(g.matrix, compute_uv=False)
        assert abs(s[0] - 1.0) < 1e-12


def test_identity():
    g = gates.identity(2)
    assert np.array_equal(g.matrix, np.eye(4))
    assert g.is_unitary


def test_from_matrix_classifies():
    assert gates.from_matrix([[0, 1], [1, 0]]).kind == "unitary"
    assert gates.from_matrix([[1, 0], [0, 0.5]]).kind == "nonunitary"


def test_from_matrix_rejects_expanding():
    with pytest.raises(DomainError):
        gates.from_matrix([[2.0, 0.0], [0.0, 0.0]])


def test_from_matrix_rejects_non_square_power_of_two():
    with pytest.raises(ShapeError):
        gates.from_matrix(np.eye(3))


def test_normalize_gate_records_scale():
    g = gates.normalize_gate([[2.0, 0.0], [0.0, 1.0]])
    assert np.allclose(g.matrix, [[1.0, 0.0], [0.0, 0.5]], atol=1e-15)
    assert g.normalization_scale == pytest.approx(2.0, abs=1e-12)
    s = np.linalg.svd(g.matrix, compute_uv=False)
    assert abs(s[0] - 1.0) < 1e-12


def test_normalize_gate_rejects_zero():
    with pytest.raises(DomainError):
        gates.normalize_gate(np.zeros((2, 2)))


@pytest.mark.parametrize(
    "label",
    ["X", "H", "CNOT", "NAND", "AL", "I", "N1(0.3)", "U1(0.5)", "CN1(0.25)",
     "CU1(0.8)", "CKX(3)", "D(1.0,0.5)"],
)
def test_parse_label_round_trip(label):
    g = gates.parse_label(label)
    again = gates.parse_label(g.label)
    assert np.array_equal(g.matrix, again.matrix)


def test_parse_label_mat_uses_loader():
    seen = {}

    def loader(name):
        seen["name"] = name
        return np.array([[1.0, 0.0], [0.0, 0.5]])

    g = gates.parse_label("MAT(custom.mat)", loader)
    assert seen["name"] == "custom.mat"
    assert g.label == "MAT(custom.mat)"
    assert np.allclose(g.matrix, [[1.0, 0.0], [0.0, 0.5]], atol=1e-15)


def test_parse_label_mat_without_loader():
    with pytest.raises(DomainError):
        gates.parse_label("MAT(custom.mat)")


def test_parse_label_rejects_unknown():
    with pytest.raises(DomainError):
        gates.parse_label("BOGUS")
    with pytest.raises(DomainError):
        gates.parse_label("N1(oops)")
    with pytest.raises(DomainError):
        gates.parse_label("N1()")


@pytest.mark.parametrize("label, message", [
    ("MAT()", "MAT(...) requires a file path"),
    ("CKX(1.5)", "CKX takes one integer parameter, got '1.5'"),
    ("N1(0.1,0.2)", "N1 takes one parameter, got '0.1,0.2'"),
    ("FOO(1)", "unrecognized gate label 'FOO(1)'"),
])
def test_parse_label_rejects_malformed_parameters(label, message, capsys):
    with pytest.raises(DomainError) as err:
        gates.parse_label(label, lambda path: np.eye(2))
    assert str(err.value) == message
    # the CLI reports it on one stderr line and exits 1
    assert cli.main(["probe", label]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _metadata_cases():
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    projector = np.zeros((4, 4))
    projector[0, 0] = projector[3, 3] = 1.0
    contraction = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    contraction /= 1.25 * np.linalg.norm(contraction, 2)
    v = rng.normal(size=4)
    full_rank = rng.normal(size=(4, 4))
    return {  # name -> the call that makes the gate
        "X": gates.x,
        "H": gates.h,
        "CNOT": gates.cnot,
        **{f"CKX({k})": lambda k=k: gates.ckx(k) for k in (1, 2, 3)},
        "I": gates.identity,
        "U1(0.3)": lambda: gates.u1(0.3),
        "U1(1.0)": lambda: gates.u1(1.0),
        "CU1(0.3)": lambda: gates.cu1(0.3),
        "N1(0)": lambda: gates.n1(0.0),
        "N1(0.3)": lambda: gates.n1(0.3),
        "CN1(0)": lambda: gates.cn1(0.0),
        "CN1(0.5)": lambda: gates.cn1(0.5),
        "NAND": gates.nand,
        "AL": gates.abrams_lloyd,
        "D(1,0.5)": lambda: gates.diagonal([1.0, 0.5]),
        "D(1,1)": lambda: gates.diagonal([1.0, 1.0]),
        "from_matrix unitary": lambda: gates.from_matrix(q),
        "from_matrix projector": lambda: gates.from_matrix(projector),
        "from_matrix contraction": lambda: gates.from_matrix(contraction),
        "normalize_gate singular": lambda: gates.normalize_gate(3.0 * np.outer(v, v)),
        "normalize_gate full rank": lambda: gates.normalize_gate(full_rank),
    }


_EXPECTED_METADATA = {  # (kind, logically_reversible), as the oracle must also find
    "N1(0)": ("nonunitary", False), "CN1(0)": ("nonunitary", False),
    "NAND": ("nonunitary", False), "AL": ("nonunitary", False),
    "N1(0.3)": ("nonunitary", True), "CN1(0.5)": ("nonunitary", True),
    "D(1,0.5)": ("nonunitary", True), "from_matrix projector": ("nonunitary", False),
    "from_matrix contraction": ("nonunitary", True),
    "normalize_gate singular": ("nonunitary", False),
    "normalize_gate full rank": ("nonunitary", True),
}


@pytest.mark.parametrize("name", list(_metadata_cases()))
def test_gate_metadata_matches_an_svd_and_gram_oracle(name, monkeypatch):
    make = _metadata_cases()[name]
    svd_calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svd_calls.append(a) or svd(*a, **k))
    gate = make()
    monkeypatch.undo()
    if name.startswith(("from_matrix", "normalize_gate")):
        # one SVD gives both the largest singular value and the reversibility
        assert len(svd_calls) == 1
    m = gate.matrix
    gram_defect = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
    kind = "unitary" if gram_defect <= gates.UNITARY_ATOL else "nonunitary"
    reversible = bool(np.linalg.svd(m, compute_uv=False)[-1] > gates.SINGULAR_ATOL)
    assert (gate.kind, gate.logically_reversible) == (kind, reversible)
    assert (kind, reversible) == _EXPECTED_METADATA.get(name, ("unitary", True))
