import numpy as np
import pytest

from nuqc import cli
from nuqc.errors import DomainError, ShapeError
from nuqc.linops import (
    _parse_entry,
    as_matrix,
    format_matrix,
    is_hermitian,
    max_abs,
    parse_matrix_text,
    read_matrix,
    require_square,
    sqrtm_psd,
    svd,
    write_matrix,
)


def test_as_matrix_accepts_nested_lists():
    a = as_matrix([[1, 2], [3, 4]])
    assert a.dtype == np.complex128
    assert a.shape == (2, 2)


def test_as_matrix_rejects_non_2d():
    with pytest.raises(ShapeError):
        as_matrix([1, 2, 3])


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ShapeError):
        as_matrix([[np.inf, 0], [0, 1]])


def test_as_matrix_checks_requested_shape():
    with pytest.raises(ShapeError):
        as_matrix([[1, 2], [3, 4]], rows=3, cols=2)


def test_as_matrix_reshapes_to_a_square_by_default():
    a = as_matrix(range(4), 2)
    assert a.shape == (2, 2)
    assert np.array_equal(a, [[0, 1], [2, 3]])


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_as_matrix_rejects_empty_dimensions(shape):
    with pytest.raises(ShapeError) as err:
        as_matrix(np.zeros(shape))
    assert str(err.value) == f"matrix dimensions must be positive, got {shape}"


def test_require_square():
    with pytest.raises(ShapeError):
        require_square(as_matrix([[1, 2, 3], [4, 5, 6]]))


def test_max_abs():
    assert max_abs(np.array([[1, -3j], [2, 0]])) == 3.0
    assert max_abs(np.zeros((0, 2))) == 0.0


def test_is_hermitian():
    assert is_hermitian(np.array([[2, 1j], [-1j, 5]]))
    assert not is_hermitian(np.array([[0, 1], [0, 0]]))


def test_svd_reconstructs():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, s, vh = svd(a)
    assert np.allclose(u @ np.diag(s) @ vh, a)
    assert np.all(s[:-1] >= s[1:])
    assert np.allclose(u @ u.conj().T, np.eye(4))
    assert np.allclose(vh @ vh.conj().T, np.eye(4))


def test_sqrtm_psd_known_value():
    # [[2,1],[1,2]] squared is [[5,4],[4,5]]
    b = sqrtm_psd(np.array([[5.0, 4.0], [4.0, 5.0]]))
    assert np.allclose(b, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)


def test_sqrtm_psd_squares_back():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = m @ m.conj().T
        b = sqrtm_psd(a)
        assert is_hermitian(b, tol=1e-9)
        assert max_abs(b @ b - a) < 1e-9
        w = np.linalg.eigvalsh(b)
        assert w.min() > -1e-12


def test_sqrtm_psd_clamps_tiny_negative_eigenvalues():
    a = np.diag([1.0, -1e-12])
    b = sqrtm_psd(a)
    assert np.allclose(b, np.diag([1.0, 0.0]), atol=1e-6)


def test_sqrtm_psd_rejects_indefinite():
    with pytest.raises(DomainError):
        sqrtm_psd(np.diag([1.0, -0.5]))


def test_sqrtm_psd_rejects_nonhermitian():
    with pytest.raises(DomainError):
        sqrtm_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_format_parse_round_trip():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    again = parse_matrix_text(format_matrix(a))
    assert again.shape == a.shape
    # repr round-trips floats exactly
    assert np.array_equal(again, a)


def _format_per_entry(a):
    """``format_matrix`` as one ``repr`` pair per entry, row by row."""
    a = as_matrix(a)
    rows = [" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row) for row in a]
    return f"{a.shape[0]} {a.shape[1]}\n" + "\n".join(rows) + "\n"


_EDGE_VALUES = [0.0, -0.0, 1.0, 0.1, 1e-5, 1e-4, 1e16, 5e-324, -2.5e-310,
                1.7976931348623157e308]


def _edge_matrix(rows, cols, shift=0):
    """Complex entries pairing the edge values (both zero signs in both parts)."""
    n = rows * cols
    re = [_EDGE_VALUES[(shift + i) % len(_EDGE_VALUES)] for i in range(n)]
    im = [_EDGE_VALUES[(shift + 3 * i + 1) % len(_EDGE_VALUES)] for i in range(n)]
    a = np.empty(n, dtype=np.complex128)
    a.real, a.imag = re, im
    return a.reshape(rows, cols)


def _format_cases():
    rng = np.random.default_rng(11)
    big = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    big.flat[:20] = _edge_matrix(1, 20).ravel()
    return {
        "1x1 -0,-0": np.array([[complex(-0.0, -0.0)]]),
        "1x1 0,-0": np.array([[complex(0.0, -0.0)]]),
        "1x3": _edge_matrix(1, 3),
        "3x1": _edge_matrix(3, 1, shift=5),
        "4x5 edges": _edge_matrix(4, 5, shift=2),
        "64x64": big,
        "adjoint": big.conj().T,
        "strided columns": big[:, ::2],
        "real": big.real.copy(),
    }


@pytest.mark.parametrize("name", list(_format_cases()))
def test_format_matrix_is_byte_identical_to_the_per_entry_repr(name):
    a = _format_cases()[name]
    text = format_matrix(a)
    assert text == _format_per_entry(a)
    again = parse_matrix_text(text)
    assert again.tobytes() == as_matrix(a).copy().tobytes()


def test_format_matrix_shows_the_sign_of_zero():
    a = _edge_matrix(3, 4)
    for i, j, part in [(0, 1, "real"), (2, 2, "imag")]:
        flipped = a.copy()
        getattr(flipped, part)[i, j] *= -1.0
        assert getattr(flipped, part)[i, j] == 0.0
        assert flipped.tobytes() != a.tobytes()
        assert format_matrix(flipped) != format_matrix(a)
        assert format_matrix(flipped) == _format_per_entry(flipped)


def test_parse_matrix_text_ignores_comments_and_blanks():
    text = """
    # a comment
    2 2

    1.0,0.0 0.0,-1.0  # trailing note
    0.5 2.0,3.5
    """
    a = parse_matrix_text(text)
    assert np.array_equal(a, [[1.0, -1j], [0.5, 2.0 + 3.5j]])


def test_parse_matrix_text_rejects_wrong_entry_count():
    with pytest.raises(ShapeError):
        parse_matrix_text("2 2\n1 2 3\n4 5\n")


@pytest.mark.parametrize("text, message", [
    ("2\n", "matrix text must start with 'rows cols'"),
    ("", "matrix text must start with 'rows cols'"),
    ("2 x\n1 2\n", "bad matrix header '2' 'x'"),
    ("2.0 2\n1 2 3 4\n", "bad matrix header '2.0' '2'"),
    ("0 2\n", "matrix dimensions must be positive"),
    ("2 -1\n1 2\n", "matrix dimensions must be positive"),
])
def test_parse_matrix_text_rejects_bad_headers(text, message, tmp_path, capsys):
    with pytest.raises(ShapeError) as err:
        parse_matrix_text(text)
    assert str(err.value) == message
    # the CLI reports it on one stderr line and exits 1
    path = tmp_path / "bad.mat"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["synth", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_parse_matrix_text_rejects_bad_entry():
    with pytest.raises(ShapeError):
        parse_matrix_text("1 1\nnope\n")


def test_read_write_round_trip(tmp_path):
    a = np.array([[0.0, 1.0], [1.0, 0.0]]) + 0.25j
    path = tmp_path / "op.mat"
    write_matrix(path, a)
    assert np.array_equal(read_matrix(path), a)


def _parse_per_entry(text):
    """``parse_matrix_text`` as one ``_parse_entry`` call per body token."""
    tokens = [tok for raw in text.splitlines() for tok in raw.split("#", 1)[0].split()]
    rows, cols = int(tokens[0]), int(tokens[1])
    return as_matrix([_parse_entry(tok) for tok in tokens[2:]], rows, cols)


def test_batched_entry_parse_is_bit_identical_to_the_per_entry_parse():
    rng = np.random.default_rng(64)
    a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    a[0, :4] = [0.0, -0.0, complex(-0.0, -0.0), 1e-310]
    text = format_matrix(a)
    got = parse_matrix_text(text)
    assert got.tobytes() == a.tobytes() == _parse_per_entry(text).tobytes()
    odd = "2 2\n1_0,0x0 1e3,-2.5E-3\n.5,-.0 7,8\n"  # forms float() accepts
    with pytest.raises(ValueError):
        float("0x0")
    with pytest.raises(ShapeError, match="'1_0,0x0'"):
        parse_matrix_text(odd)
    odd = odd.replace("0x0", "0")
    assert parse_matrix_text(odd).tobytes() == _parse_per_entry(odd).tobytes()


@pytest.mark.parametrize("body, token", [
    ("1,2 3,4,5", "'3,4,5'"),  # three parts; the comma count alone balances with
    ("1 2,3,4", "'2,3,4'"),    # a bare real, so each token's count is checked
    ("1,2 a,4", "'a,4'"),
    ("1,2 3,", "'3,'"),
])
def test_batched_entry_parse_reports_the_bad_entry(body, token):
    with pytest.raises(ShapeError, match=f"bad matrix entry {token}"):
        parse_matrix_text(f"1 2\n{body}\n")


def test_batched_entry_parse_rejects_nonfinite_entries():
    with pytest.raises(ShapeError, match="finite"):
        parse_matrix_text("1 2\n1,2 inf,0\n")
