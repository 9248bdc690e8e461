"""Dense complex linear algebra kernel.

Matrices are numpy ``complex128`` arrays throughout.  Comparisons use the
entrywise max norm, within ``ATOL_EXACT`` for exact identities such as
Hermiticity.  Decompositions delegate to ``numpy.linalg``; the wrappers add
the domain checks and ordering conventions the rest of the package relies on.
"""

from __future__ import annotations

import contextlib
from itertools import chain, repeat

import numpy as np

from .errors import DomainError, ShapeError

ATOL_EXACT = 1e-10

# Eigenvalues of a nominally PSD matrix in [-PSD_CLAMP, 0) are rounding noise
# and are clamped to zero; anything more negative is a domain violation.
PSD_CLAMP = 1e-10


def as_matrix(entries, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce ``entries`` to a finite complex128 2-D array, optionally reshaping."""
    a = np.asarray(entries, dtype=np.complex128)
    if rows is not None:
        if cols is None:
            cols = rows
        try:
            a = a.reshape(rows, cols)
        except ValueError as exc:
            raise ShapeError(f"cannot reshape {a.size} entries to {rows}x{cols}") from exc
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.isfinite(a).all():
        raise ShapeError("matrix entries must be finite")
    return a


def require_square(a: np.ndarray) -> np.ndarray:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got {a.shape}")
    return a


def max_abs(a) -> float:
    """Entrywise max norm."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def is_hermitian(a, tol: float = ATOL_EXACT) -> bool:
    a = require_square(a)
    return max_abs(a - a.conj().T) <= tol


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``a = u @ diag(s) @ v`` of a square matrix.

    Singular values come back in descending order.  Note that ``v`` is the
    full right factor (numpy's ``vh``), not its adjoint.
    """
    a = require_square(a)
    u, s, vh = np.linalg.svd(a)
    return u, s, vh


def sqrtm_psd(a, tol: float = PSD_CLAMP) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in ``[-tol, 0)`` are clamped to zero; anything below ``-tol``
    raises ``DomainError``.
    """
    a = require_square(a)
    if not is_hermitian(a):
        raise DomainError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(a)
    if w[0] < -tol:
        raise DomainError(f"matrix is not positive semidefinite (eigenvalue {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    r = (v * np.sqrt(w)) @ v.conj().T
    # re-hermitize to kill rounding asymmetry
    return (r + r.conj().T) / 2.0


def _parse_entry(token: str) -> complex:
    parts = token.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ShapeError(f"bad matrix entry {token!r}; expected 're,im' or a bare real")


def format_matrix(a) -> str:
    """Render a matrix in the interchange text format.

    First line is ``rows cols``; each following line holds one row of
    whitespace-separated ``re,im`` entries.  ``#`` starts a comment.
    """
    a = as_matrix(a)
    rows, cols = a.shape
    # one %-format over the interleaved re/im floats; %r of a float is its repr
    template = "\n".join([" ".join(["%r,%r"] * cols)] * rows)
    values = np.ascontiguousarray(a).view(np.float64).ravel().tolist()
    return f"{rows} {cols}\n" + template % tuple(values) + "\n"


def parse_matrix_text(text: str) -> np.ndarray:
    """Inverse of :func:`format_matrix`."""
    tokens: list[str] = []
    for raw in text.splitlines() if "#" in text else [text]:
        tokens.extend(raw.split("#", 1)[0].split())
    if len(tokens) < 2:
        raise ShapeError("matrix text must start with 'rows cols'")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ShapeError(f"bad matrix header {tokens[0]!r} {tokens[1]!r}") from exc
    if rows < 1 or cols < 1:
        raise ShapeError("matrix dimensions must be positive")
    body = tokens[2:]
    if len(body) != rows * cols:
        raise ShapeError(f"expected {rows * cols} entries, found {len(body)}")
    entries = None
    if set(map(str.count, body, repeat(","))) == {1}:  # all 're,im': one pass over the parts
        with contextlib.suppress(ValueError):  # on a bad part, the per-entry parse names it
            parts = chain.from_iterable(map(str.split, body, repeat(",")))
            values = np.fromiter(map(float, parts), np.float64, 2 * len(body))
            entries = values.view(np.complex128)
    if entries is None:
        entries = [_parse_entry(tok) for tok in body]
    return as_matrix(entries, rows, cols)


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_text(fh.read())


def write_matrix(path, a) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(a))
