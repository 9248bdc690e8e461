"""State vectors over a register of up to 24 qubits.

Qubit 0 is the least significant bit of the basis index, so ``|q_{n-1} ... q_1
q_0>`` reads left to right from the written ket.  When a k-qubit operator is
applied to targets ``(t_0, ..., t_{k-1})``, target ``t_0`` supplies the most
significant bit of the operator's local basis index, matching how small gate
matrices are written down.

Amplitudes are float64 or complex128.  The library's own real starts
(:func:`start_state`) are float64 from ``COPY_FREE_MIN_SIZE`` amplitudes on,
and a real program keeps them real: every kernel path takes either dtype,
and a real operator's result has its input's dtype.  The first complex
operator promotes a state to complex128; nothing demotes it.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import shares
from .errors import AnnihilatedStateError, ShapeError, StateMemoryError

MAX_QUBITS = 24

# Register-sized complex arrays alive at once while one step runs, counting
# the program's initial state.  Measured with tracemalloc at 16 qubits, in
# sizes of the run's own states: every runner (branch, sampled with
# reversals, and mc's branch pass) peaks at 3.1 complex or 3.2 float64
# states on the copy-free kernel paths (the initial state, the current one
# and one Buffers array), at 3.3 on the transpose path, whose blocks add a
# quarter state, and at 2.3 complex or 2.5 float64 states on a diagonal
# measured step whose targets span more than MONOMIAL_BLOCK_BITS, such as
# CN1 on (15, 1).  The step that promotes a float64 state peaks at 3.3
# complex states: the float64 start and input, the input's complex copy,
# the result and the transpose path's blocks.  Each worker thread that takes
# a share of a pass (see shares.in_shares) writes into that pass's result and
# allocates nothing state-sized, only numpy's scratch for its broadcasting
# multiply (about 130 KiB).  At 18, 19 and 20 qubits a branch run over every
# split path peaked at 3.15, 3.07 and 3.04 float64 or 3.08, 3.04 and 3.02
# complex states on one thread, and up to 0.06 state higher with two workers.
LIVE_STATES = 4

# Norms below this are treated as an annihilated (fully suppressed) state.
ANNIHILATION_THRESHOLD = 1e-14

# Amplitudes below this magnitude are omitted from dumps.
DUMP_THRESHOLD = 1e-12

# dump_state scans DUMP_SCAN amplitudes at a time for the ones it prints and
# formats at most DUMP_CHUNK of those at a time, so its working arrays keep a
# fixed size (about 3 MiB) on any register and sparse states cost few
# formatting calls.  Formatting 2^14 full-precision amplitudes at once took
# 7.4 MiB; a dump formatted whole peaked at 9.5 uniform 16-qubit states.
DUMP_SCAN = 1 << 16
DUMP_CHUNK = 1 << 12


class StateVector:
    """Immutable amplitude vector for an ``n_qubits`` register.

    Constructed publicly, its amplitudes are complex128; the library's own
    starts and kernel results may be float64 (see the module docstring).
    """

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

    @classmethod
    def _trusted(cls, n_qubits: int, amps: np.ndarray) -> "StateVector":
        """Wrap a kernel result without copying it or passing over it again.

        Only for ``(2**n_qubits,)`` float64 or complex128 arrays computed
        from finite operands; public construction validates instead.
        """
        amps.flags.writeable = False
        self = object.__new__(cls)
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "amplitudes", amps)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


def _mem_available() -> int | None:
    """``MemAvailable`` of ``/proc/meminfo`` in bytes, or ``None`` where it cannot be read."""
    try:
        with open("/proc/meminfo", "rb") as fh:
            for line in fh:
                if line.startswith(b"MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


# Smaller needs are admitted without reading /proc/meminfo, whose read costs
# about 15 us: as much as a whole gate on a small register.
MEMORY_CHECK_MIN_BYTES = 16 << 20


def check_memory(n_qubits: int) -> None:
    """Refuse a register whose simulation would not fit in available memory.

    A step keeps up to ``LIVE_STATES`` register-sized arrays alive, so an
    ``n_qubits`` register needs ``2**n_qubits * 16 * LIVE_STATES`` bytes.
    Complex ones are counted even for a real start: this runs before the
    steps are known, and a complex step can promote any state.
    Called before the first allocation of a register; raises
    ``StateMemoryError`` when that exceeds ``MemAvailable``.
    """
    need = (1 << n_qubits) * 16 * LIVE_STATES
    if need < MEMORY_CHECK_MIN_BYTES:
        return
    available = _mem_available()
    if available is not None and need > available:
        raise StateMemoryError(
            f"a {n_qubits}-qubit register needs about {need / 2**20:.1f} MiB "
            f"({LIVE_STATES} states of {2**n_qubits * 16 / 2**20:.1f} MiB), "
            f"but only {available / 2**20:.1f} MiB are available"
        )


def start_state(n_qubits: int, index, values) -> StateVector:
    """A start made by the library: finite ``values`` at the basis ``index``, zero elsewhere.

    ``index`` selects amplitudes as in numpy (an index, an index array or a
    slice).  Real ``values`` make a float64 state from ``COPY_FREE_MIN_SIZE``
    amplitudes on; every other start is complex128.  Memory is checked before
    the array is allocated.  A slice over every amplitude is written in the
    one pass that allocates the array.
    """
    check_memory(n_qubits)
    size = 1 << n_qubits
    real = size >= COPY_FREE_MIN_SIZE and not np.iscomplexobj(values)
    dtype = np.float64 if real else np.complex128
    if isinstance(index, slice) and index.indices(size) == (0, size, 1):
        return StateVector._trusted(n_qubits, np.full(size, values, dtype=dtype))
    amps = np.zeros(size, dtype=dtype)
    amps[index] = values
    return StateVector._trusted(n_qubits, amps)


def basis_state(n_qubits: int, index: int) -> StateVector:
    """Computational basis state ``|index>``."""
    if not 0 <= index < (1 << n_qubits):
        raise ShapeError(f"basis index {index} out of range for {n_qubits} qubits")
    return start_state(n_qubits, index, 1.0)


def uniform_state(n_qubits: int) -> StateVector:
    """Equal superposition of all basis states."""
    return start_state(n_qubits, slice(None), 1.0 / np.sqrt(1 << n_qubits))


def norm_sq(state: StateVector) -> float:
    """``<state|state>``: ``ddot`` on a float64 state, ``zdotc`` on a complex one."""
    a = state.amplitudes
    return float(np.real(np.vdot(a, a)))


def normalize(state: StateVector, mass: float | None = None, *,
              out: np.ndarray | None = None) -> StateVector:
    """``state`` divided by its norm.

    ``mass``, when given, is ``norm_sq(state)`` as the caller computed it,
    which saves a pass over the amplitudes.  ``out``, as in numpy, is a
    writeable, C-contiguous ``(2**n,)`` array of the state's dtype for the
    result, such as ``state.amplitudes`` itself; any other raises
    ``ShapeError``.  Raises ``AnnihilatedStateError`` on a vanishing norm and
    ``ShapeError`` on a non-finite one, which is how an overflow in the
    kernel surfaces.
    The elementwise pass runs in shares (see :func:`shares.in_shares`).
    """
    nrm = np.sqrt(norm_sq(state) if mass is None else mass)
    if not np.isfinite(nrm):
        raise ShapeError(f"cannot normalize state with norm {nrm!r}")
    if nrm < ANNIHILATION_THRESHOLD:
        raise AnnihilatedStateError(f"cannot normalize state with norm {nrm:.3e}")
    amps = state.amplitudes
    if out is not None:
        _check_out(out, amps.size, amps.dtype)
    if amps.dtype == np.float64:
        # numpy's complex divide multiplies by s = 1/nrm (below), so the real
        # parts of a complex state come out as re * s; a true division would not
        ufunc, operand = np.multiply, 1.0 / nrm
    elif nrm >= 2.0:
        ufunc, operand = np.divide, nrm
    else:
        # bit for bit ``amplitudes / nrm``, at a third of its cost: numpy
        # divides by a real as by complex(nrm, 0), computing (re + im*0) * s
        # and (im - re*0) * s with s = 1/nrm; multiplying by complex(s, -0.0)
        # adds the same zero terms after the products instead of before,
        # which gives the same bits unless a nonzero part underflows to
        # zero, and that needs s <= 0.5
        ufunc, operand = np.multiply, complex(1.0 / nrm, -0.0)
    result = np.empty_like(amps) if out is None else out
    shares.in_shares(amps.size, amps.size,
                     lambda lo, hi: ufunc(amps[lo:hi], operand, out=result[lo:hi]))
    return StateVector._trusted(state.n_qubits, result)


def _check_out(out, size: int, dtype) -> None:
    """Refuse an ``out=`` that is not a writeable, C-contiguous ``(size,)`` ndarray of ``dtype``."""
    if not (isinstance(out, np.ndarray) and out.shape == (size,) and out.dtype == dtype
            and out.flags.c_contiguous and out.flags.writeable):
        raise ShapeError(f"out must be a writeable, C-contiguous ({size},) "
                         f"{np.dtype(dtype)} ndarray")


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
    if not np.isfinite(op).all():
        raise ShapeError("operator entries must be finite")
    return op, targets


# Arrays with fewer entries than this stay on the transpose path.  From 2^10
# entries on, the copy-free paths take 0.66x (states) and 0.80x (16-column
# batches) of its time, summed over N1, CN1, CNOT, CKX(2), H and AL gates on
# random targets, with CKX(2) the slowest case at up to 1.1x; below 2^10 their
# per-row Python cost outweighs the copies they save (one x86-64 core).
COPY_FREE_MIN_SIZE = 1 << 10

# The low-block path embeds a real dense operator whose targets all lie below
# LOW_BLOCK_BITS in a block of that many qubits: a GEMM against a 16 x 16
# matrix costs no more than its memory pass.  It is tried before the batched
# GEMM below: on a 20-qubit float64 state, H on qubit 0 (a 2 x 2 GEMM over
# 2^19 rows when embedded in one qubit) took 1.4-1.7 instead of 2.3-3.3 ms,
# and H on qubit 3 (a batched GEMM over runs of 8) 1.3-1.4 instead of 2.3
# (best of 11, one BLAS thread, x86-64).
LOW_BLOCK_BITS = 4

# A real dense operator on adjacent targets listed high to low, the lowest at
# least REAL_ADJACENT_MIN_BIT, is one batched real GEMM over the float64 view:
# AL on (4, 3) of a 20-qubit float64 state took 1.5-1.6 ms on it against
# 2.8-3.1 on the transpose path.
REAL_ADJACENT_MIN_BIT = 3

# A monomial operator is one gather over a block of index bits, through a
# table of 2^width entries cached per operator, targets and block.  Blocks
# wider than MONOMIAL_BLOCK_BITS are gathered 2^MONOMIAL_BLOCK_BITS rows at a
# time through tables built per call, so no table grows with the register.
MONOMIAL_BLOCK_BITS = 14

# When the contiguous run below the lowest target is shorter than FOLD_BELOW
# entries, the low bits join the block, which then spans at least bits
# 0..FOLD_BITS-1: a gather or multiply over short runs pays per run.
FOLD_BELOW = 64
FOLD_BITS = 10

# The transpose path works through blocks of at most this many entries, so
# an array this small is one block.  On 14-qubit states blocks of 2^13
# entries took AL on (11, 0) in 66 us and of 2^14 (one block) in 168 us,
# against 79 us before blocking; from 16 qubits on, 2^14 was up to 10%
# faster (one x86-64 core).  The pair path's blocks hold as many float64
# entries.
TRANSPOSE_BLOCK_ENTRIES = 1 << 13


def _apply(amps: np.ndarray, op: np.ndarray, targets: tuple[int, ...],
           out: np.ndarray | None = None) -> np.ndarray:
    """The state kernel: ``op`` on ``targets`` of a ``(2**n,)`` or ``(2**n, cols)`` array.

    Each column is one register state.  Unchecked; callers validate through
    :func:`_check_operator`.  The array is float64 or complex128; a real
    ``op`` gives a result of its dtype, a complex ``op`` a complex128 one.
    ``out`` has the result's dtype.  From ``COPY_FREE_MIN_SIZE`` entries on,
    the kernel makes one pass over the array without transposing it: one
    gather and scale when a real ``op`` is monomial; for a state one GEMM
    when a real ``op`` is dense on targets below ``LOW_BLOCK_BITS`` listed
    high to low; for a float64 state one GEMM per block of amplitude pairs
    when a real ``op`` is dense on other targets, the last of them qubit 0;
    and one batched real GEMM when a real ``op`` is dense on other adjacent
    targets listed high to low, the lowest at least
    ``REAL_ADJACENT_MIN_BIT`` (C-contiguous arrays only).  All give the
    transpose path's values exactly (the sign of an exact zero aside): a
    real coefficient multiplies as zgemm does, and the GEMMs keep zgemm's
    summation order.  On a float64 array each path gives the real parts of
    what it gives the array's complex twin.  Complex monomial operators and
    dense low targets in other orders would round differently, and a batch
    would need one small GEMM per low block, which is slower.

    The monomial, low-block and batched GEMM paths run in row shares (see
    :func:`shares.in_shares`), at most one per usable core and none below
    ``shares.SHARE_MIN_ENTRIES`` entries.  A share gathers, scales or sums
    each of its entries as the whole pass would, so the bits never depend on
    the share count.  The pair and transpose paths, whose per-block Python
    work holds the GIL, run on the calling thread.
    """
    if amps.size >= COPY_FREE_MIN_SIZE:
        key = op.tobytes()
        real, rows = _structure(key)
        if rows is not None:
            return _apply_monomial(amps, rows, targets, out)
        if (real and amps.ndim == 1 and targets[0] < LOW_BLOCK_BITS
                and all(a > b for a, b in zip(targets, targets[1:]))):
            return _apply_low_block(amps, key, targets, out)
        low = targets[-1]
        if real and low == 0 and amps.ndim == 1 and amps.dtype == np.float64:
            return _apply_pairs(amps, op, targets, out)
        if (real and low >= REAL_ADJACENT_MIN_BIT and amps.flags.c_contiguous
                and targets == tuple(range(targets[0], low - 1, -1))):
            return _apply_adjacent_real(amps, op, targets, out)
    return _apply_transposed(amps, op, targets, out)


def _into(out: np.ndarray | None, shape) -> np.ndarray | None:
    """``out`` viewed as ``shape``, for a kernel path to write into; None stays None."""
    return None if out is None else out.reshape(shape)


def _apply_transposed(amps: np.ndarray, op: np.ndarray, targets: tuple[int, ...],
                      out: np.ndarray | None = None) -> np.ndarray:
    """The kernel for any operator: one GEMM on the target axes per block of the others.

    A block's columns are a batch's columns and the lowest other qubit axes,
    as many as fit in ``TRANSPOSE_BLOCK_ENTRIES >> k`` entries.  Per index of
    the axes above them, the block's slab is gathered (a view where its axes
    merge), multiplied by one GEMM and written into place, so no state-sized
    temporary is made.  A complex ``op`` on a float64 array promotes it
    first, with one ``astype``: every complex operator comes here.  From
    ``COPY_FREE_MIN_SIZE`` entries on, a real ``op`` multiplies the float64
    view, as :func:`_apply_adjacent_real` does, unless a block of a complex
    array is one column, for which numpy takes a complex gemv, whose sums
    differ; smaller arrays keep the complex GEMM, which is as fast there and
    leaves mc's small registers their bits and memory.
    """
    n = amps.shape[0].bit_length() - 1
    k = len(targets)
    cols = amps.size >> n  # a batch's columns; 1 for a state
    low = min(n - k, max(((TRANSPOSE_BLOCK_ENTRIES >> k) // cols).bit_length() - 1, 0))
    split = n - k - low  # the other qubit axes above a block
    real_amps = amps.dtype == np.float64
    real = ((real_amps or (amps.size >= COPY_FREE_MIN_SIZE and cols << low > 1))
            and not op.imag.any())
    if real:
        op = op.real
    elif real_amps:
        amps = amps.astype(np.complex128)
    psi = amps.reshape((2,) * n + amps.shape[1:])
    axes = [n - 1 - t for t in targets]
    rest = [a for a in range(psi.ndim) if a not in axes]
    order = rest[:split] + axes + rest[split:]
    moved = psi.transpose(order)
    result = np.empty(amps.shape, dtype=amps.dtype) if out is None else out
    into = result.reshape(psi.shape).transpose(order)
    for index in itertools.product(*map(range, moved.shape[:split])):
        block = moved[index].reshape(1 << k, -1)  # a view where the axes merge, else a copy
        if real:
            block = np.ascontiguousarray(block).view(np.float64)
        into[index] = (op @ block).view(amps.dtype).reshape(moved.shape[split:])
    return result


def _apply_adjacent_real(amps: np.ndarray, op: np.ndarray, targets: tuple[int, ...],
                         out: np.ndarray | None = None) -> np.ndarray:
    """A real dense operator on adjacent targets listed high to low, as one batched GEMM.

    In the float64 view of a complex array each amplitude is two adjacent
    reals that the same entries of ``op`` multiply, so the blocks are twice
    as long; zgemm adds only exact zeros, ``0 * im`` and ``0 * re``, to the
    same products.  A float64 array is its own view.  Shares take ranges of
    the blocks, or of their columns when there is one block.
    """
    run = (amps.size >> (amps.shape[0].bit_length() - 1)) << targets[-1]
    reals = amps.view(np.float64)
    blocks = reals.reshape(-1, op.shape[0], reals.size // amps.size * run)
    into = (np.empty(blocks.shape) if out is None
            else out.view(np.float64).reshape(blocks.shape))
    op = op.real
    if blocks.shape[0] > 1:
        shares.in_shares(blocks.shape[0], amps.size,
                         lambda lo, hi: np.matmul(op, blocks[lo:hi], out=into[lo:hi]))
    else:
        shares.in_shares(blocks.shape[2], amps.size, lambda lo, hi: np.matmul(
            op, blocks[..., lo:hi], out=into[..., lo:hi]))
    return into.view(amps.dtype).reshape(amps.shape)


def _apply_pairs(amps: np.ndarray, op: np.ndarray, targets: tuple[int, ...],
                 out: np.ndarray | None = None) -> np.ndarray:
    """A real dense operator whose last target is qubit 0, on a float64 state, one GEMM per block.

    Viewed as complex128, each element of the state is a pair: its
    amplitudes at bit 0 = 0 and 1, the operator's local indices ``2h`` and
    ``2h + 1`` for the local index ``h`` of the other targets.  A block's
    rows are the lowest other bits, as many as fit in
    ``TRANSPOSE_BLOCK_ENTRIES >> k`` rows.  Per index of the other bits
    above them, the block's ``2**(k-1)`` slabs of pairs, one per ``h`` and
    each made of contiguous runs, are copied side by side into a ``rows x
    2**k`` float64 buffer, multiplied by ``op.T`` in one GEMM and written
    into place.  Each result sums its ``2**k`` products in the transpose
    path's order, so the bits are that path's, without its gather, whose
    every read skips an amplitude.
    """
    k = len(targets)
    pairs = amps.view(np.complex128)
    m = pairs.size.bit_length() - 1  # the pair index's bits: qubits 1 to n - 1
    low = min(m - k + 1, max((TRANSPOSE_BLOCK_ENTRIES >> k).bit_length() - 1, 0))
    # per pair index bit, high to low, the axis it joins: a run of other bits
    # above the rows (-2) or of rows (-1), or target j's own (j)
    others = [b for b in range(m) if b + 1 not in targets]
    axis = (dict.fromkeys(others[low:], -2) | dict.fromkeys(others[:low], -1)
            | {t - 1: j for j, t in enumerate(targets[:-1])})
    runs = [(key, len(list(bits))) for key, bits
            in itertools.groupby(axis[b] for b in range(m - 1, -1, -1))]
    shape = [1 << size for _, size in runs]
    order = sorted(range(len(runs)), key=lambda a: runs[a][0])  # stable: high to low in a kind
    above = sum(key == -2 for key, _ in runs)
    moved = pairs.reshape(shape).transpose(order)
    result = np.empty(amps.shape, dtype=amps.dtype) if out is None else out
    into = result.view(np.complex128).reshape(shape).transpose(order)
    block = np.empty(moved.shape[above:], dtype=np.complex128)
    product = np.empty_like(block)
    rows_in, rows_out = (a.reshape(1 << low, -1).view(np.float64) for a in (block, product))
    op_t = np.ascontiguousarray(op.real.T)
    slabs = [(Ellipsis, *h) for h in itertools.product((0, 1), repeat=k - 1)]
    for index in itertools.product(*map(range, moved.shape[:above])):
        source = moved[index]
        for h in slabs:
            block[h] = source[h]
        np.matmul(rows_in, op_t, out=rows_out)
        into[index] = product
    return result


@functools.lru_cache(maxsize=1024)
def _structure(key: bytes) -> tuple[bool, tuple[tuple[int, float], ...] | None]:
    """Whether the operator in ``key`` is real, and its monomial rows if it is.

    ``key`` holds a square complex128 matrix.  The rows are ``(source
    column, coefficient)`` per output row, given when the matrix is real and
    every row has at most one nonzero entry (a diagonal or scaled
    permutation); a zero row reads ``(0, 0.0)``.
    """
    flat = np.frombuffer(key, dtype=np.complex128)
    dim = int(round(flat.size ** 0.5))
    op = flat.reshape(dim, dim)
    if op.imag.any():
        return False, None
    nonzero = op != 0
    if (nonzero.sum(axis=1) > 1).any():
        return True, None
    cols = nonzero.argmax(axis=1)
    return True, tuple((int(c), float(op.real[r, c])) for r, c in enumerate(cols))


def _local_index(targets: tuple[int, ...], block):
    """The operator's local basis index at each of the block positions ``block``.

    Of ``block``'s integer dtype, or an int for an int ``block``.
    """
    local = 0
    for t in targets:
        local = (local << 1) | ((block >> t) & 1)
    return local


def _gather_tables(rows, targets: tuple[int, ...], block: np.ndarray,
                   local: np.ndarray | None = None):
    """``(index, factor)`` of a monomial operator at the block positions ``block``.

    ``targets`` are bit positions within the block.  Position ``b`` of the
    result reads position ``index[b]`` times ``factor[b]``; ``index`` is
    ``None`` for a diagonal and ``factor``, float64, for a permutation.
    ``local`` is :func:`_local_index` of the targets and block, computed
    when not given.  Target bits missing from ``block``, such as bits above
    its dtype, come from ``local``, so ``index`` gets them from the source.
    """
    if local is None:
        local = _local_index(targets, block)
    cols, coefs = zip(*rows)
    index = factor = None
    if cols != tuple(range(len(cols))):
        # per local row, the target bits of its source at their block positions
        spread = np.array([sum(((c >> j) & 1) << t for j, t in enumerate(reversed(targets)))
                           for c in range(len(cols))])
        index = spread[np.array(cols)][local]
        index |= block & (~spread[-1]).astype(block.dtype)
    if any(c != 1.0 for c in coefs):
        factor = np.array(coefs)[local]
    return index, factor


@functools.lru_cache(maxsize=128)
def _monomial_block(rows, targets: tuple[int, ...], width: int):
    """:func:`_gather_tables` over a whole block of ``width`` bits, read-only."""
    positions = np.arange(1 << width, dtype=np.min_scalar_type((1 << width) - 1))
    tables = _gather_tables(rows, targets, positions)
    for table in tables:
        if table is not None:
            table.flags.writeable = False
    return tables


def _block_span(n_qubits: int, targets, columns: int = 1) -> tuple[int, int]:
    """Lowest bit and width of the index block a monomial operator on ``targets`` is gathered over.

    The block spans the index bits from the lowest target to the highest, or
    from bit 0 when the run of ``columns << lowest target`` entries below
    them is short.
    """
    low, high = min(targets), max(targets)
    if columns << low < FOLD_BELOW and high < MONOMIAL_BLOCK_BITS:
        low, high = 0, min(n_qubits - 1, max(FOLD_BITS - 1, high))
    return low, high - low + 1


def _permutation_rows(op: np.ndarray):
    """The monomial rows of ``op`` if it is a pure permutation (every coefficient 1), else None."""
    rows = _structure(np.asarray(op, dtype=np.complex128).tobytes())[1]
    if rows is None or any(coef != 1.0 for _, coef in rows):
        return None
    return rows


@functools.lru_cache(maxsize=64)
def _permutation_product(factors: tuple, targets: tuple[int, ...]) -> np.ndarray:
    """The permutation matrix on ``targets`` of ``(rows, factor targets)`` applied in order.

    Each factor's targets are among ``targets``, whose first is the most
    significant bit of the result's local index.  Keyed by the factors'
    contents, so a changed step is never served a stale product.
    """
    place = {t: len(targets) - 1 - j for j, t in enumerate(targets)}
    local = np.arange(1 << len(targets))
    index = local
    for rows, factor_targets in factors:
        # the run then the factor: v -> v[index][f] = v[index[f]]
        f = _gather_tables(rows, tuple(place[t] for t in factor_targets), local)[0]
        if f is not None:
            index = index[f]
    op = np.zeros((local.size, local.size), dtype=np.complex128)
    op[local, index] = 1.0
    op.flags.writeable = False
    return op


def _apply_monomial(amps: np.ndarray, rows, targets: tuple[int, ...],
                    out: np.ndarray | None = None) -> np.ndarray:
    """A monomial operator as one gather and one scale over a block of index bits.

    The array is viewed as ``(A, B, C)``: ``B`` is the :func:`_block_span`
    and ``C`` the rest below, columns included.  The factors are float64,
    which multiply a complex array as complex factors with zero imaginary
    parts do.  Shares take ranges of ``A``, or of ``B`` through slices of the
    tables when ``A`` is 1.
    """
    n = amps.shape[0].bit_length() - 1
    run = amps.size >> n
    low, width = _block_span(n, targets, run)
    view = amps.reshape(-1, 1 << width, run << low)
    targets = tuple(t - low for t in targets)
    if width > MONOMIAL_BLOCK_BITS:
        return _apply_monomial_chunks(view.reshape(-1, run << low), rows, targets,
                                      _into(out, (-1, run << low))).reshape(amps.shape)
    index, factor = _monomial_block(rows, targets, width)
    result = np.empty(view.shape, dtype=view.dtype) if out is None else _into(out, view.shape)
    on_b = view.shape[0] == 1

    def share(lo, hi):
        part = (slice(None), slice(lo, hi)) if on_b else slice(lo, hi)
        shared = slice(lo, hi) if on_b else slice(None)
        into = result[part]
        if index is None:  # np.positive copies the identity bit for bit
            if factor is None:
                np.positive(view[part], out=into)
            else:
                np.multiply(view[part], factor[shared, None], out=into)
            return
        np.take(view if on_b else view[part], index[shared], axis=1, mode="clip", out=into)
        if factor is not None:
            into *= factor[shared, None]

    shares.in_shares(view.shape[1] if on_b else view.shape[0], amps.size, share)
    return result.reshape(amps.shape)


def _apply_monomial_chunks(view: np.ndarray, rows, targets: tuple[int, ...],
                           out: np.ndarray | None = None) -> np.ndarray:
    """:func:`_apply_monomial` on a ``(A * B, C)`` view whose block is too wide for one table.

    A chunk of ``2**MONOMIAL_BLOCK_BITS`` rows fixes the target bits above
    it.  The chunks go in groups, one per value of those bits, in order of
    it.  The tables for one value, built here over uint16 positions, serve
    its chunks and are dropped before the next are built: at most one set is
    alive, and none outlives the call.  Shares take ranges of a group's
    chunks.
    """
    size = 1 << MONOMIAL_BLOCK_BITS
    high = sum(1 << t for t in targets if t >= MONOMIAL_BLOCK_BITS)
    positions = np.arange(size, dtype=np.min_scalar_type(size - 1))
    if out is None:
        out = np.empty(view.shape, dtype=view.dtype)
    starts = sorted(range(0, view.shape[0], size), key=lambda s: s & high)
    for fixed, group in itertools.groupby(starts, key=lambda s: s & high):
        group = list(group)
        index = factor = None  # freed before the next tables are built
        local = _local_index(targets, positions) | _local_index(targets, fixed)
        index, factor = _gather_tables(rows, targets, positions, local)
        shares.in_shares(len(group), len(group) * size * view.shape[1], functools.partial(
            _gather_chunks, view, out, group, high, index, factor))
    return out


def _gather_chunks(view: np.ndarray, out: np.ndarray, starts: list[int], high: int,
                   index, factor, lo: int, hi: int) -> None:
    """The chunks of :func:`_apply_monomial_chunks` at ``starts[lo:hi]``, of one group."""
    size = 1 << MONOMIAL_BLOCK_BITS
    for start in starts[lo:hi]:
        part = slice(start, start + size)
        source = view[part]
        if index is not None:
            # from the first row of the chunk's other high bits on
            source = np.take(view[start & ~high:], index, axis=0, mode="clip", out=out[part])
        if factor is not None:
            np.multiply(source, factor[:, None], out=out[part])
        elif index is None:
            out[part] = source


@functools.lru_cache(maxsize=1024)
def _low_block(key: bytes, targets: tuple[int, ...]) -> np.ndarray:
    """The real operator in ``key`` embedded on ``targets`` of a ``LOW_BLOCK_BITS``-qubit block.

    float64, which multiplies a complex state as its complex128 twin does.
    """
    k = len(targets)
    op = np.frombuffer(key, dtype=np.complex128).reshape(1 << k, 1 << k)
    block = _apply_transposed(np.eye(1 << LOW_BLOCK_BITS, dtype=np.complex128), op, targets)
    block = np.ascontiguousarray(block.real)
    block.flags.writeable = False
    return block


def _apply_low_block(amps: np.ndarray, key: bytes, targets: tuple[int, ...],
                     out: np.ndarray | None = None) -> np.ndarray:
    """A real dense operator on low targets of a state, as one GEMM over contiguous index blocks.

    Shares take ranges of the blocks.
    """
    block = _low_block(key, targets).T
    rows = amps.reshape(-1, block.shape[0])
    into = np.empty(rows.shape, dtype=amps.dtype) if out is None else _into(out, rows.shape)
    shares.in_shares(rows.shape[0], amps.size,
                     lambda lo, hi: np.matmul(rows[lo:hi], block, out=into[lo:hi]))
    return into.reshape(-1)


def apply_embedded(state: StateVector, op, targets: Sequence[int],
                   out: np.ndarray | None = None) -> StateVector:
    """Apply a k-qubit operator to the chosen targets of a wider register.

    The result is returned unnormalized so that its squared norm is the
    probability weight of the branch the operator represents.  Runs in
    O(2**n * 2**k) time without forming the embedded full-register matrix.
    Non-finite operator entries are rejected; the state's amplitudes are
    finite already, so the result is finite short of a floating-point
    overflow, which :func:`normalize` reports.

    The result is float64 when the state is and ``op`` is real, else
    complex128.  ``out``, as in numpy, is a writeable, C-contiguous
    ``(2**n,)`` array of the result's dtype, else ``ShapeError`` is raised;
    for a real diagonal ``op`` it may be ``state.amplitudes`` itself.
    """
    n = state.n_qubits
    op, targets = _check_operator(n, op, targets)
    amps = state.amplitudes
    if out is not None:
        _check_out(out, amps.size, np.complex128 if op.imag.any() else amps.dtype)
    return StateVector._trusted(n, _apply(amps, op, targets, out))


# On a register of at least COPY_FREE_MIN_SIZE amplitudes, a run of
# consecutive steps that are pure permutations (X, CNOT, CKX) is applied as
# one permutation of the union of their targets: one kernel gather instead of
# one per step, with the same values, since a permutation only moves them.  A
# run ends before its union's gather block would outgrow one cached table
# (MONOMIAL_BLOCK_BITS) or the union would exceed PERMUTATION_RUN_TARGETS
# qubits, which keeps the composed operator at most 64 x 64.
PERMUTATION_RUN_TARGETS = 6


def kernel_passes(n_qubits: int, steps: Iterable[tuple]) -> Iterator[tuple]:
    """The kernel passes that apply ``steps``, each ``(op, targets)``, in order.

    Yields ``(start, stop, op, targets)``: steps ``start`` to ``stop - 1``
    are applied as ``op`` on ``targets``, one step's own operator or a
    permutation run's product.  A step whose ``op`` is ``None``, such as a
    measurement, comes alone as ``(i, i + 1, None, targets)`` and ends any
    run.  ``steps`` is read one step ahead of the passes yielded.
    """
    compose = 1 << n_qubits >= COPY_FREE_MIN_SIZE
    run: list = []  # the open run's (rows, targets), from step ``start`` on
    for i, (op, targets) in enumerate(steps):
        rows = _permutation_rows(op) if compose and op is not None else None
        if rows is not None and run:
            joined = union + tuple(t for t in targets if t not in union)
            if (len(joined) <= PERMUTATION_RUN_TARGETS
                    and _block_span(n_qubits, joined)[1] <= MONOMIAL_BLOCK_BITS):
                run.append((rows, targets))
                union = joined
                continue
        if run:
            yield _run_pass(start, first, run, union)
            run = []
        if rows is not None:
            start, first, run, union = i, op, [(rows, targets)], targets
        else:
            yield i, i + 1, op, targets
    if run:
        yield _run_pass(start, first, run, union)


def _run_pass(start: int, first, run: list, union: tuple[int, ...]) -> tuple:
    """The pass of a run from step ``start``: ``first``, its first step's operator, if alone."""
    op = first if len(run) == 1 else _permutation_product(tuple(run), union)
    return start, start + len(run), op, union


class Buffers:
    """The ``out=`` arrays of one run, which made every state but the ``foreign`` ones.

    A step writes over its input when the run made it and gives it up and
    the operator is a real diagonal; else into the spare, the array of the
    last state the run gave up.  A spare not written into before the next
    one comes is freed, so a run holds at most one idle array.  Arrays below
    ``COPY_FREE_MIN_SIZE`` entries are not recycled, which would cost more.
    An array is handed only to a result of its dtype: a float64 spare is
    freed at the step that promotes the state to complex128.
    """

    def __init__(self, *foreign: StateVector):
        self.foreign = {id(state.amplitudes): state for state in foreign}
        self.spare = None

    def out(self, state: StateVector, op=None) -> np.ndarray | None:
        """``out=`` for ``op`` (None: normalizing) on ``state``, which the run gives up."""
        out, self.spare = self.spare, None
        amps = state.amplitudes
        if amps.size >= COPY_FREE_MIN_SIZE and id(amps) not in self.foreign:
            amps.flags.writeable = True  # read-only only as the state's
            self.spare = amps
        if out is None and self.spare is None:
            return None
        real, rows = (True, ()) if op is None else _structure(op.tobytes())
        # normalizing (no op, no rows) and a real diagonal write over the input itself
        if (self.spare is not None and rows is not None
                and all(col == row for row, (col, _) in enumerate(rows))):
            out, self.spare = self.spare, out
        if out is not None and out.dtype != (amps.dtype if real else np.complex128):
            return None
        return out


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


class Gathers(dict):
    """Real monomial operators on one register as full-register gathers.

    ``gathers[gate, targets]`` is ``(index, coef)`` when ``gate.matrix`` is
    real and monomial (a diagonal or scaled permutation), and ``None``
    otherwise: on ``targets`` it maps a column ``v`` to ``coef * v[index]``,
    where ``index`` is ``None`` for a diagonal and ``coef``, float64, is
    ``None`` for a permutation.  Each is built on first use per gate object and targets.
    """

    def __init__(self, n_qubits: int):
        super().__init__()
        self.n_qubits = n_qubits
        self._everywhere = np.arange(1 << n_qubits)
        # per targets, the local basis index of every register index
        self._local: dict[tuple[int, ...], np.ndarray] = {}

    def __missing__(self, key):
        gate, targets = key
        op, targets = _check_operator(self.n_qubits, gate.matrix, targets)
        rows = _structure(op.tobytes())[1]
        found = None
        if rows is not None:
            local = self._local.get(targets)
            if local is None:
                local = self._local[targets] = _local_index(targets, self._everywhere)
            found = _gather_tables(rows, targets, self._everywhere, local)
        self[key] = found
        return found


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


def live_amplitudes(state: StateVector, threshold: float = DUMP_THRESHOLD):
    """``(index, re, im)`` of each amplitude with magnitude above ``threshold``, by index.

    Yields them in lists of at most ``DUMP_CHUNK``.  A real state's ``im`` is 0.0.
    """
    amps = state.amplitudes
    for live in _live_chunks(amps, threshold):
        values = amps[live].astype(np.complex128, copy=False)
        yield list(zip(live.tolist(), values.real.tolist(), values.imag.tolist()))


def dump_state(state: StateVector, threshold: float = DUMP_THRESHOLD, *, out: TextIO) -> None:
    """Write a text dump to ``out``, one ``binary_index re im`` line per non-negligible amplitude.

    Floats print as ``repr`` does; a real state's ``im`` as 0.0.  The lines
    are written as they are formatted, ``DUMP_CHUNK`` amplitudes at a time,
    so the text, 3.8 state sizes for full-precision amplitudes, is never held.
    """
    amps = state.amplitudes
    for live in _live_chunks(amps, threshold):
        out.write(_dump_lines(amps, live, state.n_qubits))


def _live_chunks(amps: np.ndarray, threshold: float):
    """Ascending indices of the amplitudes above ``threshold``, ``DUMP_CHUNK`` at most at a time."""
    for start in range(0, amps.size, DUMP_SCAN):
        live = np.flatnonzero(np.abs(amps[start:start + DUMP_SCAN]) > threshold) + start
        for first in range(0, live.size, DUMP_CHUNK):
            yield live[first:first + DUMP_CHUNK]


# the 8 binary digits of each byte value, in ASCII, as one 8-byte word
_BYTE_DIGITS = (np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
                + ord("0")).view(np.uint64).reshape(-1)


def _dump_lines(amps: np.ndarray, live: np.ndarray, n_qubits: int) -> str:
    """The :func:`dump_state` lines of the amplitudes at the basis indices ``live``.

    Each distinct float is formatted once, keyed by its bit pattern, which
    keeps ``-0.0`` apart from ``0.0``, and on a complex state each distinct
    ``re im`` pair once; the lines are assembled as bytes.
    """
    # the digits of the index's big-endian bytes, one word per byte, the last n_qubits of them
    width = (n_qubits + 7) // 8
    index_bytes = live.astype(">u4").view(np.uint8).reshape(-1, 4)[:, 4 - width:]
    digits = np.take(_BYTE_DIGITS, index_bytes).view(np.uint8)[:, 8 * width - n_qubits:]
    values = amps[live]
    floats, tail_of = np.unique(values.view(np.uint64), return_inverse=True)
    texts = [repr(x) for x in floats.view(np.float64).tolist()]
    if values.dtype == np.float64:
        tails = [f" {text} 0.0\n" for text in texts]
    else:
        pairs, tail_of = np.unique(tail_of[0::2] * floats.size + tail_of[1::2],
                                   return_inverse=True)
        tails = [f" {texts[p // floats.size]} {texts[p % floats.size]}\n"
                 for p in pairs.tolist()]
    table = np.array(tails, dtype=bytes)
    lines = np.concatenate([digits, np.take(table.view(np.uint8).reshape(table.size, -1),
                                            tail_of, axis=0)], axis=1).tobytes()
    if len(set(map(len, tails))) > 1:
        # a tail shorter than the longest is padded with NUL bytes, which no line contains
        lines = lines.replace(b"\0", b"")
    return lines.decode("ascii")


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
    check_memory(n_qubits)
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    for bits, amp in entries:
        amps[int(bits, 2)] += amp
    return StateVector(n_qubits, amps, copy=False)
