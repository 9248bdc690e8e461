"""Kernel passes split into row shares: the same bits for any share count.

``shares.in_shares`` runs a wide kernel pass as contiguous shares, the
calling thread's and one per worker thread.  These tests patch
``shares.CORES`` and ``shares.SHARE_MIN_ENTRIES`` so that small arrays are
split too, and hold every split path to its one-share bits, signed zeros
included.
"""

import sys
import threading

import numpy as np
import pytest

from nuqc import circuit, gates, measure, qstate, shares
from nuqc.qstate import StateVector, normalize

N = 12  # qubits of the arrays below
SIZE = 1 << N
# floors around the array's size: 4, 3 (uneven bounds), 2 and 1 shares, at
# the floor, and just below it
FLOORS = (SIZE // 4, SIZE // 4 + 1, SIZE // 2, SIZE, SIZE + 1)
# the share owners, by the function that hands its pass to in_shares
SPLIT_PATHS = {"_apply_monomial", "_gather_chunks", "_apply_low_block",
               "_apply_adjacent_real", "normalize"}


def _owner(share):
    """The kernel function whose pass ``share`` is a part of."""
    return getattr(share, "func", share).__qualname__.split(".")[0]


def _spy_shares(monkeypatch):
    """A list of ``(owner, length, ranges)`` per ``in_shares`` call from now on."""
    calls = []
    in_shares = shares.in_shares

    def spy(length, entries, share):
        ranges = []
        calls.append((_owner(share), length, ranges))
        in_shares(length, entries,
                  lambda lo, hi: ranges.append((lo, hi)) or share(lo, hi))

    monkeypatch.setattr(shares, "in_shares", spy)
    return calls


def _cases():
    """Real operators and targets on an N-qubit array that reach every split path.

    With ``MONOMIAL_BLOCK_BITS`` at 6, a monomial operator whose block
    spans more than 6 bits is chunked.
    """
    cn1 = measure.build_pair(gates.cn1(0.6), 0.9).m0
    swap = np.array([[0.0, -0.5], [2.0, 0.0]])
    al = gates.abrams_lloyd().matrix
    return [
        (gates.cnot().matrix, (3, 5)),  # monomial on A
        (cn1, (2, 5)),  # diagonal on A
        (swap, (N - 1,)),  # scaled permutation on B (A is 1)
        (np.diag([1.0, 0.5]), (N - 1,)),  # diagonal on B
        (gates.x().matrix, (N - 1,)),  # permutation on B
        (gates.cnot().matrix, (N - 1, 0)),  # chunked gather
        (cn1, (N - 1, 1)),  # chunked diagonal
        (gates.ckx(2).matrix, (2, 9, N - 1)),  # chunked gather and scale
        (gates.h().matrix, (2,)),  # low block
        (al, (3, 0)),  # low block
        (gates.h().matrix, (5,)),  # adjacent GEMM over stacks
        (al, (7, 6)),  # adjacent GEMM over stacks
        (gates.h().matrix, (N - 1,)),  # adjacent GEMM over columns (one stack)
        (al, (N - 1, N - 2)),  # adjacent GEMM over columns
    ]


def _amplitudes(rng, dtype):
    """Random values with signed zeros and subnormals among them."""
    parts = np.array([0.0, -0.0, 1.0, -1.0, 5e-320, -5e-320])

    def draw():
        values = rng.normal(size=SIZE)
        special = rng.random(SIZE) < 0.3
        values[special] = rng.choice(parts, size=special.sum())
        return values

    return draw() if dtype == np.float64 else draw() + 1j * draw()


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _passes(amps):
    """Every split pass on ``amps``: ``(label, run)``, ``run(out)`` giving the result array."""
    passes = []
    for op, targets in _cases():
        op = np.asarray(op, dtype=np.complex128)
        passes.append((f"{targets}", lambda out, op=op, targets=targets:
                       qstate._apply(amps, op, targets, out)))
    state = StateVector._trusted(N, amps.copy())
    for norm in (0.3, 1.0, 2.0, 7.3):  # a complex state is divided from norm 2 on
        passes.append((f"normalize {norm}", lambda out, norm=norm:
                       normalize(state, norm * norm, out=out).amplitudes))
    return passes


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("cores", [1, 2, 3, 4])
def test_every_split_path_gives_the_one_share_bits(cores, dtype, monkeypatch):
    monkeypatch.setattr(qstate, "MONOMIAL_BLOCK_BITS", 6)
    amps = _amplitudes(np.random.default_rng(280 + cores), dtype)
    monkeypatch.setattr(shares, "CORES", 1)
    want = [run(None).copy() for _, run in _passes(amps)]
    monkeypatch.setattr(shares, "CORES", cores)
    calls = _spy_shares(monkeypatch)
    for floor in FLOORS:
        monkeypatch.setattr(shares, "SHARE_MIN_ENTRIES", floor)
        for (label, run), expected in zip(_passes(amps), want):
            where = f"{label}, {cores} cores, floor {floor}"
            assert _same_bits(run(None), expected), where
            out = np.full(SIZE, np.nan, dtype=expected.dtype)  # a skipped row stays NaN
            assert np.shares_memory(run(out), out), where
            assert _same_bits(out, expected), where
    # every call's shares cover its range once, in order
    for owner, length, ranges in calls:
        ranges.sort()
        assert ranges[0][0] == 0 and ranges[-1][1] == length, owner
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:])), owner
    split = {owner for owner, _, ranges in calls if len(ranges) > 1}
    assert split == (SPLIT_PATHS if cores > 1 else set())
    if cores > 2:  # the floor just above a quarter leaves three uneven shares
        assert any(len(ranges) == 3 for _, _, ranges in calls)
    workers = [t for t in threading.enumerate() if t.name == "nuqc-share"]
    assert len(shares._workers) == len(workers) <= 3


def test_an_array_below_the_floor_runs_on_the_calling_thread_alone(monkeypatch):
    monkeypatch.setattr(shares, "CORES", 4)
    monkeypatch.setattr(shares, "SHARE_MIN_ENTRIES", SIZE + 1)
    threads = set()
    shares.in_shares(SIZE, SIZE, lambda lo, hi: threads.add((threading.get_ident(), lo, hi)))
    assert threads == {(threading.get_ident(), 0, SIZE)}
    monkeypatch.setattr(shares, "SHARE_MIN_ENTRIES", SIZE // 4)
    threads.clear()
    shares.in_shares(SIZE, SIZE, lambda lo, hi: threads.add((threading.get_ident(), lo, hi)))
    assert len({ident for ident, _, _ in threads}) == 4
    assert sorted((lo, hi) for _, lo, hi in threads) == [
        (i * SIZE // 4, (i + 1) * SIZE // 4) for i in range(4)]


def test_the_share_count_follows_the_usable_cores_and_the_floor(monkeypatch):
    monkeypatch.setattr(shares.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert shares._usable_cores() == 3
    monkeypatch.delattr(shares.os, "sched_getaffinity")
    monkeypatch.setattr(shares.os, "cpu_count", lambda: None)
    assert shares._usable_cores() == 1
    # on two cores a 20-qubit pass is split in two, a 19-qubit one is not
    monkeypatch.setattr(shares, "CORES", 2)
    for n, count in ((19, 1), (20, 2)):
        ranges = []
        shares.in_shares(1 << n, 1 << n, lambda lo, hi: ranges.append((lo, hi)))
        assert len(ranges) == count


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_a_share_error_reaches_the_caller_and_the_next_pass_runs(failing, monkeypatch):
    monkeypatch.setattr(shares, "CORES", 3)
    monkeypatch.setattr(shares, "SHARE_MIN_ENTRIES", 1)
    done = []

    def share(lo, hi):
        if lo == failing:
            raise ValueError(f"share from {lo}")
        done.append(lo)

    with pytest.raises(ValueError, match=f"share from {failing}$"):
        shares.in_shares(3, 3, share)
    # the other shares ran to their end before the error was raised
    assert sorted(done) == sorted({0, 1, 2} - {failing})
    done.clear()
    shares.in_shares(3, 3, lambda lo, hi: done.append((lo, hi)))
    assert sorted(done) == [(0, 1), (1, 2), (2, 3)]
    # and a kernel pass across the same workers gives the one-share bits
    amps = _amplitudes(np.random.default_rng(28), np.float64)
    op = np.asarray(gates.h().matrix, dtype=np.complex128)
    split = qstate._apply(amps, op, (2,))
    monkeypatch.setattr(shares, "CORES", 1)
    assert _same_bits(split, qstate._apply(amps, op, (2,)))


def test_a_pass_while_another_thread_holds_the_workers_runs_as_one_share(monkeypatch):
    monkeypatch.setattr(shares, "CORES", 2)
    monkeypatch.setattr(shares, "SHARE_MIN_ENTRIES", 1)
    inner = []
    outer = []

    def share(lo, hi):
        if lo == 0:  # the calling thread, while a worker may run the other share
            shares.in_shares(4, 4, lambda a, b: inner.append((threading.get_ident(), a, b)))
        outer.append((lo, hi))

    shares.in_shares(2, 2, share)
    assert sorted(outer) == [(0, 1), (1, 2)]
    assert inner == [(threading.get_ident(), 0, 4)]


def test_passes_from_several_threads_in_more_shares_than_cores(monkeypatch):
    monkeypatch.setattr(shares, "CORES", 4)
    monkeypatch.setattr(shares, "SHARE_MIN_ENTRIES", SIZE // 4)
    monkeypatch.setattr(qstate, "MONOMIAL_BLOCK_BITS", 6)
    amps = _amplitudes(np.random.default_rng(281), np.complex128)
    passes = _passes(amps)
    with monkeypatch.context() as one:
        one.setattr(shares, "CORES", 1)
        want = [run(None).copy() for _, run in passes]
    wrong = []

    def caller():
        try:
            for _ in range(5):
                for (label, run), expected in zip(passes, want):
                    if not _same_bits(run(None), expected):
                        wrong.append(label)
        except Exception as exc:  # reported below, in the test's thread
            wrong.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(3)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert wrong == []


def _traced_peak(run):
    """``run()`` once untraced, then again under tracemalloc: its result and peak in bytes."""
    import tracemalloc

    run()
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _wide_program(n):
    """A real n-qubit program whose steps reach every split path, measured steps among them."""
    return circuit.parse(
        f"qubits {n}\ninit uniform\ngate H 0\ngate H 5\ngate H {n - 1}\ngate CNOT 3 5\n"
        f"gate N1(0.7) {n - 1} c=0.9 q=opt k=2\ngate CN1(0.6) 2 6 c=0.9 q=opt k=2\n"
        f"gate CNOT {n - 1} 0\ngate AL {n - 1} {n - 2}\ngate CN1(0.7) {n - 1} 1 c=0.9 q=opt k=2\n")


# numpy's scratch for one ufunc call that broadcasts: a buffer of 8,192
# complex entries per operand it buffers, here two.  Each share's multiply
# allocates its own, so a worker can add this much to a pass, whatever the
# register's size.
WORKER_SCRATCH = 2 * 8192 * 16


@pytest.mark.parametrize("n", [18, 19, 20])
def test_two_workers_add_nothing_state_sized(n, monkeypatch):
    monkeypatch.setattr(shares, "SHARE_MIN_ENTRIES", qstate.COPY_FREE_MIN_SIZE)
    calls = _spy_shares(monkeypatch)
    program = _wide_program(n)
    twin = circuit.CircuitProgram(n, program.steps, StateVector(n, program.initial_state.amplitudes))
    for run, bound in ((program, 3.2), (twin, 3.1)):  # LIVE_STATES' peaks
        start = run.initial_state.amplitudes
        peaks = []
        for cores in (1, 3):
            monkeypatch.setattr(shares, "CORES", cores)
            record, peak = _traced_peak(lambda: circuit.run_branch(run))
            assert record.outcome == "success"
            assert record.final_state.amplitudes.dtype == start.dtype
            # the initial state is alive throughout but allocated before tracing
            peaks.append(peak + start.nbytes)
        one, two_workers = peaks
        assert one <= bound * start.nbytes, (start.dtype, one / start.nbytes)
        assert two_workers <= one + 2 * WORKER_SCRATCH, (start.dtype, peaks)
    split = {owner for owner, _, ranges in calls if len(ranges) == 3}
    assert split == SPLIT_PATHS
