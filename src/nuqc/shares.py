"""Row shares of a wide kernel pass, one per usable core.

``qstate`` hands each state-sized pass it splits to :func:`in_shares` as a
function of a row range.  The calling thread runs the first share and
long-lived daemon worker threads, started at the first split pass, run the
others.  The shares write disjoint slices of one result and only call numpy,
which releases the GIL, so they run in parallel, and each computes its rows
as the whole pass would.  Kept apart from ``qstate``: an import that
compiles the package (as under ``PYTHONDONTWRITEBYTECODE``) peaks at its
largest module's compile.  With the shares, ``import nuqc.cli`` peaked
0.47 MiB higher in RSS when this code sat in ``qstate`` and 0.25 MiB higher
apart.
"""

from __future__ import annotations

import functools
import os
import threading


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# A pass runs in at most one share per usable core, none of fewer than
# SHARE_MIN_ENTRIES of the array's entries.  On two cores of an x86-64 VM
# (one BLAS thread, best of 15, two runs), two shares of a pass over a
# 20-qubit float64 state (H, AL, CNOT, CN1, N1 and normalize) took 0.35 to
# 0.98 of one thread's time, most near 0.55.  On 19 qubits the ratio ranged
# from 0.44 to 1.16, and in demo-al's 19-qubit run the unsplit pair-path
# passes after each split pass slowed by 4-15% and the run gained nothing.
# Handing a share to a worker costs about 19 us.
CORES = _usable_cores()
SHARE_MIN_ENTRIES = 1 << 19


class _Worker:
    """A daemon thread that runs one share at a time, handed over through two locks."""

    def __init__(self):
        self.share = self.error = None
        self.go, self.done = threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        threading.Thread(target=self._serve, name="nuqc-share", daemon=True).start()

    def _serve(self) -> None:
        while True:
            self.go.acquire()
            try:
                self.share()
            except BaseException as exc:  # raised again in the caller by in_shares
                self.error = exc
            self.share = None
            self.done.release()


# the workers started so far, which only the thread holding _pool hands shares to
_workers: list[_Worker] = []
_pool = threading.Lock()


def _forget_workers() -> None:
    """A forked child has none of its parent's threads."""
    global _pool
    _workers.clear()
    _pool = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def in_shares(length: int, entries: int, share) -> None:
    """``share(start, stop)`` over contiguous ranges that cover ``range(length)``.

    A pass over ``entries`` array entries gets ``entries //
    SHARE_MIN_ENTRIES`` shares, at least 1 and at most ``CORES`` or
    ``length``.  The calling thread runs the first share; a worker runs each
    other one, and the call returns when all are done.  Shares must write
    disjoint parts of the result and only call numpy on ready arrays.  An
    exception of any share is raised here.  A call made while another
    thread's pass holds the workers runs as one share.
    """
    count = max(1, min(CORES, length, entries // SHARE_MIN_ENTRIES))
    if count == 1 or not _pool.acquire(blocking=False):
        share(0, length)
        return
    try:
        while len(_workers) < count - 1:
            _workers.append(_Worker())
        handed = _workers[:count - 1]
        bounds = [length * i // count for i in range(count + 1)]
        for worker, start, stop in zip(handed, bounds[1:], bounds[2:]):
            worker.share = functools.partial(share, start, stop)
            worker.go.release()
        try:
            share(0, bounds[1])
        finally:
            _join(handed)
        errors = [worker.error for worker in handed if worker.error is not None]
        for worker in handed:
            worker.error = None
        if errors:
            raise errors[0]
    finally:
        _pool.release()


def _join(workers: list[_Worker]) -> None:
    """Wait until every worker's share is done, also past an exception a signal handler raises."""
    pending = None
    for worker in workers:
        while True:
            try:
                worker.done.acquire()
                break
            except BaseException as exc:  # raised again once no share runs
                pending = exc
    if pending is not None:
        raise pending
