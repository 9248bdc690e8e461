"""nuqc benchmark: end-to-end CLI timings and a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mc-small --seed 1 --seconds 20 --trace 0

Each CLI call goes through ``nuqc.cli.main(argv)`` in this process with
stdout captured to memory, so argument parsing, file parsing and output
formatting are paid as a user pays them.  Inputs are generated from
``--seed`` into a work directory under ``bench/`` before timing starts.

``--trace 0`` repeats the workload's list of calls (one pass), timing each
call against a reference unit sampled inside it, until ``--seconds`` have
been measured (and at least three passes have run), checks every call's
output after each pass, and reports medians over passes.  ``--trace 1``
times one pass untraced and one pass traced, and reports per-layer metrics
of the traced pass together with the tracing overhead; the spans go to
``bench/out/``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``src/nuqc`` next to ``bench/`` the
benchmark exits 1 without printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict

# BLAS runs on one thread.  On a 2-vCPU host two-thread OpenBLAS made a fixed
# 256x256 product vary threefold from call to call; one thread measures the
# program's own efficiency steadily.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

sys.path.insert(0, BENCH_DIR)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("mc-small", "wide-sim", "synth-verify")
SETUP_REPEATS = 7
# Times ``import nuqc.cli`` in a fresh interpreter, and a pure-Python unit of
# work (the fastest of five) just before and just after it, so that the import
# can be scaled to a fixed host speed; prints both.
IMPORT_PROBE = """
import sys, time
def unit():
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i
    return time.perf_counter() - start
before = min(unit() for _ in range(5))
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import nuqc.cli
seconds = time.perf_counter() - start
after = min(unit() for _ in range(5))
print(seconds, (before + after) / 2)
"""
# the probe's unit time on the 2-vCPU VM the benchmark was sized on, when
# that host runs at its faster speed; imports are reported at this speed
PROBE_UNIT_S = 0.0035


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def load_nuqc():
    """Import nuqc from this checkout's ``src`` tree and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "nuqc", "cli.py")):
        raise BenchError(f"no nuqc sources under {SRC}")
    sys.path.insert(0, SRC)
    import nuqc
    import nuqc.cli

    if not os.path.abspath(nuqc.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported nuqc from {nuqc.__file__}, not from {SRC}")
    return nuqc


def pool_jobs() -> int:
    """``--jobs`` for the pool ensemble: the usable cores, at most two."""
    return min(2, len(os.sched_getaffinity(0)))


def make_workload(name: str, seed: int, workdir: str, sizes: workloads.Sizes, nuqc):
    if name == "mc-small":
        return workloads.McSmall(seed, workdir, sizes, pool_jobs())
    if name == "wide-sim":
        return workloads.WideSim(seed, workdir, sizes)
    return workloads.SynthVerify(seed, workdir, sizes, nuqc.synth.read_netlist)


def import_seconds() -> float:
    """Time to import ``nuqc.cli`` in a fresh interpreter, at the probe unit's fixed speed."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                          text=True, timeout=120, check=True)
    seconds, unit = (float(field) for field in done.stdout.split())
    return seconds * PROBE_UNIT_S / unit


class SetupTimes:
    """Import and input-generation times of the workload's set-up.

    ``setup_s`` is the median import plus the fastest generation.  The import
    dominates and, like every timing here, follows the host's speed, which
    changes by up to 1.5x in spells of a second to minutes.  So each import is
    scaled by a unit of work timed around it in the same interpreter (see
    ``IMPORT_PROBE``), and besides the probes at the start one more runs after
    the warm-up and after every pass.
    """

    def __init__(self):
        self.imports: list[float] = []
        self.generations: list[float] = []

    def probe_import(self) -> None:
        self.imports.append(import_seconds())

    def seconds(self) -> float:
        return statistics.median(self.imports) + min(self.generations)


def set_up(name: str, seed: int, workdir: str, sizes: workloads.Sizes, nuqc, times: SetupTimes):
    """Build the workload ``SETUP_REPEATS`` times, timing each; return the last one."""
    for i in range(SETUP_REPEATS):
        times.probe_import()
        subdir = os.path.join(workdir, f"setup{i}")
        os.mkdir(subdir)
        start = time.perf_counter()
        workload = make_workload(name, seed, subdir, sizes, nuqc)
        times.generations.append(time.perf_counter() - start)
    return workload


def run_pass(cli, calls: list[workloads.Call]) -> list[workloads.Result]:
    """Run each call through ``cli.main`` with stdout and stderr captured."""
    results = []
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(call.argv))
            except Exception:  # an uncaught error is a failed call, not a crash
                traceback.print_exc()
                code = -1
        seconds = time.perf_counter() - start
        results.append(workloads.Result(code, out.getvalue(), err.getvalue(), seconds))
    return results


class Tally:
    """CLI calls attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.reasons: list[str] = []

    def add(self, calls, verdicts) -> None:
        self.attempted += len(calls)
        for call, verdict in zip(calls, verdicts):
            if verdict is not None:
                self.reasons.append(f"{call.group} {call.argv[0]}: {verdict}")


class InCall:
    """Reference units timed inside one call, and the time spent timing them."""

    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0


class Reference:
    """A small fixed piece of interpreter and small-numpy work: the unit of ``pass_ref``.

    Host speed on a shared machine changes by up to 1.5x, in spells that last
    from a second to minutes, and each vCPU has its own spells.  A call's
    time is divided by the unit's time measured on the same core at the same
    time, which cancels most of that drift.  Inside a call, a profiling timer
    interrupts the program after every ``SAMPLE_PERIOD`` of its CPU time and
    times one unit (see :meth:`sampling`); between calls the unit repeats for
    ``REFERENCE_SECONDS`` (see :meth:`seconds`).  The unit's data is a few
    hundred bytes, so it barely disturbs the program's caches.
    """

    def __init__(self):
        self._op = np.ones((4, 4), dtype=np.complex128)
        self._block = np.ones((4, 8), dtype=np.complex128)
        self._in_call = InCall()
        for _ in range(100):  # the first units pay for lazy set-up
            self._unit()

    def _unit(self) -> float:
        """Time one unit, about 60 us on a 2 GHz core."""
        start = time.perf_counter()
        total = 0
        for i in range(1000):
            total += i
        for _ in range(10):
            np.vdot((self._op @ self._block).reshape(-1), self._block)
        return time.perf_counter() - start

    def seconds(self) -> float:
        """Mean time of one unit, repeating units for ``REFERENCE_SECONDS``."""
        start = time.perf_counter()
        units = 0
        while True:
            self._unit()
            units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= REFERENCE_SECONDS:
                return elapsed / units

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._in_call.samples.append(self._unit())
        self._in_call.handler_s += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        """Time a unit after every ``SAMPLE_PERIOD`` of this process's CPU time.

        The timer counts only this process's CPU time, so a call that waits
        for pool workers gets few samples and is measured by the references
        around it instead.
        """
        self._in_call = InCall()
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD, SAMPLE_PERIOD)
        try:
            yield self._in_call
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)


# between calls the reference unit repeats for this long
REFERENCE_SECONDS = 0.05
# inside a call, one unit is timed after every this much of the process's CPU time
SAMPLE_PERIOD = 0.01
# a call with fewer units timed inside it is measured by the references around it
MIN_SAMPLES = 8
# passes in a run, at least, so that a slow pass cannot set a median alone
MIN_PASSES = 3


def in_call_unit(samples: list[float]) -> float:
    """Mean unit time over a call, each sample capped at three times the median.

    Samples are spread evenly over the call's CPU time, so their mean weighs
    each spell of host speed by how long it lasted, which the call's time
    does too; the cap keeps a sample that was preempted from counting as a
    spell.
    """
    cap = 3.0 * statistics.median(samples)
    return statistics.fmean(min(sample, cap) for sample in samples)


def referenced_pass(cli, calls, reference: Reference):
    """Run one pass; also return each call's time in reference units.

    A call is divided by the unit time sampled inside it; a call with
    fewer than ``MIN_SAMPLES`` samples (a short call, or one that waits for
    pool workers) by the mean of the references timed before and after it.
    The time spent in the samples is taken out of the call's time.
    """
    before = reference.seconds()
    results, relative = [], []
    for call in calls:
        with reference.sampling() as inside:
            (result,) = run_pass(cli, [call])
        after = reference.seconds()
        result = result._replace(seconds=result.seconds - inside.handler_s)
        if len(inside.samples) >= MIN_SAMPLES:
            unit = in_call_unit(inside.samples)
        else:
            unit = (before + after) / 2
        results.append(result)
        relative.append(result.seconds / unit)
        before = after
    return results, relative


def copy_gbps(n_qubits: int) -> float:
    """Read+write rate of ``ndarray.copy`` on a state-sized complex array."""
    a = np.ones(1 << n_qubits, dtype=np.complex128)
    reps = max(1, (1 << 22) >> n_qubits)
    samples = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(reps):
            a.copy()
        samples.append((time.perf_counter() - start) / reps)
    return 2 * a.nbytes / statistics.median(samples) / 1e9


def environment(nuqc, workload) -> dict:
    lines = 0
    package = os.path.join(SRC, "nuqc")
    for file_name in sorted(os.listdir(package)):
        if file_name.endswith(".py"):
            with open(os.path.join(package, file_name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "src_nuqc_lines": lines,
        "state_bytes": 16 << workload.state_qubits,
        "pool_jobs": pool_jobs(),
    }


def measure_passes(cli, workload, seconds: float, tally: Tally,
                   setup: SetupTimes) -> tuple[dict, dict]:
    """Gated and printed metrics: repeat passes until ``seconds`` have been measured
    and at least ``MIN_PASSES`` passes have run.

    ``pass_ref`` sums, over the calls of a pass outside
    ``workloads.UNGATED_GROUPS``, each call's median time in reference units
    over all passes: a slow spell that hits one call in one pass then moves
    only that call's median, and not at all unless it hits the same call in
    half the passes.
    """
    run_pass(cli, workload.warmup)
    setup.probe_import()
    reference = Reference()
    peak_rss_mib = None
    measured = 0.0
    pass_s: list[float] = []
    relative: list[list[float]] = [[] for _ in workload.calls]
    group_s: dict[str, list[float]] = defaultdict(list)
    while measured < seconds or len(pass_s) < MIN_PASSES:
        start = time.perf_counter()
        results, call_ref = referenced_pass(cli, workload.calls, reference)
        measured += time.perf_counter() - start
        if peak_rss_mib is None:
            # read before any check runs: the program's memory, the
            # interpreter's and one pass of outputs
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tally.add(workload.calls, workload.check(results))
        pass_s.append(sum(r.seconds for r in results))
        for samples, value in zip(relative, call_ref):
            samples.append(value)
        sums: dict[str, float] = defaultdict(float)
        for call, result in zip(workload.calls, results):
            sums[call.group] += result.seconds
        for group, total in sums.items():
            group_s[group].append(total)
        setup.probe_import()
    medians = {group: statistics.median(v) for group, v in group_s.items()}
    metrics = {
        "pass_ref": (sum(statistics.median(v) for call, v in zip(workload.calls, relative)
                         if call.group not in workloads.UNGATED_GROUPS), "ref"),
        "setup_s": (setup.seconds(), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    named = dict(workload.named_metrics(medians))
    named["pass_s"] = (statistics.median(pass_s), "s")
    named["passes"] = (len(pass_s), "count")
    return metrics, named


def measure_trace(nuqc, workload, seed: int, tally: Tally) -> dict:
    """Per-layer metrics from one traced pass, after one untraced pass."""
    run_pass(nuqc.cli, workload.warmup)
    untraced = run_pass(nuqc.cli, workload.calls)
    tally.add(workload.calls, workload.check(untraced))
    tracer = tracing.Tracer()
    with tracer.patched(nuqc):
        traced = run_pass(nuqc.cli, workload.calls)
    tally.add(workload.calls, workload.check(traced))
    metrics = tracing.layer_metrics(tracer, copy_gbps(workload.state_qubits))
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)
    metrics["trace.untraced_pass_s"] = (untraced_s, "s")
    metrics["trace.traced_pass_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload.name}-{seed}.txt"))
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool,
        sizes: workloads.Sizes = workloads.FULL) -> tuple[list[str], dict]:
    """Run one workload; return the report lines and the result object."""
    nuqc = load_nuqc()
    workdir = tempfile.mkdtemp(prefix="_work-", dir=BENCH_DIR)
    try:
        tally = Tally()
        named = {}
        if trace:
            workload = make_workload(name, seed, workdir, sizes, nuqc)
            metrics = measure_trace(nuqc, workload, seed, tally)
        else:
            setup = SetupTimes()
            workload = set_up(name, seed, workdir, sizes, nuqc, setup)
            metrics, named = measure_passes(nuqc.cli, workload, seconds, tally, setup)
            named["ops_failed_ratio"] = (len(tally.reasons) / tally.attempted, "ratio")
        env = environment(nuqc, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    lines += [f"failed {reason}" for reason in tally.reasons[:20]]
    lines += [f"workload {name} {key} {value!r} {unit}" for key, (value, unit) in named.items()]
    lines += [f"metric {name} {key} {value!r} {unit}" for key, (value, unit) in metrics.items()]
    result = {
        "correct": not tally.reasons,
        "attempted": tally.attempted,
        "failed": len(tally.reasons),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return lines, result


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_non_negative, default=0)
    parser.add_argument("--seconds", type=_positive, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
