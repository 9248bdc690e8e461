"""The benchmark's workloads: seeded inputs, the CLI calls that use them, and
the checks that decide whether each call's output is correct.

Every input is written into a work directory before timing starts; the
program sees only those files and its argv.  Checks never run inside a timed
region.  A check returns ``None`` for a correct call and a one-line reason
otherwise.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark run; ``TOY`` keeps the smoke test fast."""

    mc_trials: int = 2000
    wide_qubits: int = 20
    # leading H gates on distinct qubits; each halves the support of the
    # uniform start state, which fixes how many lines a state dump prints
    wide_hadamards: int = 6
    sampled_seeds: int = 6
    search_n: int = 18
    synth_max_n: int = 6


FULL = Sizes()
TOY = Sizes(mc_trials=200, wide_qubits=8, wide_hadamards=2, sampled_seeds=2,
            search_n=6, synth_max_n=3)


class Call(NamedTuple):
    argv: list[str]
    group: str


# Calls of these groups run, are checked and are timed in every pass, but are
# left out of ``pass_ref``: the reference is timed on the benchmark's own core,
# while the ``--jobs 2`` ensemble runs in pool workers on both cores, whose
# speeds drift apart.  Divided by the reference, that call alone moved by up
# to 44% between minutes of identical runs while the other calls stayed
# within 5%.  Its time is printed as ``mc_pool_trials_per_s``, ungated.
UNGATED_GROUPS = frozenset({"pool"})


class Result(NamedTuple):
    code: int
    out: str
    err: str
    seconds: float


def _failed_exit(result: Result) -> str:
    tail = result.err.strip().splitlines()[-1:] or [""]
    return f"exit code {result.code}: {tail[0][:200]}"


def _fields(text: str) -> dict[str, str]:
    """``name: value`` lines of CLI output, first occurrence of each name."""
    fields: dict[str, str] = {}
    for line in text.splitlines():
        name, sep, value = line.partition(": ")
        if sep and name not in fields:
            fields[name] = value
    return fields


# ---------------------------------------------------------------- mc-small

NAND_REVERSAL_QC = """\
# |11> into a NAND at c=0.6 with one reversal retry; success 0.1968
qubits 2
init basis 3
gate NAND 1 0 c=0.6 q=opt k=1
"""

INTERFERENCE_QC = """\
# (|00> + |01>)/sqrt(2) into a NAND at c=0.6 with two retries; success 0.491904
qubits 2
init basis 0
gate H 0
gate NAND 1 0 c=0.6 q=opt k=2
"""

XOR_NL = """\
# XOR out of four NANDs
inputs 2
a1 a2 = COPY in0
b1 b2 = COPY in1
t = NAND a1 b1
t1 t2 = COPY t
x = NAND a2 t1
y = NAND b2 t2
s = NAND x y
outputs s
"""

# analytic success probabilities documented for the two demo circuits
NAND_REVERSAL_P = 0.1968
INTERFERENCE_P = 0.491904


def check_ensemble(text: str, trials: int, expected: float | None) -> str | None:
    """An mc rate within 4 sigma of the printed analytic probability."""
    fields = _fields(text)
    try:
        printed_trials = int(fields["trials"])
        rate = float(fields["success rate"].split()[0])
        analytic = float(fields["analytic probability"])
    except (KeyError, ValueError, IndexError):
        return "ensemble output lacks trials, success rate or analytic probability"
    if printed_trials != trials:
        return f"ran {printed_trials} trials, asked for {trials}"
    if expected is not None and abs(analytic - expected) > 1e-12:
        return f"analytic probability {analytic!r}, documented {expected!r}"
    if not 0.0 < analytic <= 1.0:
        return f"analytic probability {analytic!r} outside (0, 1]"
    sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
    if abs(rate - analytic) > 4.0 * sigma:
        return f"rate {rate!r} is more than 4 sigma from {analytic!r}"
    return None


class McSmall:
    """Thousands of trials on registers of at most 7 qubits."""

    name = "mc-small"

    def __init__(self, seed: int, workdir: str, sizes: Sizes, pool_jobs: int):
        paths = {}
        for file_name, text in (("nand_reversal.qc", NAND_REVERSAL_QC),
                                ("interference.qc", INTERFERENCE_QC),
                                ("xor.nl", XOR_NL)):
            paths[file_name] = os.path.join(workdir, file_name)
            with open(paths[file_name], "w", encoding="utf-8") as fh:
                fh.write(text)
        self.trials = sizes.mc_trials
        mc = ["--mode", "mc", "--trials", str(self.trials), "--seed", str(seed)]
        self.calls = [
            Call(["simulate", paths["nand_reversal.qc"], *mc, "--jobs", "1"], "mc"),
            Call(["simulate", paths["interference.qc"], *mc, "--jobs", "1"], "mc"),
            Call(["demo-nand", "--netlist", paths["xor.nl"], "--m", "2", "--c", "0.8",
                  *mc, "--jobs", "1"], "mc"),
            # same circuit and seed as calls[1], so the output must match it
            Call(["simulate", paths["interference.qc"], *mc, "--jobs", str(pool_jobs)],
                 "pool"),
        ]
        self.warmup = self.calls
        self.state_qubits = 7

    def check(self, results: list[Result]) -> list[str | None]:
        expected = (NAND_REVERSAL_P, INTERFERENCE_P, None, INTERFERENCE_P)
        verdicts = []
        for result, p in zip(results, expected):
            if result.code != 0:
                verdicts.append(_failed_exit(result))
            else:
                verdicts.append(check_ensemble(result.out, self.trials, p))
        if verdicts[3] is None and results[3].out != results[1].out:
            verdicts[3] = "output under --jobs N differs from --jobs 1 at the same seed"
        return verdicts

    def named_metrics(self, group_s: dict[str, float]) -> dict[str, tuple[float, str]]:
        return {
            "mc_trials_per_s": (3 * self.trials / group_s["mc"], "1/s"),
            "mc_pool_trials_per_s": (self.trials / group_s["pool"], "1/s"),
        }


# ---------------------------------------------------------------- wide-sim

WIDE_SHAPE_SEED = 20


def wide_circuit(seed: int, n: int, hadamards: int) -> str:
    """A generated ``n``-qubit circuit from the uniform state.

    The shape (gate kinds, order and targets) comes from the fixed
    ``WIDE_SHAPE_SEED`` and only the measured gates' parameters come from
    ``seed``: where a gate's targets sit in the register changes how much the
    kernel copies, so a seeded shape would change the work from seed to seed.
    H gates on distinct qubits come first; after them only permutations (CNOT,
    CKX(2)) and diagonal measured gates follow, so the final support, and with
    it the size of every state dump, is 2^(n - hadamards).
    """
    shape = random.Random(WIDE_SHAPE_SEED)
    values = random.Random(seed)
    lines = [f"qubits {n}", "init uniform"]
    for q in shape.sample(range(n), hadamards):
        lines.append(f"gate H {q}")
    kinds = ["CNOT"] * 6 + ["CKX"] * 4 + ["N1"] * 4 + ["CN1"] * 4
    shape.shuffle(kinds)
    measured = "c=0.9 q=opt k=2"
    for kind in kinds:
        if kind == "CNOT":
            lines.append("gate CNOT {} {}".format(*shape.sample(range(n), 2)))
        elif kind == "CKX":
            lines.append("gate CKX(2) {} {} {}".format(*shape.sample(range(n), 3)))
        elif kind == "N1":
            a = values.uniform(0.99, 0.999)
            lines.append(f"gate N1({a:.6f}) {shape.randrange(n)} {measured}")
        else:
            a = values.uniform(0.99, 0.999)
            lines.append("gate CN1({:.6f}) {} {} {}".format(a, *shape.sample(range(n), 2),
                                                            measured))
    return "\n".join(lines) + "\n"


class Record(NamedTuple):
    outcome: str | None
    total: float | None
    state: np.ndarray | None


def parse_record(text: str, n_qubits: int) -> Record:
    """Outcome, total probability and final state of a branch or sampled run."""
    fields = _fields(text)
    try:
        total = float(fields["total probability"])
    except (KeyError, ValueError):
        total = None
    state = None
    lines = text.splitlines()
    if "final state:" in lines:
        state = np.zeros(1 << n_qubits, dtype=np.complex128)
        for line in lines[lines.index("final state:") + 1:]:
            parts = line.split()
            if len(parts) != 3 or len(parts[0]) != n_qubits:
                break
            try:
                state[int(parts[0], 2)] = complex(float(parts[1]), float(parts[2]))
            except ValueError:
                return Record(fields.get("outcome"), total, None)
    return Record(fields.get("outcome"), total, state)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real))


def check_branch(result: Result, n_qubits: int) -> tuple[str | None, Record]:
    record = parse_record(result.out, n_qubits)
    if result.code != 0:
        return _failed_exit(result), record
    if record.outcome != "success" or record.state is None:
        return "branch run did not print a successful final state", record
    if record.total is None or not 0.0 < record.total <= 1.0:
        return f"branch total probability {record.total!r} outside (0, 1]", record
    norm_sq = float(np.vdot(record.state, record.state).real)
    if abs(norm_sq - 1.0) > 1e-9:
        return f"branch final state has squared norm {norm_sq!r}", record
    return None, record


def check_sampled(result: Result, n_qubits: int, branch: Record | None) -> str | None:
    """A failed run exits 2; a successful one ends in the branch-mode state."""
    record = parse_record(result.out, n_qubits)
    if result.code == 2 and record.outcome == "failure":
        return None
    if result.code != 0:
        return _failed_exit(result)
    if record.outcome != "success" or record.state is None:
        return "sampled run exited 0 without a successful final state"
    if branch is None or branch.state is None or branch.total is None:
        return "no branch-mode reference to compare the sampled run with"
    if record.total is None or abs(record.total - branch.total) > 1e-9 * branch.total:
        return f"sampled total probability {record.total!r}, branch {branch.total!r}"
    f = fidelity(record.state, branch.state)
    if f < 1.0 - 1e-9:
        return f"sampled final state has fidelity {f!r} with the branch state"
    return None


# a sampled-run success count whose lower binomial tail is below this fails
SUCCESS_COUNT_TAIL = 1e-6


def check_success_count(successes: int, runs: int, p: float) -> str | None:
    """``successes`` of ``runs`` sampled runs is plausible at success probability ``p``.

    A sampler that fails too often also skips the fidelity check, because a
    failed run prints no final state; this catches it.
    """
    tail = sum(math.comb(runs, i) * p ** i * (1.0 - p) ** (runs - i)
               for i in range(successes + 1))
    if tail < SUCCESS_COUNT_TAIL:
        return (f"only {successes} of {runs} sampled runs succeeded at success probability "
                f"{p!r} (lower tail {tail:.1e})")
    return None


def check_search(result: Result, n: int, satisfiers: int) -> str | None:
    """demo-al finds s equal to the satisfier count with probability (1/6)^n."""
    if result.code != 0:
        return _failed_exit(result)
    fields = _fields(result.out)
    try:
        s = int(fields["s"])
        total = float(fields["total probability"])
    except (KeyError, ValueError):
        return "search output lacks s or total probability"
    if s != satisfiers:
        return f"search reported s={s}, the table has {satisfiers} satisfier(s)"
    expected = 6.0 ** -n
    if abs(total - expected) > 1e-9 * expected:
        return f"search total probability {total!r}, expected (1/6)^{n} = {expected!r}"
    return None


class WideSim:
    """Few runs over 8-16 MiB states: one pass per step through the kernel."""

    name = "wide-sim"

    def __init__(self, seed: int, workdir: str, sizes: Sizes):
        rng = random.Random(seed)
        self.n = sizes.wide_qubits
        self.search_n = sizes.search_n
        path = os.path.join(workdir, "wide.qc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(wide_circuit(seed, self.n, sizes.wide_hadamards))
        empty = ["0"] * (1 << self.search_n)
        single = list(empty)
        single[rng.randrange(1 << self.search_n)] = "1"
        self.tables = ("".join(empty), "".join(single))
        self.calls = [Call(["simulate", path], "branch")]
        self.calls += [Call(["simulate", path, "--mode", "sampled", "--seed", str(s)],
                            "sampled") for s in range(sizes.sampled_seeds)]
        self.calls += [Call(["demo-al", "--table", table, "--n", str(self.search_n)],
                            "search") for table in self.tables]
        self.warmup = self.calls[:1]
        self.state_qubits = self.n

    def check(self, results: list[Result]) -> list[str | None]:
        verdict, branch = check_branch(results[0], self.n)
        verdicts = [verdict]
        reference = branch if verdict is None else None
        sampled = [result for call, result in zip(self.calls, results)
                   if call.group == "sampled"]
        sampled_verdicts = [check_sampled(result, self.n, reference) for result in sampled]
        if reference is not None:
            successes = sum(result.code == 0 and verdict is None
                            for result, verdict in zip(sampled, sampled_verdicts))
            too_few = check_success_count(successes, len(sampled), reference.total)
            if too_few is not None:
                # the runs that failed carry the blame, so that they count as failed
                sampled_verdicts = [too_few if result.code == 2 and verdict is None else verdict
                                    for result, verdict in zip(sampled, sampled_verdicts)]
        verdicts += sampled_verdicts
        for table, result in zip(self.tables, results[-len(self.tables):]):
            verdicts.append(check_search(result, self.search_n, table.count("1")))
        return verdicts

    def named_metrics(self, group_s: dict[str, float]) -> dict[str, tuple[float, str]]:
        return {
            "wide_branch_s": (group_s["branch"], "s"),
            "wide_sampled_s": (group_s["sampled"], "s"),
            "search_s": (group_s["search"], "s"),
        }


# ------------------------------------------------------------ synth-verify

def write_matrix_file(path: str, m: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            fh.write(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row) + "\n")


def apply_steps(state: np.ndarray, steps, n_qubits: int) -> np.ndarray:
    """Apply netlist steps to the columns of ``state`` (shape ``(2^n, k)``).

    Qubit q is bit q of the basis index and a step's first target is the most
    significant bit of its matrix index, as in the netlist format.
    """
    cols = state.shape[1]
    for step in steps:
        k = len(step.targets)
        axes = [n_qubits - 1 - t for t in step.targets]
        moved = np.moveaxis(state.reshape((2,) * n_qubits + (cols,)), axes, range(k))
        out = (step.gate.matrix @ moved.reshape(1 << k, -1)).reshape(moved.shape)
        state = np.moveaxis(out, range(k), axes).reshape(1 << n_qubits, cols)
    return state


def target_frame_error(netlist, matrix: np.ndarray, rng: np.random.Generator,
                       vectors: int = 4) -> float:
    """Largest relative error of the netlist against its target, in the target's frame.

    Applies the netlist to random data vectors with every ancilla in |0> and
    returns the worst of ``|scale*out - M psi| / |M psi|`` over the data
    amplitudes and ``|scale*out| / |M psi|`` over amplitudes with an ancilla
    set, where M is the input scaled to largest singular value 1.
    """
    n = matrix.shape[0].bit_length() - 1
    if tuple(netlist.ancillas) != tuple(range(n, netlist.n_qubits)):
        return math.inf
    target = matrix / np.linalg.norm(matrix, 2)
    psi = rng.standard_normal((1 << n, vectors)) + 1j * rng.standard_normal((1 << n, vectors))
    state = np.zeros((1 << netlist.n_qubits, vectors), dtype=np.complex128)
    state[:1 << n] = psi
    out = netlist.scale * apply_steps(state, netlist.steps, netlist.n_qubits)
    want = target @ psi
    base = np.linalg.norm(want, axis=0)
    data = np.linalg.norm(out[:1 << n] - want, axis=0) / base
    leak = np.linalg.norm(out[1 << n:], axis=0) / base
    return float(max(data.max(), leak.max(initial=0.0)))


TARGET_FRAME_TOL = 1e-8


def check_synth(result: Result, out_path: str, matrix: np.ndarray, seed: int,
                read_netlist) -> str | None:
    """Read the written netlist back and check it against its input matrix."""
    if result.code != 0:
        return _failed_exit(result)
    try:
        doc = json.loads(result.out)
        netlist = read_netlist(out_path)
    except (ValueError, OSError) as exc:
        return f"cannot read synth output back: {exc}"
    if (doc.get("qubits"), doc.get("gates")) != (netlist.n_qubits, netlist.gate_count):
        return "synth JSON disagrees with the netlist file it wrote"
    error = target_frame_error(netlist, matrix, np.random.default_rng(seed))
    if not error <= TARGET_FRAME_TOL:
        return f"target-frame error {error!r} exceeds {TARGET_FRAME_TOL!r}"
    return None


class SynthVerify:
    """Synthesis plus its verification; no state vector is simulated."""

    name = "synth-verify"
    MODES = ("bare", "ancilla")

    def __init__(self, seed: int, workdir: str, sizes: Sizes, read_netlist):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.read_netlist = read_netlist
        self.cases = []
        self.calls = []
        for n in range(2, sizes.synth_max_n + 1):
            dim = 1 << n
            matrix = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            path = os.path.join(workdir, f"m{n}.mat")
            write_matrix_file(path, matrix)
            for mode in self.MODES:
                out_path = os.path.join(workdir, f"{mode}{n}.nl")
                self.cases.append((out_path, matrix))
                self.calls.append(Call(["synth", path, "--mode", mode, "--out", out_path,
                                        "--json"], "synth"))
        self.warmup = self.calls[:4]
        self.state_qubits = sizes.synth_max_n + 2

    def check(self, results: list[Result]) -> list[str | None]:
        return [check_synth(result, out_path, matrix, self.seed, self.read_netlist)
                for result, (out_path, matrix) in zip(results, self.cases)]

    def named_metrics(self, group_s: dict[str, float]) -> dict[str, tuple[float, str]]:
        return {"synth_s": (group_s["synth"], "s")}
