"""Random programs, each run by every runner and held to its step-by-step reference.

``_corpus`` writes ``PROGRAMS`` seeded circuit texts: 1 to 10 qubits, starts
from ``init basis``, ``init uniform`` or a real or complex unit state given
through the API, and steps over X, H, CNOT, CKX, N1, U1, CN1, CU1, ``D(...)``,
NAND and AL with random ``c``, ``q=opt`` or an explicit ``q``, and ``k`` from 0
to 3.  ``WIDE_PROGRAMS`` more have 11 to 13 qubits, and about half their
steps are AL, NAND or CU1 on ``(i, 0)`` with ``i >= 4``, which the kernel's
pair path serves on the float64 states that ``init`` starts there.  Every
program with a float64 start is also run from its complex128 twin.  Every
failure names the program's seed and prints its text.

``EDGE_PROGRAMS`` more sit at the edges of what parsing accepts: strengths at
the bounds of ``measure.check_strengths``, ``D(...)`` and rotated ``MAT`` gates
whose largest singular value is 1 or just above it, and ``init file`` starts.
Each is either refused by ``parse`` or run by every runner without an error
other than ``DegenerateBranchError``.
"""

import functools
import io
import math
from collections import Counter

import numpy as np
import pytest

from nuqc import circuit, gates, measure, qstate, shares
from nuqc.errors import CircuitError, CircuitParseError, DegenerateBranchError
from nuqc.linops import write_matrix
from nuqc.qstate import StateVector, dump_state, fidelity

import stepwise

PROGRAMS = 200
WIDE_PROGRAMS = 40
EDGE_PROGRAMS = 400
EDGE_TRIALS = 200
SAMPLED_SEEDS = (0, 1, 2)
STARTS = ("basis 0", "basis", "uniform", "real", "complex")


def _label(rng, n):
    """A random gate label that fits ``n`` qubits, and its arity."""
    names = ["X", "H", "N1", "U1", "D"]
    if n >= 2:
        names += ["CNOT", "CKX", "CN1", "CU1", "NAND", "AL"]
    name = names[rng.integers(len(names))]
    a = 0.0 if rng.random() < 0.1 else round(float(rng.random()), 3)
    if name in ("N1", "CN1"):
        return f"{name}({min(a, 0.999)})", 1 if name == "N1" else 2
    if name in ("U1", "CU1"):
        return f"{name}({a})", 1 if name == "U1" else 2
    if name == "CKX":
        k = int(rng.integers(1, min(3, n - 1) + 1))
        return f"CKX({k})", k + 1
    if name == "D":
        m = int(rng.integers(1, min(3, n) + 1))
        entries = [0.0 if rng.random() < 0.1 else round(float(rng.random()), 3)
                   for _ in range(1 << m)]
        return f"D({','.join(map(str, entries))})", m
    return name, 1 if name in ("X", "H") else 2


def _attributes(rng):
    """``c``, ``q`` and ``k`` of a step line; most unitary-looking steps stay plain."""
    if rng.random() < 0.5:
        return ""
    c = round(float(rng.uniform(0.5, 0.99)), 3)
    fields = [f"c={c}"]
    k = int(rng.integers(0, 4))
    if k or rng.random() < 0.3:
        if rng.random() < 0.5:
            fields.append("q=opt")
        else:
            fields.append(f"q={rng.uniform(0.05, 0.95) * math.sqrt(1 - c * c):.6f}")
    if k:
        fields.append(f"k={k}")
    return " " + " ".join(fields)


def _pair_step(rng, n):
    """AL, NAND or CU1 on ``(i, 0)`` with ``i >= 4``: a step line without attributes."""
    name = ("AL", "NAND", f"CU1({round(float(rng.random()), 3)})")[rng.integers(3)]
    return f"{name} {rng.integers(4, n)} 0"


def _program(seed):
    """``(start kind, text, program)`` of random program ``seed``; wide from ``PROGRAMS`` on."""
    rng = np.random.default_rng(seed)
    wide = seed >= PROGRAMS
    n = int(rng.integers(11, 14) if wide else rng.integers(1, 11))
    kind = STARTS[rng.integers(len(STARTS))]
    lines = [f"qubits {n}"]
    if kind == "basis":
        lines.append(f"init basis {rng.integers(1 << n)}")
    elif kind == "uniform":
        lines.append("init uniform")
    for _ in range(rng.integers(1, 9)):
        if wide and rng.random() < 0.5:
            lines.append(_pair_step(rng, n) + _attributes(rng))
            continue
        label, arity = _label(rng, n)
        targets = rng.permutation(n)[:arity]
        lines.append(f"{label} {' '.join(map(str, targets))}{_attributes(rng)}")
    text = "\n".join(lines) + "\n"
    program = circuit.parse(text)
    if kind in ("real", "complex"):
        amps = rng.normal(size=1 << n)
        if kind == "complex":
            amps = amps + 1j * rng.normal(size=1 << n)
        start = StateVector(n, amps / np.linalg.norm(amps))
        program = circuit.CircuitProgram(n, program.steps, start)
    return kind, text, program


@functools.lru_cache(maxsize=1)
def _corpus():
    return [(seed,) + _program(seed) for seed in range(PROGRAMS + WIDE_PROGRAMS)]


def _where(seed, kind, text):
    return f"random program {seed} (start: {kind}):\n{text}"


def _same_bits(a, b):
    if a is None or b is None:
        return a is b
    return a.amplitudes.dtype == b.amplitudes.dtype and np.array_equal(
        a.amplitudes.view(np.uint64), b.amplitudes.view(np.uint64))


def _sampled(run, *args):
    """``run(*args)``, or ``"degenerate"`` where it raises ``DegenerateBranchError``."""
    try:
        return run(*args)
    except DegenerateBranchError:
        return "degenerate"


def test_branch_runs_are_the_stepwise_branch_bit_for_bit():
    annihilated = 0
    for seed, kind, text, program in _corpus():
        record = circuit.run_branch(program)
        state, records = stepwise.branch(program)
        where = _where(seed, kind, text)
        assert record.steps == records, where
        assert _same_bits(record.final_state, state), where
        if state is None:
            annihilated += 1
            assert (record.outcome, record.failed_step) == ("failure", len(records) - 1), where
            assert (records[-1].probability, records[-1].reversals) == (0.0, 0), where
        else:
            assert record.outcome == "success", where
            assert record.total_probability == math.prod(r.probability for r in records), where
    # the corpus reaches annihilated branches, where the reference used to raise
    assert annihilated >= 5


def _same_draws(steps, reference, n_qubits):
    """Equal labels, targets and reversals, and equal ``p`` up to the first reversal.

    A reversal restores the sampler's state only up to the last bits, so each
    later ``p`` is held within 1e-15 relative on up to 10 qubits and within
    1e-14 on more, where 1,200 sampled runs of 11 to 13 qubits differed by
    up to 2.2e-15.
    """
    if len(steps) != len(reference):
        return False
    rel = 1e-15 if n_qubits <= 10 else 1e-14
    reversed_before = False
    for a, b in zip(steps, reference):
        if (a.label, a.targets, a.reversals) != (b.label, b.targets, b.reversals):
            return False
        if a.probability != (pytest.approx(b.probability, rel=rel, abs=0.0)
                             if reversed_before else b.probability):
            return False
        reversed_before = reversed_before or b.reversals > 0
    return True


def test_sampled_runs_draw_what_the_state_vector_sampler_draws():
    outcomes = Counter()
    reversed_runs = 0
    for seed, kind, text, program in _corpus():
        for s in SAMPLED_SEEDS:
            where = f"seed {s} of " + _where(seed, kind, text)
            record = _sampled(circuit.run_sampled, program, s)
            reference = _sampled(stepwise.sampled, program, s)
            assert (record == "degenerate") == (reference == "degenerate"), where
            if record == "degenerate":
                outcomes[record] += 1
                continue
            state, records = reference
            assert _same_draws(record.steps, records, program.n_qubits), where
            # a sampled run's steps are the branch's, so their p are the branch's bits
            branch = circuit.run_branch(program).steps
            assert [r.probability for r in record.steps] == [
                r.probability for r in branch[:len(record.steps)]], where
            assert record.outcome == ("success" if state is not None else "failure"), where
            outcomes[record.outcome] += 1
            if state is None:
                assert record.failed_step == len(records) - 1, where
                continue
            # after a reversal the sampler's restored state can differ in the last bit
            assert fidelity(record.final_state, state) >= 1.0 - 1e-12, where
            reversed_runs += any(r.reversals for r in records)
    # successes, failures, and successes after a reversal are all reached
    assert outcomes["success"] >= 100 and outcomes["failure"] >= 100
    assert reversed_runs >= 10


def test_sampled_runs_are_trial_zero_of_the_ensemble():
    for seed, kind, text, program in _corpus():
        for s in SAMPLED_SEEDS:
            where = f"seed {s} of " + _where(seed, kind, text)
            record = _sampled(circuit.run_sampled, program, s)
            stats = _sampled(circuit.run_ensemble, program, s, 1)
            assert (record == "degenerate") == (stats == "degenerate"), where
            if record == "degenerate":
                continue
            failed = {} if record.failed_step is None else {record.failed_step: 1}
            assert stats.successes == (record.outcome == "success"), where
            assert stats.failures_by_step == failed, where
            assert stats.mean_reversals == sum(r.reversals for r in record.steps), where


def _fields(program):
    return [(s.gate.label, s.targets, s.c, s.q, s.max_reversals) for s in program.steps]


def test_programs_round_trip_through_their_text():
    for seed, kind, text, program in _corpus():
        written = circuit.format_program(program)
        again = circuit.parse(written)
        where = _where(seed, kind, text)
        assert _fields(again) == _fields(program), where
        assert circuit.format_program(again) == written, where
        if kind not in ("real", "complex"):
            assert again.init_label == program.init_label, where
            assert _same_bits(again.initial_state, program.initial_state), where


def test_starts_off_unit_norm_are_refused():
    for seed, kind, text, program in _corpus():
        amps = program.initial_state.amplitudes
        for squared in (1.0 + 10 * gates.UNITARY_ATOL, 1.0 - 10 * gates.UNITARY_ATOL):
            start = StateVector(program.n_qubits, amps * math.sqrt(squared))
            with pytest.raises(CircuitError, match="squared norm"):
                circuit.CircuitProgram(program.n_qubits, program.steps, start)


def _printed(record):
    """The text of ``record`` that the CLI prints, split into words."""
    words = [f"{r.label} {r.targets} {r.probability!r} {r.reversals}" for r in record.steps]
    words += [record.outcome, str(record.failed_step), repr(record.total_probability)]
    if record.final_state is not None:
        out = io.StringIO()
        dump_state(record.final_state, out=out)
        words.append(out.getvalue())
    return " ".join(words).split()


def _twin_close(record, twin):
    """Equal words, apart from floats within 1e-13 relative; ``True`` for two degenerate runs.

    Each squared norm is a ``ddot`` on one side and a ``zdotc`` on the other,
    which round apart: on 11 to 13 qubits, 222 such pairs of runs differed by
    up to 4.9e-14, and where checked against an exactly rounded sum the
    float64 run was the nearer one.
    """
    if record == "degenerate" or twin == "degenerate":
        return record == twin
    words, twin_words = _printed(record), _printed(twin)
    if len(words) != len(twin_words):
        return False
    for a, b in zip(words, twin_words):
        if a != b:
            try:
                x, y = float(a), float(b)
            except ValueError:
                return False
            if not abs(x - y) <= 1e-13 * max(abs(x), abs(y)):
                return False
    return True


def test_float64_runs_print_what_their_complex_twins_print(monkeypatch):
    paired = []
    pairs = qstate._apply_pairs
    monkeypatch.setattr(qstate, "_apply_pairs",
                        lambda amps, *args: paired.append(amps.size) or pairs(amps, *args))
    twins = 0
    for seed, kind, text, program in _corpus():
        start = program.initial_state
        if start.amplitudes.dtype != np.float64:
            continue
        twins += 1
        # the same start forced to complex128, whose dense steps take the transpose path
        twin = circuit.CircuitProgram(program.n_qubits, program.steps,
                                      StateVector(program.n_qubits, start.amplitudes))
        where = _where(seed, kind, text)
        assert _twin_close(circuit.run_branch(program), circuit.run_branch(twin)), where
        for s in SAMPLED_SEEDS:
            assert _twin_close(_sampled(circuit.run_sampled, program, s),
                               _sampled(circuit.run_sampled, twin, s)), f"seed {s} of {where}"
    # the wide programs' float64 starts reach the pair path
    assert twins >= 20 and len(paired) >= 100


def _outputs(record):
    """Everything a run reports, its final state as bytes; ``"degenerate"`` stays as it is."""
    if record == "degenerate":
        return record
    final = record.final_state
    return (record.outcome, record.failed_step, record.steps, record.total_probability,
            None if final is None else (final.amplitudes.dtype, final.amplitudes.tobytes()))


def test_wide_programs_give_the_one_share_bits_in_two_shares(monkeypatch):
    wide = [entry for entry in _corpus() if entry[0] >= PROGRAMS]

    def runs():
        return [[_outputs(circuit.run_branch(program))]
                + [_outputs(_sampled(circuit.run_sampled, program, s)) for s in SAMPLED_SEEDS]
                for _, _, _, program in wide]

    # every kernel pass of 2^11 to 2^13 entries is split in two
    monkeypatch.setattr(shares, "SHARE_MIN_ENTRIES", qstate.COPY_FREE_MIN_SIZE)
    monkeypatch.setattr(shares, "CORES", 1)
    one = runs()
    monkeypatch.setattr(shares, "CORES", 2)
    split = []
    in_shares = shares.in_shares
    monkeypatch.setattr(shares, "in_shares", lambda length, entries, share: in_shares(
        length, entries, lambda lo, hi: split.append(lo > 0) or share(lo, hi)))
    two = runs()
    for (seed, kind, text, _), a, b in zip(wide, one, two):
        assert a == b, _where(seed, kind, text)
    # 427 passes ran in two shares
    assert sum(split) >= 400



def _edge_strengths():
    """``c=`` and ``q=`` fields at the bounds of the strength rule."""
    slack = measure.STRENGTH_SLACK
    fields = []
    for c in (1.0 + slack / 2, 1.0 - slack / 2, 1e-11, 2e-12, 0.9):
        fields += [f"c={c!r}", f"c={c!r} q=opt"]
        if c <= 1.0:
            fields.append(f"c={c!r} q={math.sqrt(1.0 - c * c) + slack / 2!r}")
    return fields


def _edge_gates(rng, directory):
    """``(label, arity)`` of plain gates, and of ``D(...)`` and ``MAT`` gates near the bound.

    Each ``D(...)`` and ``MAT`` gate's largest singular value is 1 plus 0, 0.5, 1
    or 1.5 ``UNITARY_ATOL``; a ``MAT`` gate is such a diagonal in a random basis,
    written to a matrix file in ``directory``.
    """
    labels = [("N1(0.5)", 1), ("H", 1), ("X", 1), ("NAND", 2), ("AL", 2), ("CN1(0.3)", 2)]
    for i, top in enumerate(1.0 + gates.UNITARY_ATOL * np.array([0.0, 0.5, 1.0, 1.5])):
        labels.append((f"D({top!r},0.5)", 1))
        for arity in (1, 2):
            dim = 1 << arity
            basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
            values = np.r_[top, rng.uniform(0.1, 1.0, dim - 1)]
            path = f"edge{i}_{arity}.mat"
            write_matrix(str(directory / path), (basis * values) @ basis.conj().T)
            labels.append((f"MAT({path})", arity))
    return labels


def _edge_program(seed, labels, directory):
    """The text of edge program ``seed``; an ``init file`` start is written in ``directory``."""
    rng = np.random.default_rng(10_000 + seed)
    n = int(rng.integers(1, 12) if rng.random() < 0.2 else rng.integers(1, 4))
    lines = [f"qubits {n}"]
    start = rng.integers(3)
    if start == 1:
        lines.append("init uniform")
    elif start == 2:
        amps = rng.normal(size=1 << n)
        if rng.random() < 0.5:
            amps = amps + 1j * rng.normal(size=1 << n)
        with open(directory / f"start{seed}.txt", "w", encoding="utf-8") as fh:
            dump_state(StateVector(n, amps / np.linalg.norm(amps)), out=fh)
        lines.append(f"init file start{seed}.txt")
    fitting = [(label, arity) for label, arity in labels if arity <= n]
    strengths = _edge_strengths()
    for _ in range(rng.integers(1, 5)):
        label, arity = fitting[rng.integers(len(fitting))]
        targets = " ".join(map(str, rng.permutation(n)[:arity]))
        lines.append(f"{label} {targets} {strengths[rng.integers(len(strengths))]} "
                     f"k={(0, 1, 3)[rng.integers(3)]}")
    return "\n".join(lines) + "\n"


def test_what_parse_accepts_every_runner_runs(tmp_path):
    labels = _edge_gates(np.random.default_rng(9_999), tmp_path)
    outcomes = Counter()
    for seed in range(EDGE_PROGRAMS):
        text = _edge_program(seed, labels, tmp_path)
        try:
            program = circuit.parse(text, base_dir=str(tmp_path))
        except CircuitParseError:
            outcomes["refused"] += 1
            continue
        runs = [functools.partial(circuit.run_sampled, program, s) for s in SAMPLED_SEEDS]
        runs += [lambda: circuit.run_branch(program),
                 lambda: circuit.run_ensemble(program, seed=seed, trials=EDGE_TRIALS)]
        for run in runs:
            try:
                run()
            except DegenerateBranchError:
                pass
            except Exception as exc:  # any other error breaks the rule
                pytest.fail(f"{type(exc).__name__}: {exc}\nedge program {seed}:\n{text}")
        outcomes["run"] += 1
        outcomes["|q| = 1"] += any(policy is not None and abs(policy.q) ** 2 == 1.0
                                   for _, policy in map(program.prepared, program.steps))
    # both sides of the rule are reached, and so are reversals of strength exactly 1
    assert outcomes["refused"] >= 100 and outcomes["run"] >= 100, outcomes
    assert outcomes["|q| = 1"] >= 20, outcomes
