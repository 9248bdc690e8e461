"""Random programs, each run by every runner and held to its step-by-step reference.

``_corpus`` writes ``PROGRAMS`` seeded circuit texts: 1 to 10 qubits, starts
from ``init basis``, ``init uniform`` or a real or complex unit state given
through the API, and steps over X, H, CNOT, CKX, N1, U1, CN1, CU1, ``D(...)``,
NAND and AL with random ``c``, ``q=opt`` or an explicit ``q``, and ``k`` from 0
to 3.  Every failure names the program's seed and prints its text.
"""

import functools
import math
from collections import Counter

import numpy as np
import pytest

from nuqc import circuit, gates
from nuqc.errors import CircuitError, DegenerateBranchError
from nuqc.qstate import StateVector, fidelity

import stepwise

PROGRAMS = 200
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


def _program(seed):
    """``(start kind, text, program)`` of random program ``seed``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11))
    kind = STARTS[rng.integers(len(STARTS))]
    lines = [f"qubits {n}"]
    if kind == "basis":
        lines.append(f"init basis {rng.integers(1 << n)}")
    elif kind == "uniform":
        lines.append("init uniform")
    for _ in range(rng.integers(1, 9)):
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
    return [(seed,) + _program(seed) for seed in range(PROGRAMS)]


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


def _same_draws(steps, reference):
    """Equal labels, targets and reversals, and equal ``p`` up to the first reversal.

    A reversal restores the sampler's state only up to the last bit, so each
    later ``p`` is held within 1e-15 relative.
    """
    if len(steps) != len(reference):
        return False
    reversed_before = False
    for a, b in zip(steps, reference):
        if (a.label, a.targets, a.reversals) != (b.label, b.targets, b.reversals):
            return False
        if a.probability != (pytest.approx(b.probability, rel=1e-15, abs=0.0)
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
            assert _same_draws(record.steps, records), where
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
