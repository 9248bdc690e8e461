"""Fixed-seed ``simulate`` output on 13 and 16 qubits, byte for byte, against a stored corpus.

``data/kernel_golden/wide.qc`` sends every state through the kernel's
wide-register paths: monomial gates on low, high, adjacent and wide-span
targets and dense gates on low, adjacent high and non-adjacent targets.
The files beside it hold the stdout of the commands below (one BLAS thread):
the branch files as written when real programs first ran on float64 states
(the circuit is real, so from its float64 start every squared norm is a
``ddot``, which rounds its last digit apart from the ``zdotc`` of the
complex start they were first written from), and the sampled files as
written when each trial first drew from its SplitMix64 stream.  Sampled
seed 0 succeeds and the other seeds fail at the final AL step, whose
reversal rarely succeeds, so the sampled files pin the per-step
probabilities of the sampled path and the branch files its final state.
The corpus is checked again with the blocks of the pair path, which serves
its dense step on (7, 0), made small, so that the same bits must come out
of many blocks as of one.

``data/kernel_golden/wide16.qc`` reaches what 13 qubits cannot: the
transpose path over several full blocks, with a complex (``mix.mat``) and
real dense operators on non-adjacent targets, and the chunked monomial path
for targets more than ``MONOMIAL_BLOCK_BITS`` apart, the identity among them.
Its ``wide16_*`` files hold the stdout of the blocked transpose path as it
first landed (one BLAS thread), the sampled ones as redrawn with the
SplitMix64 streams; that branch run's final state equals the step-by-step
reference of ``tests/stepwise.py`` bit for bit.  They are checked again in
small transpose-path blocks.  Sampled seed 6 succeeds,
and the other seeds fail at the final AL step.  Its float64 start is
promoted to complex128 by the first ``MAT`` step, before any measured step,
so these files still hold the complex start's bits.

Each corpus run is also held to its complex twin, the same start forced to
complex128: the same exit code, text and indices, and floats within 1e-14.
"""

import os
import re

import numpy as np
import pytest

from nuqc import circuit, cli, qstate
from nuqc.qstate import StateVector

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "kernel_golden")
CIRCUIT = os.path.join(GOLDEN, "wide.qc")
WIDE16 = os.path.join(GOLDEN, "wide16.qc")
SAMPLED_SEEDS = (0, 1, 2, 6)
RUNS = {"branch": ["--mode", "branch"]}
RUNS.update({f"sampled_seed{s}": ["--mode", "sampled", "--seed", str(s)] for s in SAMPLED_SEEDS})
# corpus file prefix -> circuit
CORPORA = {"": CIRCUIT, "wide16_": WIDE16}


def argv(path, name, fmt):
    """The command whose stdout the corpus file of run ``name`` in ``fmt`` holds."""
    return ["simulate", path, *RUNS[name]] + (["--json"] if fmt == "json" else [])


def _check_against_the_corpus(name, fmt, capsys, circuit=CIRCUIT, prefix=""):
    with open(os.path.join(GOLDEN, f"{prefix}{name}.{fmt}"), "rb") as fh:
        expected = fh.read()
    code = cli.main(argv(circuit, name, fmt))
    out, err = capsys.readouterr()
    assert err == ""
    assert code == (2 if b'"outcome": "failure"' in expected
                    or b"outcome: failure" in expected else 0)
    assert out.encode() == expected


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulate_stdout_matches_the_corpus(name, fmt, capsys):
    _check_against_the_corpus(name, fmt, capsys)


def _sizes_in_small_blocks(monkeypatch, path):
    """Blocks of 2^9 entries on both blocked paths, and a list of the array size of every call of ``path``."""
    monkeypatch.setattr(qstate, "TRANSPOSE_BLOCK_ENTRIES", 1 << 9)
    sizes = []
    kernel = getattr(qstate, path)
    monkeypatch.setattr(qstate, path, lambda amps, *args: sizes.append(amps.size) or kernel(amps, *args))
    return sizes


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulate_stdout_in_small_transpose_blocks_matches_the_corpus(name, fmt, capsys,
                                                                       monkeypatch):
    # the dense CU1 step on (7, 0) of the float64 state, which the pair path
    # serves, crosses 16 blocks of 2^7 pairs instead of filling one
    sizes = _sizes_in_small_blocks(monkeypatch, "_apply_pairs")
    _check_against_the_corpus(name, fmt, capsys)
    assert max(sizes) == 1 << 13


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_16_qubit_stdout_in_small_transpose_blocks_matches_the_corpus(name, fmt, capsys,
                                                                      monkeypatch):
    # the complex dense steps, which the transpose path serves, cross 128 blocks
    sizes = _sizes_in_small_blocks(monkeypatch, "_apply_transposed")
    _check_against_the_corpus(name, fmt, capsys, WIDE16, "wide16_")
    assert max(sizes) == 1 << 16


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_16_qubit_stdout_matches_the_corpus(name, fmt, capsys):
    _check_against_the_corpus(name, fmt, capsys, WIDE16, "wide16_")


@pytest.mark.parametrize("path, succeeds", [(CIRCUIT, 0), (WIDE16, 6)], ids=["wide", "wide16"])
def test_the_sampled_corpus_holds_a_success_and_failures_at_the_final_al_step(path, succeeds):
    program = circuit.parse_file(path)
    last = len(program.steps) - 1
    assert program.steps[last].gate.label == "AL"
    ended = {s: circuit.run_sampled(program, seed=s).failed_step for s in SAMPLED_SEEDS}
    assert ended == {s: None if s == succeeds else last for s in SAMPLED_SEEDS}


def test_the_16_qubit_circuit_takes_the_paths_it_pins(capsys, monkeypatch):
    transposed, chunked = [], []
    apply_transposed, apply_chunks = qstate._apply_transposed, qstate._apply_monomial_chunks

    def spy_transposed(amps, op, targets, out=None):
        transposed.append((amps.size, bool(op.imag.any()), targets))
        return apply_transposed(amps, op, targets, out)

    def spy_chunks(view, rows, targets, out=None):
        chunked.append((view.size, rows == tuple((i, 1.0) for i in range(len(rows)))))
        return apply_chunks(view, rows, targets, out)

    monkeypatch.setattr(qstate, "_apply_transposed", spy_transposed)
    monkeypatch.setattr(qstate, "_apply_monomial_chunks", spy_chunks)
    assert cli.main(["simulate", WIDE16]) == 0
    capsys.readouterr()
    size = 1 << 16
    assert size > qstate.TRANSPOSE_BLOCK_ENTRIES
    # complex on both target orders, real on (10, 3) and AL on (7, 0)
    assert {(c, t) for s, c, t in transposed if s == size} >= {
        (True, (9, 2)), (True, (2, 13)), (False, (10, 3)), (False, (7, 0))}
    # CNOT and CN1 on (15, 0), and the identity D(1,1,1,1) on (15, 1)
    assert (size, True) in chunked and (size, False) in chunked


# a printed float: repr always writes a "." or an exponent, which indices and counts lack
_FLOAT = re.compile(r"-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+)")


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name", sorted(RUNS))
@pytest.mark.parametrize("path", [CIRCUIT, WIDE16], ids=["wide", "wide16"])
def test_a_real_start_prints_what_its_complex_twin_prints(path, name, fmt, capsys, monkeypatch):
    parse_file = circuit.parse_file
    starts = []

    def parse_as(twin):
        def parse(file_name):
            program = parse_file(file_name)
            if twin:  # the same start, forced to complex128
                program.initial_state = StateVector(program.n_qubits,
                                                    program.initial_state.amplitudes)
            starts.append(program.initial_state.amplitudes.dtype)
            return program
        return parse

    runs = []
    for twin in (False, True):
        monkeypatch.setattr(circuit, "parse_file", parse_as(twin))
        code = cli.main(argv(path, name, fmt))
        out, err = capsys.readouterr()
        assert err == ""
        runs.append((code, _FLOAT.split(out), [float(x) for x in _FLOAT.findall(out)]))
    assert starts == [np.float64, np.complex128]
    (code, text, floats), (twin_code, twin_text, twin_floats) = runs
    # exit code, outcome, per-step reversal counts and printed indices
    assert (code, text) == (twin_code, twin_text)
    assert len(floats) == len(twin_floats)
    for x, y in zip(floats, twin_floats):
        assert abs(x - y) <= 1e-14 * max(abs(x), abs(y)), (x, y)
