import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from nuqc import apps, circuit, cli, gates, measure, qstate, synth
from nuqc.errors import (CircuitError, CircuitParseError, DegenerateBranchError, DomainError,
                         ShapeError)
from nuqc.linops import read_matrix, write_matrix
from nuqc.qstate import StateVector, basis_state, dump_state, uniform_state

import stepwise

NAND_REVERSAL = """
qubits 2
init basis 3
gate NAND 1 0 c=0.6 q=opt k=1
"""

# non-optimal q, budgets up to 4, a measured step without reversal and
# unitary steps between the measured ones
MULTI_STEP = """
qubits 3
init uniform
gate H 0
gate NAND 1 0 c=0.7 q=0.5 k=4
gate CNOT 1 2
gate N1(0.4) 2 c=0.9
gate AL 0 1 c=0.8 q=opt k=2
gate X 1
gate NAND 2 1 c=0.6 q=0.3 k=3
gate CN1(0.5) 0 2 c=0.95 q=0.2 k=1
"""


def test_parse_minimal():
    prog = circuit.parse("qubits 3\n")
    assert prog.n_qubits == 3
    assert prog.steps == []
    assert np.array_equal(prog.initial_state.amplitudes, basis_state(3, 0).amplitudes)


def test_parse_full_program():
    prog = circuit.parse(
        """
        # a comment line
        qubits 2
        init uniform
        gate H 0            # trailing comment
        gate NAND 1 0 c=0.8 q=0.5 k=2
        """
    )
    assert prog.init_label == "uniform"
    assert len(prog.steps) == 2
    step = prog.steps[1]
    assert step.c == 0.8
    assert step.q == 0.5
    assert step.max_reversals == 2
    assert step.targets == (1, 0)


def test_parse_optimal_reversal_strength():
    prog = circuit.parse("qubits 2\ngate NAND 0 1 c=0.8 q=opt k=1\n")
    # q=opt resolves at parse time to sqrt(1 - 0.64)
    assert prog.steps[0].q == pytest.approx(0.6, abs=1e-12)


def test_parse_init_file(tmp_path):
    state_file = tmp_path / "in.state"
    state_file.write_text("11 2.0 0.0\n", encoding="utf-8")
    prog = circuit.parse("qubits 2\ninit file in.state\n", base_dir=str(tmp_path))
    # file amplitudes are normalized on load
    assert np.allclose(prog.initial_state.amplitudes, [0, 0, 0, 1.0])


def test_parse_matrixgate(tmp_path):
    from nuqc.linops import write_matrix

    write_matrix(tmp_path / "twice.mat", np.diag([2.0, 1.0]))
    prog = circuit.parse("qubits 1\nmatrixgate twice.mat 0\n", base_dir=str(tmp_path))
    # matrix files are normalized so the largest singular value is 1
    assert np.allclose(prog.steps[0].gate.matrix, np.diag([1.0, 0.5]), atol=1e-15)
    # matrixgate is shorthand for gate MAT(...): both lines share one GateSpec
    prog = circuit.parse("qubits 1\nmatrixgate twice.mat 0\ngate MAT(twice.mat) 0\n",
                         base_dir=str(tmp_path))
    assert prog.steps[0].gate is prog.steps[1].gate
    assert prog.steps[0].gate.label == "MAT(twice.mat)"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("gate X 0\n", "qubits line must come first"),
        ("qubits 0\n", "qubit count"),
        ("qubits 2\nqubits 2\n", "duplicate"),
        ("qubits 2\ngate X 0\ninit uniform\n", "init must precede"),
        ("qubits 2\ninit basis 7\n", "out of range"),
        ("qubits 2\ngate BOGUS 0\n", "unrecognized gate label"),
        ("qubits 2\ngate CNOT 0\n", "expects 2 targets"),
        ("qubits 2\ngate CNOT 0 0\n", "duplicate targets"),
        ("qubits 2\ngate X 5\n", "out of range"),
        ("qubits 2\ngate X 0 c=1.5\n", "c must lie"),
        ("qubits 2\ngate NAND 0 1 q=opt k=1\n", "reversal requires c < 1"),
        ("qubits 2\ngate NAND 0 1 c=0.6 q=0.9\n", "q must lie"),
        ("qubits 2\ngate NAND 0 1 c=0.6 wat=3\n", "unknown attribute"),
        ("qubits 2\nfrobnicate\n", "unknown directive"),
        ("qubits 2 scale 1.0\n", "expected 'qubits <n>' alone"),
        ("qubits 2\nscale 0\n", "scale must be positive"),
        ("qubits 2\nscale nan\n", "scale must be positive"),
        ("qubits 2\nscale 2\nscale 2\n", "duplicate scale"),
        ("qubits 2\ngate X 0\nancillas 1\n", "ancillas must precede"),
        ("qubits 2\nancillas 2\n", "ancilla qubit 2 out of range"),
        ("qubits 2\nancillas 1 1\n", "duplicate ancillas"),
        ("qubits 2\nancillas\n", "expected 'ancillas <q...>'"),
        ("qubits abc\n", "line 1: bad qubit count 'abc'"),
        ("qubits 1\ngate X 0 c=\n", "line 2: bad attribute 'c='; expected name=value"),
        ("qubits 1\ngate N1(0.5) 0 c=0.6 k=-1\n", "line 2: k must be >= 0, got -1"),
        # the strength rule is measure's: refused here, not when the step is prepared
        ("qubits 1\ngate N1(0.5) 0 c=1e-13\n",
         "line 2: c must lie in (1e-12, 1 + 1e-12] in magnitude, got 1e-13"),
        ("qubits 1\ngate N1(0.5) 0 c=0.6 q=5e-13 k=1\n", "line 2: q must lie in (1e-12, "
         "sqrt(1-|c|^2) + 1e-12] in magnitude, where sqrt(1-|c|^2) = 0.8, got 5e-13"),
        # the rule passes, but c times the top singular value rounds to 1: M1 is singular
        ("qubits 1\ninit uniform\ngate D(1.0000000005,0.5) 0\n"
         "gate D(1.000000001,0.5) 0 c=0.9999999989999999 k=1\n",
         "line 4: failure operator has eigenvalue 0.000e+00"),
        ("qubits 2\ngate X a\n", "line 2: bad target list ['a']"),
        ("qubits 2\ninit basis\n", "line 2: expected 'init basis <index>'"),
        ("qubits 2\ninit zero\n",
         "line 2: expected 'init basis <i>', 'init uniform' or 'init file <path>'"),
        ("qubits 1\ninit file {dir}/missing.state\n", "line 2: cannot read state file: "
         "[Errno 2] No such file or directory: '{dir}/missing.state'"),
        ("qubits 1\ninit file {dir}/bad.state\n", "line 2: bad amplitude on line '1 x 0'"),
        ("qubits 1\nscale\n", "line 2: expected 'scale <s>'"),
        ("qubits 1\ngate\n", "line 2: missing gate label on 'gate' line"),
        ("qubits 1\ngate MAT({dir}/missing.mat) 0\n", "line 2: cannot read matrix file: "
         "[Errno 2] No such file or directory: '{dir}/missing.mat'"),
        ("", "missing qubits line"),
    ],
)
def test_parse_errors(text, fragment, tmp_path, capsys):
    (tmp_path / "bad.state").write_text("1 x 0\n", encoding="utf-8")
    text, fragment = text.format(dir=tmp_path), fragment.format(dir=tmp_path)
    with pytest.raises(CircuitParseError) as err:
        circuit.parse(text)
    assert fragment in str(err.value)
    # the CLI reports the same error on one stderr line and exits 1
    path = tmp_path / "bad.qc"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["simulate", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {err.value}\n")


def test_a_reversal_near_full_strength_parses_and_runs():
    # 1 - c^2 = 1.4e-12 exceeds STRENGTH_SLACK, so M1 is invertible and q=opt is legal
    c = 0.9999999999993
    prog = circuit.parse(f"qubits 1\ninit uniform\ngate N1(0.5) 0 c={c!r} k=1\n")
    record = circuit.run_branch(prog)
    assert record.outcome == "success"
    p = c * c * (1.0 + 0.25) / 2.0
    assert record.total_probability == pytest.approx(p * (2.0 - c * c), rel=1e-12)


def test_numbered_lines_skip_comments_and_blank_lines():
    text = "# header\n\nqubits 2  # width\n   \ngate X 0\n"
    assert list(circuit.numbered_lines(text)) == [(3, ["qubits", "2"]), (5, ["gate", "X", "0"])]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CircuitParseError) as err:
        circuit.parse("qubits 2\n\ngate BOGUS 0\n")
    assert str(err.value).startswith("line 3:")


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
def test_missing_qubits_line_names_no_line(text):
    with pytest.raises(CircuitParseError) as err:
        circuit.parse(text)
    assert str(err.value) == "missing qubits line"
    assert err.value.line is None


def test_run_branch_probability_and_state():
    record = circuit.run_branch(circuit.parse(NAND_REVERSAL))
    # p = 0.36/3, boosted by one reversal: p * (1 + 0.64)
    assert record.outcome == "success"
    assert record.total_probability == pytest.approx(0.1968, abs=1e-12)
    assert record.steps[0].probability == pytest.approx(0.1968, abs=1e-12)
    # the NAND of |11> lands on |0> of qubit 1 with qubit 0 cleared
    assert abs(record.final_state.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)


def test_run_branch_unitary_steps_are_free():
    record = circuit.run_branch(circuit.parse("qubits 2\ngate H 0\ngate CNOT 0 1\n"))
    assert record.total_probability == 1.0
    assert all(s.probability == 1.0 for s in record.steps)


def test_run_branch_multiplies_probabilities():
    prog = circuit.parse(
        "qubits 3\ninit basis 7\ngate NAND 2 1 c=0.6\ngate NAND 1 0 c=0.8\n"
    )
    record = circuit.run_branch(prog)
    per_step = [s.probability for s in record.steps]
    assert record.total_probability == pytest.approx(np.prod(per_step), rel=1e-12)


def test_run_branch_wrong_state_failure(tmp_path):
    # (|00> - |01>)/sqrt(2) has zero success amplitude through the NAND
    state_file = tmp_path / "wrong.state"
    state_file.write_text("00 1.0 0.0\n01 -1.0 0.0\n", encoding="utf-8")
    prog = circuit.parse("qubits 2\ninit file wrong.state\ngate NAND 1 0\n",
                         base_dir=str(tmp_path))
    record = circuit.run_branch(prog)
    assert record.outcome == "failure"
    assert record.failed_step == 0
    assert record.total_probability == 0.0
    assert record.final_state is None


def test_run_sampled_is_deterministic():
    prog = circuit.parse(NAND_REVERSAL)
    a = circuit.run_sampled(prog, seed=7)
    b = circuit.run_sampled(prog, seed=7)
    assert a.outcome == b.outcome
    assert a.steps == b.steps


def _is_trial_zero(prog, seed):
    """Whether ``run_sampled`` at ``seed`` ends as trial 0 of the ensemble at ``seed``."""
    single = circuit.run_sampled(prog, seed=seed)
    stats = circuit.run_ensemble(prog, seed=seed, trials=1)
    failed = {} if single.failed_step is None else {single.failed_step: 1}
    return (stats.successes == (1 if single.outcome == "success" else 0)
            and stats.failures_by_step == failed
            and stats.mean_reversals == sum(r.reversals for r in single.steps))


def test_run_sampled_matches_ensemble_trial_zero():
    for prog in (circuit.parse(NAND_REVERSAL), circuit.parse(MULTI_STEP)):
        for seed in range(6):
            assert _is_trial_zero(prog, seed), seed


def test_a_start_of_another_width_is_refused():
    step = circuit.CircuitStep(gates.x(), (0,))
    with pytest.raises(ShapeError, match="^initial state has 3 qubits, the program 2$"):
        circuit.CircuitProgram(2, [step], uniform_state(3))
    # a start reassigned after construction is refused where a run starts
    prog = circuit.CircuitProgram(2, [step])
    prog.initial_state = uniform_state(3)
    for run in (circuit.run_branch, circuit.run_sampled,
                lambda p: circuit.run_ensemble(p, trials=10)):
        with pytest.raises(ShapeError, match="^initial state has 3 qubits"):
            run(prog)


def test_a_start_that_is_not_a_unit_vector_is_refused():
    # one N1(0.5) step from StateVector(1, [3, 0]) used to report total_probability 8.6751
    step = circuit.parse("qubits 1\nN1(0.5) 0 c=0.9 q=opt k=1\n").steps[0]
    rng = np.random.default_rng(60)
    amps = rng.normal(size=1 << 11) + 1j * rng.normal(size=1 << 11)
    unit = amps / np.linalg.norm(amps)
    tol = gates.UNITARY_ATOL
    refused = [(1, [3.0, 0.0], "9.0"), (1, [1e200, 1e200], "inf"),
               (11, 0.3 * unit, "0.0899"), (11, np.sqrt(1 + 10 * tol) * unit, "1.00000001"),
               (11, np.sqrt(1 - 10 * tol) * unit, "0.99999998")]
    for n, amplitudes, shown in refused:
        with pytest.raises(CircuitError, match=f"^initial state has squared norm {shown}.*, not 1$"):
            circuit.CircuitProgram(n, [step], StateVector(n, amplitudes))
    # a start reassigned after construction is refused where a run starts
    prog = circuit.CircuitProgram(1, [step])
    prog.initial_state = StateVector(1, [3.0, 0.0])
    for run in (circuit.run_branch, circuit.run_sampled,
                lambda p: circuit.run_ensemble(p, trials=10)):
        with pytest.raises(CircuitError, match="^initial state has squared norm 9.0, not 1$"):
            run(prog)
    # within UNITARY_ATOL of 1, a start is accepted
    for scale in (1 + 0.5 * tol, 1 - 0.5 * tol):
        prog.initial_state = StateVector(1, [np.sqrt(scale), 0.0])
        assert circuit.run_branch(prog).total_probability == pytest.approx(0.9639, rel=1e-9)
    net = apps.parse_nand_netlist("inputs 2\nt = NAND in0 in1\noutputs t\n")
    with pytest.raises(CircuitError, match="^initial state has squared norm 2.0, not 1$"):
        apps.compile_nand(net, 1, c=0.8, input_state=StateVector(2, [1.0, 1.0, 0.0, 0.0]))
    prog, _ = apps.compile_nand(net, 1, c=0.8, input_state=StateVector(2, [0.6, 0.8, 0.0, 0.0]))
    assert circuit.run_branch(prog).outcome == "success"


def test_a_sampled_run_that_reversed_ends_in_the_branch_state():
    prog = _random_program(PERMUTATION_RUNS, 70)
    branch = circuit.run_branch(prog)
    reversed_runs = 0
    for seed in range(40):
        record = circuit.run_sampled(prog, seed=seed)
        if record.outcome == "success" and any(r.reversals for r in record.steps):
            reversed_runs += 1
            assert _same_bits(record.final_state, branch.final_state), seed
            assert record.total_probability == branch.total_probability
    assert reversed_runs >= 3


def test_no_runner_applies_a_failure_or_reversing_operator(monkeypatch):
    progs = [circuit.parse(NAND_REVERSAL), circuit.parse(MULTI_STEP)]
    forbidden = [op for prog in progs for step in prog.steps
                 for pair, policy in [prog.prepared(step)] if pair is not None
                 for op in (pair.m1,) + ((policy.r0, policy.r1) if policy else ())]
    applied = []
    for module in (circuit, measure):
        original = module.apply_embedded

        def spy(state, op, targets, out=None, original=original):
            applied.append(op)
            return original(state, op, targets, out=out)

        monkeypatch.setattr(module, "apply_embedded", spy)
    records = [circuit.run_sampled(prog, seed=seed) for prog in progs for seed in range(40)]
    for prog in progs:
        circuit.run_ensemble(prog, seed=1, trials=200)
    # the runs failed and reversed, where a state-vector sampler applies them
    assert {r.outcome for r in records} == {"success", "failure"}
    assert sum(s.reversals for r in records for s in r.steps) > 10
    assert applied
    assert not [op for op in applied for bad in forbidden
                if op is bad or (op.shape == bad.shape and np.array_equal(op, bad))]


def test_run_sampled_success_probability_is_branch_value():
    prog = circuit.parse(NAND_REVERSAL)
    # find a succeeding seed, then check the recorded probability
    for seed in range(50):
        record = circuit.run_sampled(prog, seed=seed)
        if record.outcome == "success":
            assert record.total_probability == pytest.approx(0.1968, abs=1e-12)
            return
    raise AssertionError("no succeeding seed among 50 (p = 0.1968)")


def test_ensemble_agrees_with_analytic():
    prog = circuit.parse(NAND_REVERSAL)
    stats = circuit.run_ensemble(prog, seed=3, trials=20000)
    p = stats.analytic_probability
    assert p == pytest.approx(0.1968, abs=1e-12)
    sigma = np.sqrt(p * (1.0 - p) / stats.trials)
    assert abs(stats.success_rate - p) < 4.0 * sigma


def test_ensemble_independent_of_jobs():
    for prog in (circuit.parse(NAND_REVERSAL), circuit.parse(MULTI_STEP)):
        a = circuit.run_ensemble(prog, seed=5, trials=600, jobs=1)
        b = circuit.run_ensemble(prog, seed=5, trials=600, jobs=3)
        assert a == b


def test_ensemble_clamps_jobs_to_usable_cores(monkeypatch):
    # The ensemble runs in-process, so any jobs count starts no process at all.
    import multiprocessing.process

    def no_process(*args, **kwargs):
        raise AssertionError("run_ensemble started a process")

    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    prog = circuit.parse(NAND_REVERSAL)
    stats = circuit.run_ensemble(prog, seed=5, trials=50, jobs=5000)
    assert stats == circuit.run_ensemble(prog, seed=5, trials=50, jobs=1)


def test_ensemble_counts_failures_by_step():
    prog = circuit.parse("qubits 2\ninit basis 3\ngate NAND 1 0 c=0.9\n")
    stats = circuit.run_ensemble(prog, seed=1, trials=500)
    assert stats.successes + stats.failures_by_step.get(0, 0) == 500


def test_ensemble_validation():
    prog = circuit.parse("qubits 1\n")
    with pytest.raises(CircuitError):
        circuit.run_ensemble(prog, trials=0)
    with pytest.raises(CircuitError):
        circuit.run_ensemble(prog, jobs=0)


def _record_doc(record):
    """The document ``write_record_json`` writes for ``record``, read back."""
    out = io.StringIO()
    circuit.write_record_json(record, out)
    return json.loads(out.getvalue())


def test_record_json_shape():
    record = circuit.run_branch(circuit.parse(NAND_REVERSAL))
    doc = _record_doc(record)
    assert doc["outcome"] == "success"
    assert doc["per_step"][0]["label"] == "NAND"
    assert doc["final_state"] == [{"index": 0, "re": 1.0, "im": 0.0}]
    assert "failed_step" not in doc


def test_record_json_failure_shape(tmp_path):
    state_file = tmp_path / "wrong.state"
    state_file.write_text("00 1.0 0.0\n01 -1.0 0.0\n", encoding="utf-8")
    prog = circuit.parse("qubits 2\ninit file wrong.state\ngate NAND 1 0\n",
                         base_dir=str(tmp_path))
    doc = _record_doc(circuit.run_branch(prog))
    assert doc["outcome"] == "failure"
    assert doc["failed_step"] == 0
    assert doc["final_state"] is None


def test_stats_json_round_trips_through_json():
    prog = circuit.parse(NAND_REVERSAL)
    stats = circuit.run_ensemble(prog, seed=2, trials=200)
    text = circuit.dumps_json(circuit.stats_to_json(stats))
    doc = json.loads(text)
    assert doc["trials"] == 200
    assert doc["successes"] == stats.successes


def test_dumps_json_is_stable():
    prog = circuit.parse(NAND_REVERSAL)
    a, b = io.StringIO(), io.StringIO()
    circuit.write_record_json(circuit.run_sampled(prog, seed=9), a)
    circuit.write_record_json(circuit.run_sampled(prog, seed=9), b)
    assert a.getvalue() == b.getvalue()


def test_parse_file_resolves_relative_paths(tmp_path):
    from nuqc.linops import write_matrix

    write_matrix(tmp_path / "op.mat", np.diag([1.0, 0.5]))
    circ = tmp_path / "prog.qc"
    circ.write_text("qubits 1\ngate MAT(op.mat) 0\n", encoding="utf-8")
    prog = circuit.parse_file(circ)
    assert prog.steps[0].gate.label == "MAT(op.mat)"


def test_final_state_dump_is_clean():
    record = circuit.run_branch(circuit.parse("qubits 2\ninit uniform\ngate NAND 1 0\n"))
    out = io.StringIO()
    dump_state(record.final_state, out=out)
    # plain floats only in the dump
    assert "np." not in out.getvalue()


DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos")


def _step_view(step):
    return (step.gate.label, step.targets, step.gate.matrix.tolist(), step.c, step.q,
            step.max_reversals)


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(DEMOS) if n.endswith(".qc")))
def test_format_program_round_trips_demos(name):
    prog = circuit.parse_file(os.path.join(DEMOS, name))
    text = circuit.format_program(prog)
    again = circuit.parse(text, base_dir=DEMOS)
    assert (again.n_qubits, again.init_label, again.scale, again.ancillas) == (
        prog.n_qubits, prog.init_label, prog.scale, prog.ancillas)
    assert np.array_equal(again.initial_state.amplitudes, prog.initial_state.amplitudes)
    assert [_step_view(s) for s in again.steps] == [_step_view(s) for s in prog.steps]
    assert circuit.format_program(again) == text


def test_a_shared_mat_step_is_named_at_each_position():
    step = circuit.CircuitStep(gates.from_matrix(np.diag([1.0, 0.5]), label="MAT(@)"), (0,))
    other = circuit.CircuitStep(gates.x(), (0,))
    prog = circuit.CircuitProgram(1, [step, other, step, other])
    named = []

    def namer(index, matrix):
        named.append((index, matrix.tolist()))
        return f"m{index}.mat"

    text = circuit.format_program(prog, namer)
    assert named == [(0, [[1.0, 0.0], [0.0, 0.5]]), (2, [[1.0, 0.0], [0.0, 0.5]])]
    assert text.splitlines()[1:] == ["gate MAT(m0.mat) 0", "gate X 0",
                                     "gate MAT(m2.mat) 0", "gate X 0"]


SYNTH_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                            "synth_golden")


@pytest.mark.parametrize("mode", ["bare", "ancilla"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_format_program_of_shared_steps_equals_per_step_formatting(n, mode):
    target = gates.normalize_gate(read_matrix(os.path.join(SYNTH_GOLDEN, f"m{n}.mat")))
    net = synth.synthesize(target, mode=mode)
    assert len({id(step) for step in net.steps}) < net.gate_count
    # one fresh object per position, so no formatted line can be reused
    unshared = circuit.CircuitProgram(
        net.n_qubits, [dataclasses.replace(step) for step in net.steps],
        scale=net.scale, ancillas=net.ancillas)

    def namer(index, matrix):
        return f"g{index}.mat"

    text = circuit.format_program(net, namer)
    assert text == circuit.format_program(unshared, namer)
    with open(os.path.join(SYNTH_GOLDEN, f"{mode}{n}.nl"), encoding="utf-8") as fh:
        assert text == fh.read().replace(f"{mode}{n}.nl.g", "g")


def test_parse_netlist_directives_and_bare_steps():
    prog = circuit.parse("qubits 3\nscale 2.5\nancillas 2\nN1(0.5) 1\ngate CNOT 0 2\n")
    assert prog.scale == 2.5
    assert prog.ancillas == (2,)
    assert [(s.gate.label, s.targets) for s in prog.steps] == [("N1(0.5)", (1,)),
                                                              ("CNOT", (0, 2))]
    assert prog.gate_count == 2
    assert circuit.parse(circuit.format_program(prog)).ancillas == (2,)


def test_format_program_rejects_unwritable_initial_state():
    prog = circuit.CircuitProgram(1, [], uniform_state(1), "oracle superposition")
    with pytest.raises(DomainError):
        circuit.format_program(prog)


def test_prepared_pairs_are_built_once_per_distinct_gate(monkeypatch):
    # more measured steps than any fixed-size cache would hold, all one gate
    calls = []
    original = measure.build_pair

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(measure, "build_pair", counting)
    prog = circuit.parse("qubits 1\n" + "gate N1(0.999) 0\n" * 300)
    circuit.run_branch(prog)
    circuit.run_branch(prog)
    assert len(calls) == 1


def test_prepared_pairs_are_keyed_by_gate_not_label():
    first = gates.normalize_gate(np.diag([1.0, 0.5]))
    second = gates.normalize_gate(np.diag([0.5, 1.0]))
    assert first.label == second.label
    prog = circuit.CircuitProgram(
        1, [circuit.CircuitStep(first, (0,)), circuit.CircuitStep(second, (0,))],
        initial_state=uniform_state(1),
    )
    record = circuit.run_branch(prog)
    # diag(0.5, 1) diag(1, 0.5) is 0.5 I, which leaves the direction unchanged
    assert np.allclose(record.final_state.amplitudes, uniform_state(1).amplitudes, atol=1e-12)
    assert record.total_probability == pytest.approx(0.25)


def test_parsed_synth_netlist_builds_one_pair_per_distinct_measured_gate(tmp_path,
                                                                         monkeypatch):
    rng = np.random.default_rng(4)
    path = tmp_path / "m4.mat"
    write_matrix(path, rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    out = tmp_path / "m4.nl"
    assert cli.main(["synth", str(path), "--out", str(out)]) == 0
    calls = []
    original = measure.build_pair

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(measure, "build_pair", counting)
    prog = circuit.parse_file(out)
    measured = {(s.gate.label, s.c, s.q, s.max_reversals) for s in prog.steps
                if not s.gate.is_unitary}
    assert prog.gate_count > 500 and len(measured) < prog.gate_count / 10
    circuit.run_branch(prog)
    assert len(calls) == len(measured)


def test_importing_the_cli_loads_no_process_pool():
    code = "import sys, nuqc.cli; print('concurrent.futures' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert done.stdout.strip() == "False"


def _count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` under every nuqc module name that holds it."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for holder in (qstate, measure, circuit, apps):
        if getattr(holder, name, None) is original:
            monkeypatch.setattr(holder, name, counting)
    return calls


def test_measured_step_applies_m0_once(monkeypatch):
    prog = circuit.parse_file(os.path.join(DEMOS, "interference.qc"))
    calls = _count_calls(monkeypatch, qstate, "apply_embedded")
    # one H step, one measured NAND: each is one kernel pass
    circuit.run_branch(prog)
    assert len(calls) == 2
    calls.clear()
    # a first-attempt success needs no further pass either
    record = circuit.run_sampled(prog, rng=SimpleNamespace(random=lambda size: np.zeros(size)))
    assert record.outcome == "success"
    assert len(calls) == 2


def _parity_programs():
    with open(os.path.join(DEMOS, "xor.nl"), encoding="utf-8") as fh:
        xor = apps.parse_nand_netlist(fh.read())
    return {
        "nand_reversal": circuit.parse_file(os.path.join(DEMOS, "nand_reversal.qc")),
        "interference": circuit.parse_file(os.path.join(DEMOS, "interference.qc")),
        "xor": apps.compile_nand(xor, m=2, c=0.8)[0],
        "multi_step": circuit.parse(MULTI_STEP),
    }


def _plan(prog):
    plan = []
    circuit._follow_branch(prog, plan)
    return plan


def _oracle(prog, rng):
    state, records = stepwise.sampled(prog, rng=rng)
    return None if state is not None else len(records) - 1, sum(r.reversals for r in records)


@pytest.mark.parametrize("name", ["nand_reversal", "interference", "xor", "multi_step"])
def test_fast_trials_match_the_state_vector_sampler(name):
    prog = _parity_programs()[name]
    plan = _plan(prog)
    outcomes = set()
    for seed in (0, 11):
        for t in range(5000):
            fast = stepwise.trial(plan, circuit.trial_rng(seed, t))
            assert fast == _oracle(prog, circuit.trial_rng(seed, t)), (seed, t)
            outcomes.add(fast[0])
    # the trials reach both outcomes, so the comparison covers each
    assert None in outcomes and len(outcomes) > 1


def test_every_sampled_draw_is_one_trial_of_draw_trials(monkeypatch):
    # measure holds one protocol draw, and a sampled run draws every measured step with it
    assert not hasattr(measure, "draw")
    # it fails at each measured step, and succeeds, within the seeds below
    prog = circuit.parse(
        "qubits 2\ninit uniform\n"
        "gate N1(0.5) 0 c=0.9 q=opt k=2\ngate CNOT 0 1\ngate N1(0.7) 1 c=0.8 q=opt k=1\n"
        "gate H 0\ngate NAND 1 0 c=0.9 q=0.3 k=2\n")
    measured = [i for i, step in enumerate(prog.steps) if prog.prepared(step)[0] is not None]
    original = measure.draw_trials
    calls, inside = [], []

    def spy(plan, streams, n):
        calls.append(([i for i, _ in plan], n))
        inside.append(True)
        try:
            return original(plan, streams, n)
        finally:
            inside.pop()

    monkeypatch.setattr(measure, "draw_trials", spy)
    ended = set()
    for seed in range(40):
        rng = circuit.trial_rng(seed, 0)

        def random(size):
            assert inside, "a draw outside measure.draw_trials"
            return rng.random(size)

        calls.clear()
        record = circuit.run_sampled(prog, rng=SimpleNamespace(random=random))
        reached = [i for i in measured if record.failed_step is None or i <= record.failed_step]
        assert calls == [([i], 1) for i in reached], seed
        # as many uniforms as the state-vector sampler draws, so its draws too
        oracle = circuit.trial_rng(seed, 0)
        assert _oracle(prog, oracle) == (record.failed_step,
                                         sum(r.reversals for r in record.steps)), seed
        assert oracle.states.tolist() == rng.states.tolist(), seed
        ended.add(record.failed_step)
    assert ended == {None, *measured}


def test_the_reference_splitmix64_gives_the_published_outputs():
    zero, other = stepwise.SplitMix64(0), stepwise.SplitMix64(1234567)
    assert [zero.next() for _ in range(3)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                               0x06C45D188009454F]
    assert [other.next() for _ in range(3)] == [6457827717110365317, 3203168211198807973,
                                                9817491932198370423]


STREAM_INDICES = [0, 1, 2, 2**32 - 1, 2**32, 2**32 + 7, 2**64 - 1]


@pytest.mark.parametrize("seed", [0, 11, 2**32 + 5, 2**64 + 1])
def test_trial_streams_draw_what_trial_rng_draws(seed):
    # bit for bit the pure-Python reference's draws; the uint64 arithmetic
    # wraps without an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        streams = circuit._TrialStreams(seed, np.array(STREAM_INDICES, dtype=np.uint64))
        refs = [stepwise.trial_stream(seed, t) for t in STREAM_INDICES]
        every = np.arange(len(STREAM_INDICES))
        # streams advance only when drawn from
        for rows in (every, every, [1, 4], every, [4], [0, 6], every):
            got = streams.draw(np.array(rows))
            assert got.tolist() == [refs[r].random() for r in rows], (seed, rows)
        for t in STREAM_INDICES:
            rng, ref = circuit.trial_rng(seed, t), stepwise.trial_stream(seed, t)
            drawn = [rng.random(), *rng.random(3).tolist(), *rng.random(0).tolist(), rng.random()]
            assert drawn == [ref.random() for _ in range(5)], (seed, t)


EDGE_SEEDS = [2**64 - 1, 2**64, 2**64 + 1]


def test_seeds_at_the_64_bit_edge_run_and_give_distinct_streams():
    firsts = {tuple(circuit.trial_rng(seed, 0).random(4).tolist()) for seed in EDGE_SEEDS}
    assert len(firsts) == len(EDGE_SEEDS)
    prog = circuit.parse(NAND_REVERSAL)
    for seed in EDGE_SEEDS:
        assert circuit.run_sampled(prog, seed=seed).outcome in ("success", "failure")
        assert circuit.run_ensemble(prog, seed=seed, trials=50).trials == 50


def test_distinct_seeds_below_2_64_get_distinct_keys():
    seeds = [*range(4096), *(2**k + d for k in (32, 63) for d in (-1, 0, 1)), 2**64 - 1]
    # a one-word seed's key is the first SplitMix64 output from it, which is one to one
    for seed in seeds[::101]:
        assert stepwise.seed_key(seed) == stepwise.SplitMix64(seed).next()
    # trial 0's state is mix64(key + gamma), one to one in the key
    first = np.zeros(1, dtype=np.uint64)
    states = [int(circuit._TrialStreams(seed, first).states[0]) for seed in seeds]
    assert len(set(states)) == len(seeds)


class _RawWeyl(circuit._TrialStreams):
    """The same streams with ``mix64`` left out of each draw: a raw Weyl counter."""

    def draw(self, rows):
        states = self.states[rows] + circuit._GAMMA
        self.states[rows] = states
        return (states >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _pair_chi_square(streams, trials, draws):
    """Chi-square of each trial's consecutive-draw pairs over 16 x 16 bins."""
    rows = np.arange(trials)
    bins = np.stack([np.floor(streams.draw(rows) * 16) for _ in range(draws)], axis=1)
    counts = np.bincount((bins[:, 0::2] * 16 + bins[:, 1::2]).astype(np.intp).ravel(),
                         minlength=256)
    expected = trials * draws / 2 / 256
    return float(((counts - expected) ** 2 / expected).sum())


# the chi-square with 255 degrees of freedom exceeds this with probability 1e-6
CHI_SQUARE_255_AT_1E_6 = 377.08


def test_consecutive_draws_pass_a_pair_chi_square():
    # 2^20 draws from 1,024 trial streams
    indices = np.arange(1024, dtype=np.uint64)
    assert _pair_chi_square(circuit._TrialStreams(1, indices), 1024, 1024) < CHI_SQUARE_255_AT_1E_6
    # the statistic can fail: the raw Weyl counter's pairs lie on a few lines
    assert _pair_chi_square(_RawWeyl(1, indices), 1024, 1024) > 100 * CHI_SQUARE_255_AT_1E_6


def _sequential(prog, seed, trials):
    plan = _plan(prog)
    successes, reversals, failures = 0, 0, {}
    for t in range(trials):
        failed, used = stepwise.trial(plan, circuit.trial_rng(seed, t))
        reversals += used
        if failed is None:
            successes += 1
        else:
            failures[failed] = failures.get(failed, 0) + 1
    return successes, reversals / trials, dict(sorted(failures.items()))


@pytest.mark.parametrize("name", ["nand_reversal", "interference", "xor", "multi_step"])
def test_ensemble_matches_the_trial_by_trial_loop(name, monkeypatch):
    prog = _parity_programs()[name]
    stats = circuit.run_ensemble(prog, seed=11, trials=700)
    expected = _sequential(prog, 11, 700)
    assert (stats.successes, stats.mean_reversals, stats.failures_by_step) == expected
    # chunk boundaries change nothing, however the trials are cut
    monkeypatch.setattr(circuit, "_CHUNK", 7)
    assert circuit.run_ensemble(prog, seed=11, trials=700) == stats


def _scripted(draws):
    """Stand-in rng serving ``draws`` in order, then 0.5 for ever; ``random(size)`` as numpy's."""
    source = itertools.chain(draws, itertools.repeat(0.5))

    def random(size=None):
        return next(source) if size is None else np.fromiter(source, float, count=size)

    return SimpleNamespace(random=random)


def _one_step(gate, state, c, q=None, k=0):
    step = circuit.CircuitStep(gate, (0,), c=c, q=q, max_reversals=k)
    return circuit.CircuitProgram(1, [step], StateVector(1, state / np.linalg.norm(state)))


def _fast(prog, rng):
    return stepwise.trial(_plan(prog), rng)


def _drawn(prog, rng):
    record = circuit.run_sampled(prog, rng=rng)
    return record.failed_step, sum(r.reversals for r in record.steps)


def _or_degenerate(run, prog, draws):
    try:
        return run(prog, _scripted(draws))
    except DegenerateBranchError:
        return "degenerate"


ALMOST_ONE = 1.0 - 2.0 ** -53

DEGENERATE_CASES = {
    # |M0 psi|^2 = 0.25e-14: drawing success lands on a negligible branch
    "success": (_one_step(gates.n1(1e-7), np.array([0.0, 1.0]), c=0.5), [0.0]),
    # M1 = diag(0, 1) leaves the failure branch 1e-14 of the mass
    "failure": (_one_step(gates.n1(0.0), np.array([1.0, 1e-7]), c=1.0), [ALMOST_ONE]),
    # q = 1e-7 leaves the reversal q^2 / |M1 psi|^2 ~ 1e-14 to restore
    "reversal success": (_one_step(gates.n1(0.5), np.array([0.0, 1.0]), c=0.6, q=1e-7, k=1),
                         [0.99, 0.0]),
    # q just below its optimum 0.8 leaves |R1 psi'|^2 = 1e-14 on |0>
    "reversal failure": (_one_step(gates.n1(0.5), np.array([1.0, 0.0]), c=0.6,
                                   q=0.8 * np.sqrt(1.0 - 1e-14), k=1),
                         [0.99, ALMOST_ONE]),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_CASES))
def test_degenerate_branches_raise_exactly_when_the_sampler_does(case):
    prog, draws = DEGENERATE_CASES[case]
    assert _or_degenerate(_oracle, prog, draws) == "degenerate"
    assert _or_degenerate(_fast, prog, draws) == "degenerate"
    assert _or_degenerate(_drawn, prog, draws) == "degenerate"
    # the other draws at each decision stay clear of the negligible branch
    for other in ([0.0], [0.5], [ALMOST_ONE], [0.99, 0.0, 0.0], [0.99, 0.5, 0.5],
                  [0.99, ALMOST_ONE], [0.99, 0.0, 0.99, 0.0, 0.0]):
        want = _or_degenerate(_oracle, prog, other)
        assert _or_degenerate(_fast, prog, other) == want, other
        assert _or_degenerate(_drawn, prog, other) == want, other


def test_annihilated_branch_ends_every_trial_like_the_sampler():
    # step 2 projects |1> away entirely, so no trial gets past it
    prog = circuit.parse(
        "qubits 1\n"
        "gate N1(0.5) 0 c=0.8 q=opt k=1\n"
        "gate X 0\n"
        "gate N1(0) 0 c=0.6 q=opt k=2\n"
        "gate N1(0.5) 0 c=0.9\n"
    )
    assert circuit.run_branch(prog).failed_step == 2
    stats = circuit.run_ensemble(prog, seed=2, trials=2000)
    expected = {}
    reversals = 0
    for t in range(2000):
        failed, used = _oracle(prog, circuit.trial_rng(2, t))
        expected[failed] = expected.get(failed, 0) + 1
        reversals += used
    assert stats.successes == 0 and None not in expected
    assert stats.failures_by_step == dict(sorted(expected.items()))
    assert set(expected) == {0, 2}
    assert stats.mean_reversals == reversals / 2000


def test_ensemble_kernel_work_does_not_grow_with_trials(monkeypatch):
    prog = circuit.parse(MULTI_STEP)
    applies = _count_calls(monkeypatch, qstate, "apply_embedded")
    rngs = _count_calls(monkeypatch, circuit, "trial_rng")
    counts = []
    for trials in (10, 1000):
        applies.clear()
        circuit.run_ensemble(prog, seed=4, trials=trials)
        counts.append(len(applies))
    assert counts[0] == counts[1] > 0
    assert rngs == []


class _ScriptedStreams:
    """Stand-in for ``circuit._TrialStreams``: trial ``t`` draws ``_scripted(scripts[t])``."""

    def __init__(self, scripts, indices):
        self.sources = [_scripted(scripts.get(int(t), [])) for t in indices]

    def draw(self, rows):
        return np.array([self.sources[r].random() for r in rows])


# step 0 passes at 0.0 and fails for good at 0.5, and its reversal lands on
# a restore mass ~1e-14 at [0.99, 0.0]; step 2 fails onto a failure mass
# ~1e-14 at ALMOST_ONE
TWO_DEGENERACIES = """
qubits 1
init basis 1
gate N1(0.5) 0 c=0.6 q=1e-7 k=1
gate X 0
gate N1(0.5) 0 c=0.999999999999995
"""


@pytest.mark.parametrize("scripts", [
    # trial 3 raises at step 2, trial 5 (same chunk) already at step 0
    {3: [0.0, ALMOST_ONE], 5: [0.99, 0.0]},
    # trial 10 raises at step 0 in the second chunk
    {3: [0.0, ALMOST_ONE], 10: [0.99, 0.0]},
    {10: [0.99, 0.0], 12: [0.0, ALMOST_ONE]},
    {12: [0.0, ALMOST_ONE], 13: [0.99, 0.0]},
])
def test_degenerate_error_is_the_lowest_raising_trials_first(scripts, monkeypatch):
    prog = circuit.parse(TWO_DEGENERACIES)
    plan = _plan(prog)
    expected = None
    for t in range(20):
        try:
            stepwise.trial(plan, _scripted(scripts.get(t, [])))
        except DegenerateBranchError as exc:
            expected = str(exc)
            break
    assert expected is not None
    monkeypatch.setattr(circuit, "_TrialStreams",
                        lambda seed, indices: _ScriptedStreams(scripts, indices))
    monkeypatch.setattr(circuit, "_CHUNK", 7)
    with pytest.raises(DegenerateBranchError) as raised:
        circuit.run_ensemble(prog, seed=0, trials=20)
    assert str(raised.value) == expected


# Permutation runs that do not commute (X 0 then CNOT 0 12; CNOT 3 7 then
# CNOT 7 3 then CKX), split by a measured step, by Z (U1(1), monomial but not
# a permutation) and by a dense step, on a register of 2^13 amplitudes,
# where the runners compose them.
PERMUTATION_RUNS = """
qubits 13
gate X 0
gate CNOT 0 12
gate N1(0.7) 5 c=0.9 q=opt k=2
gate CNOT 3 7
gate CNOT 7 3
gate CKX(2) 7 3 11
gate U1(1) 3
gate H 2
gate CNOT 2 9
gate X 9
"""


def _random_program(text, seed):
    """``text`` parsed, from a random normalized state instead of its own."""
    prog = circuit.parse(text)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << prog.n_qubits) + 1j * rng.normal(size=1 << prog.n_qubits)
    return circuit.CircuitProgram(prog.n_qubits, prog.steps,
                                  qstate.normalize(StateVector(prog.n_qubits, amps)))


def _kernel_targets(monkeypatch):
    """The targets of every ``apply_embedded`` call the runners make."""
    calls = []
    original = circuit.apply_embedded

    def recording(state, op, targets, out=None):
        calls.append(tuple(targets))
        return original(state, op, targets, out=out)

    monkeypatch.setattr(circuit, "apply_embedded", recording)
    return calls


def _same_bits(a, b):
    return np.array_equal(a.amplitudes.view(np.uint64), b.amplitudes.view(np.uint64))


def _same_draws(steps, oracle_steps):
    """Equal step records, but each ``p`` only within 1e-15 relative."""
    return len(steps) == len(oracle_steps) and all(
        (a.label, a.targets, a.reversals) == (b.label, b.targets, b.reversals)
        and a.probability == pytest.approx(b.probability, rel=1e-15, abs=0.0)
        for a, b in zip(steps, oracle_steps))


def test_composed_permutation_runs_equal_the_stepwise_oracle(monkeypatch):
    prog = _random_program(PERMUTATION_RUNS, 70)
    calls = _kernel_targets(monkeypatch)
    record = circuit.run_branch(prog)
    state, records = stepwise.branch(prog)
    assert record.outcome == "success" and record.steps == records
    assert _same_bits(record.final_state, state)
    # X+CNOT, N1, CNOT+CNOT+CKX, Z, H, CNOT+X: six kernel calls for ten steps
    assert calls == [(0, 12), (5,), (3, 7, 11), (3,), (2,), (2, 9)]
    assert record.total_probability == math.prod(r.probability for r in records)
    # mc's branch pass keeps the measured step's own position
    assert [i for i, _ in _plan(prog)] == [2]
    branch_state = state
    for seed in range(6):
        calls.clear()
        record = circuit.run_sampled(prog, seed=seed)
        state, records = stepwise.sampled(prog, seed)
        # after a reversal the oracle's restored state, and with it a later p,
        # can differ from the branch's in the last bit
        assert _same_draws(record.steps, records)
        assert record.outcome == ("success" if state is not None else "failure")
        if state is not None:
            assert _same_bits(record.final_state, branch_state)
            assert calls[:1] == [(0, 12)] and (3, 7, 11) in calls


def test_a_composed_run_differs_from_its_reversed_order():
    # the oracle test above can fail: composing a run in the wrong order gives other bits
    prog = _random_program(PERMUTATION_RUNS, 71)
    reversed_runs = circuit.CircuitProgram(
        prog.n_qubits, [prog.steps[i] for i in (1, 0, 2, 5, 4, 3, 6, 7, 9, 8)], prog.initial_state)
    assert not _same_bits(stepwise.branch(prog)[0], stepwise.branch(reversed_runs)[0])


def test_the_stepwise_branch_ends_at_an_annihilated_step_as_run_branch_does():
    prog = circuit.parse("qubits 1\ninit basis 1\nN1(0.0) 0 c=0.5\n")
    record = circuit.run_branch(prog)
    state, records = stepwise.branch(prog)
    assert (record.outcome, record.failed_step, record.final_state, state) == (
        "failure", 0, None, None)
    assert records == record.steps == [circuit.StepRecord("N1(0.0)", (0,), 0.0, 0)]


def test_runs_split_at_the_block_width_and_target_bounds(monkeypatch):
    sizes = []
    cached = qstate._monomial_block

    def recording(*args):
        tables = cached(*args)
        sizes.extend(t.size for t in tables if t is not None)
        return tables

    monkeypatch.setattr(qstate, "_monomial_block", recording)
    calls = _kernel_targets(monkeypatch)
    # CNOT 15 12 with CNOT 1 6 would gather a block of bits 1..15, one bit too wide
    text = ("qubits 16\ngate CNOT 15 12\ngate CNOT 1 6\ngate CNOT 6 1\n"
            + "".join(f"gate X {q}\n" for q in range(7)))
    prog = _random_program(text, 72)
    record = circuit.run_branch(prog)
    # CNOT 1 6, CNOT 6 1 and X 0 to X 4 span six qubits; X 5 would be a seventh
    assert calls == [(15, 12), (1, 6, 0, 2, 3, 4), (5, 6)]
    assert _same_bits(record.final_state, stepwise.branch(prog)[0])
    assert sizes and max(sizes) <= 1 << qstate.MONOMIAL_BLOCK_BITS == 1 << 14


def test_no_run_is_composed_below_the_copy_free_size(monkeypatch):
    calls = _kernel_targets(monkeypatch)
    wide = qstate.COPY_FREE_MIN_SIZE.bit_length() - 1
    for n in (wide - 1, wide):
        calls.clear()
        prog = _random_program(f"qubits {n}\ngate CNOT 0 1\ngate CNOT 1 0\ngate X 2\n", 73)
        record = circuit.run_branch(prog)
        assert len(record.steps) == 3
        assert _same_bits(record.final_state, stepwise.branch(prog)[0])
        assert calls == ([(0, 1), (1, 0), (2,)] if n < wide else [(0, 1, 2)])


def test_a_change_to_the_steps_between_runs_is_honoured():
    prog = _random_program(PERMUTATION_RUNS, 74)
    first = circuit.run_branch(prog).final_state
    prog.steps[1] = circuit.CircuitStep(gates.cnot(), (12, 0))
    del prog.steps[4]
    prog.steps.append(circuit.CircuitStep(gates.x(), (4,)))
    for record, (state, records) in ((circuit.run_branch(prog), stepwise.branch(prog)),
                                     (circuit.run_sampled(prog, seed=3),
                                      stepwise.sampled(prog, 3))):
        assert record.steps == records
        assert _same_bits(record.final_state, state)
    assert not _same_bits(first, state)
