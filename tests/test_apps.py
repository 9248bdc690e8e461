import itertools
import math
import os

import numpy as np
import pytest

from nuqc import apps, circuit, cli, gates
from nuqc.errors import (
    CircuitParseError,
    DomainError,
    NetlistError,
    ShapeError,
    UnsupportedInstanceError,
)
from nuqc.qstate import StateVector, basis_state, norm_sq

import stepwise

XOR_NETLIST = """
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

NOT_NETLIST = """
inputs 1
w1 w2 = COPY in0
v = NAND w1 w2
outputs v
"""


def run_quantum(netlist, m, bits, c=0.6):
    prog, wires = apps.compile_nand(netlist, m, c=c, input_bits=list(bits))
    record = circuit.run_branch(prog)
    outs = {w: apps.qubit_bit(record.final_state, wires[w]) for w in netlist.outputs}
    return record, outs


def test_parse_counts():
    net = apps.parse_nand_netlist(XOR_NETLIST)
    assert net.n_inputs == 2
    assert net.nand_count == 4
    assert sum(node.kind == "copy" for node in net.nodes) == 3
    assert net.outputs == ("s",)
    assert list(apps.evaluate_netlist(net, [0, 0]))[:2] == ["in0", "in1"]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("w = NAND in0 in1\n", "inputs"),
        ("inputs 2\noutputs in0\nw = NAND in0 in1\n", "outputs"),
        ("inputs 2\nw = NAND in0 nope\noutputs w\n", "undefined"),
        ("inputs 1\nw = NAND in0 in0\noutputs w\n", "distinct"),
        ("inputs 2\nw = NAND in0 in1\nv = NAND w in0\noutputs v\n", "consumed"),
        ("inputs 2\nw = NAND in0 in1\nw x = COPY w\noutputs w x\n", "already defined"),
        ("inputs 2\nw v = COPY in0 in1\noutputs w v\n", "COPY"),
        ("inputs 2\nw = NAND in0 in1\noutputs w in1\n", "not live"),
        ("inputs 2\nw = NAND in0 in1\noutputs w\nextra = NAND w w\n", "outputs"),
        ("inputs 2\nw = FROB in0 in1\noutputs w\n", "FROB"),
        ("inputs 2\n9w = NAND in0 in1\noutputs 9w\n", "line 2: bad wire name '9w'"),
        ("inputs 2\ninputs 2\n", "line 2: duplicate inputs line"),
        ("inputs 2 3\n", "line 1: expected 'inputs <k>'"),
        ("inputs two\n", "line 1: bad input count 'two'"),
        ("inputs 0\n", "line 1: need at least one input wire"),
        ("# no declarations\n", "missing inputs line"),
        ("inputs 1\noutputs\n", "line 2: outputs line names no wires"),
        ("inputs 2\nw = NAND in0 in1\n", "missing outputs line"),
        ("inputs 2\nw = NAND in0 in1\nv x = COPY w\n", "missing outputs line"),
        ("inputs 2\nw NAND in0 in1\noutputs w\n", "line 2: unrecognized line 'w NAND in0 in1'"),
        ("inputs 2\nw =\noutputs w\n", "line 2: missing node kind after '='"),
        ("inputs 2\nw = NAND in0\noutputs w\n", "line 2: NAND form is 'w = NAND a b'"),
        ("inputs 1\nw w = COPY in0\noutputs w\n", "line 2: COPY outputs must be distinct"),
    ],
)
def test_parse_rejects_malformed(text, fragment, tmp_path, capsys):
    with pytest.raises(CircuitParseError) as err:
        apps.parse_nand_netlist(text)
    assert fragment in str(err.value)
    # the CLI reports the same error on one stderr line and exits 1
    path = tmp_path / "bad.nl"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["demo-nand", "--netlist", str(path), "--m", "0"]) == 1
    assert capsys.readouterr() == ("", f"error: {err.value}\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("# no declarations\n", "missing inputs line"),
        ("inputs 2\nw = NAND in0 in1\n", "missing outputs line"),
        ("inputs 2\nw = NAND in0 in1\nv x = COPY w\n", "missing outputs line"),
    ],
)
def test_missing_declarations_name_no_line(text, message):
    # the error is about the end of the file, not about any line of it
    with pytest.raises(CircuitParseError) as err:
        apps.parse_nand_netlist(text)
    assert str(err.value) == message
    assert err.value.line is None


def test_parse_allows_dangling_wires():
    # a wire need not be consumed; it must only never be consumed twice
    net = apps.parse_nand_netlist(
        "inputs 2\nw1 w2 = COPY in0\nv = NAND w1 w2\noutputs v\n"
    )
    assert net.n_inputs == 2
    assert net.outputs == ("v",)


def test_evaluate_netlist_xor():
    net = apps.parse_nand_netlist(XOR_NETLIST)
    for a, b in itertools.product((0, 1), repeat=2):
        values = apps.evaluate_netlist(net, [a, b])
        assert values["s"] == a ^ b


def test_evaluate_netlist_not():
    net = apps.parse_nand_netlist(NOT_NETLIST)
    assert apps.evaluate_netlist(net, [0])["v"] == 1
    assert apps.evaluate_netlist(net, [1])["v"] == 0


def test_evaluate_rejects_wrong_width():
    net = apps.parse_nand_netlist(NOT_NETLIST)
    with pytest.raises(NetlistError):
        apps.evaluate_netlist(net, [0, 1])


def test_compile_rejects_conflicting_or_misfit_inputs():
    net = apps.parse_nand_netlist(XOR_NETLIST)
    with pytest.raises(NetlistError, match=r"^give input_bits or input_state, not both$"):
        apps.compile_nand(net, 0, input_bits=[1, 1], input_state=basis_state(2, 3))
    with pytest.raises(NetlistError, match=r"^input_state spans 3 qubits, netlist has 2 inputs$"):
        apps.compile_nand(net, 0, input_state=basis_state(3, 0))
    with pytest.raises(NetlistError, match=r"^expected 2 input bits, got 3$"):
        apps.compile_nand(net, 0, input_bits=[1, 0, 1])


def test_split_bounds():
    net = apps.parse_nand_netlist(XOR_NETLIST)
    with pytest.raises(NetlistError):
        apps.compile_nand(net, 5)
    with pytest.raises(NetlistError):
        apps.compile_nand(net, -1)


def test_qubit_savings():
    net = apps.parse_nand_netlist(XOR_NETLIST)
    # 2 inputs + 3 copies = 5 wires before any NAND; each irreversible NAND
    # adds one qubit, each measured NAND adds none
    for m in range(5):
        prog, _ = apps.compile_nand(net, m)
        assert prog.n_qubits == 9 - m
        assert [step.gate.label for step in prog.steps].count("NAND") == m
        assert prog.n_qubits + m == 9


def test_layout_counts():
    net = apps.parse_nand_netlist(XOR_NETLIST)
    prog, wires = apps.compile_nand(net, 2)
    labels = [step.gate.label for step in prog.steps]
    assert labels.count("NAND") == 2
    assert labels.count("CKX(2)") == 2
    assert labels.count("CNOT") == 3
    assert prog.n_qubits == 7
    assert {wires[w] for w in net.outputs} == {wires["s"]}


def _count_gates_made(monkeypatch) -> list[str]:
    made = []
    make = gates._make

    def spy(label, *args, **kwargs):
        made.append(label)
        return make(label, *args, **kwargs)

    monkeypatch.setattr(gates, "_make", spy)
    return made


def test_demo_nand_makes_one_gate_per_kind(monkeypatch, capsys):
    made = _count_gates_made(monkeypatch)
    xor = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos", "xor.nl")
    argv = ["demo-nand", "--netlist", xor, "--m", "2", "--c", "0.8"]
    assert cli.main(argv) == 0
    assert "outputs: s=0" in capsys.readouterr().out
    # 9 steps of four kinds
    assert sorted(made) == ["CKX(2)", "CNOT", "NAND", "X"]


def test_compiled_steps_share_one_gate_per_kind(monkeypatch):
    net = apps.parse_nand_netlist(XOR_NETLIST)
    made = _count_gates_made(monkeypatch)
    prog, _ = apps.compile_nand(net, 2, c=0.8)
    assert prog.n_qubits == 7
    by_label = {}
    for step in prog.steps:
        assert by_label.setdefault(step.gate.label, step.gate) is step.gate
        assert step.c == (0.8 if step.gate.label == "NAND" else 1.0)
    assert len(made) == len(by_label) == 4


@pytest.mark.parametrize("m", [0, 2, 4])
def test_quantum_route_matches_classical(m):
    net = apps.parse_nand_netlist(XOR_NETLIST)
    for bits in itertools.product((0, 1), repeat=2):
        want = apps.evaluate_netlist(net, list(bits))
        record, outs = run_quantum(net, m, bits)
        assert record.outcome == "success"
        for w in net.outputs:
            assert outs[w] == want[w], (m, bits, w)


def test_quantum_route_probability():
    net = apps.parse_nand_netlist(XOR_NETLIST)
    c = 0.6
    for m in range(5):
        record, _ = run_quantum(net, m, (1, 1), c=c)
        # measured NANDs on classical inputs each succeed with c^2/3
        assert record.total_probability == pytest.approx((c * c / 3.0) ** m, rel=1e-10)


def test_not_gate_via_copy():
    net = apps.parse_nand_netlist(NOT_NETLIST)
    for bit in (0, 1):
        record, outs = run_quantum(net, 1, (bit,))
        assert outs["v"] == 1 - bit


def test_compile_defaults_to_all_ones():
    net = apps.parse_nand_netlist(NOT_NETLIST)
    prog, wires = apps.compile_nand(net, 0)
    record = circuit.run_branch(prog)
    assert apps.qubit_bit(record.final_state, wires["v"]) == 0


def test_compile_accepts_input_state():
    from nuqc.qstate import basis_state

    net = apps.parse_nand_netlist(NOT_NETLIST)
    bit_prog, _ = apps.compile_nand(net, 1, c=0.7, input_bits=[1])
    state_prog, _ = apps.compile_nand(net, 1, c=0.7, input_state=basis_state(1, 1))
    a = circuit.run_branch(bit_prog)
    b = circuit.run_branch(state_prog)
    assert a.total_probability == pytest.approx(b.total_probability, rel=1e-12)
    assert np.allclose(a.final_state.amplitudes, b.final_state.amplitudes, atol=1e-12)


def test_truth_table_parse():
    oracle = apps.parse_truth_table("0010")
    assert oracle.n == 2
    assert oracle.satisfying_count == 1
    assert oracle.table == (0, 0, 1, 0)


def test_truth_table_parse_errors():
    with pytest.raises(ShapeError):
        apps.parse_truth_table("001")  # not a power of two
    with pytest.raises(ShapeError):
        apps.parse_truth_table("00x0")
    with pytest.raises(ShapeError):
        apps.parse_truth_table("0010", n=3)


@pytest.mark.parametrize("text", ["00x0", "0120", "01 0", "0/10", "01\u00e90", "0:10", "2"])
def test_truth_table_rejects_non_bit_characters(text):
    with pytest.raises(ShapeError, match="must be a bit string"):
        apps.parse_truth_table(text)


def test_a_truth_table_error_names_the_first_bad_character_not_the_table():
    with pytest.raises(ShapeError) as err:
        apps.parse_truth_table("0" * 262143 + "x")
    assert str(err.value) == "truth table must be a bit string, got 'x' at index 262143"
    assert len(str(err.value)) < 80
    # the first bad character may take several bytes of the encoded text
    with pytest.raises(ShapeError, match="got '\u00e9' at index 2$"):
        apps.parse_truth_table("01\u00e9\u00e90")


@pytest.mark.parametrize("text", ["", "   ", "0", "011", "01010"])
def test_truth_table_rejects_lengths_that_are_not_powers_of_two(text):
    if text.strip() == "0":  # one row is 2^0, but n = 0 is no register
        with pytest.raises(ShapeError, match="n must be >= 1"):
            apps.parse_truth_table(text)
        return
    with pytest.raises(ShapeError, match="is not a power of two"):
        apps.parse_truth_table(text)


def test_truth_table_parse_matches_the_per_character_loop():
    rng = np.random.default_rng(7)
    for n in (1, 3, 10):
        text = "".join(rng.choice(["0", "1"], size=1 << n))
        oracle = apps.parse_truth_table(f"  {text}\n")
        assert oracle.table == tuple(int(b) for b in text)
        assert all(type(b) is int for b in oracle.table)
        assert oracle.satisfying_count == text.count("1")
        # the parser keeps its array, which must be what building from the table keeps
        built = apps.TruthTableOracle(oracle.n, oracle.table)
        assert built == oracle and built.bits.dtype == oracle.bits.dtype
        assert np.array_equal(built.bits, oracle.bits)


def test_a_truth_table_keeps_one_read_only_copy_of_its_bits():
    values = np.array([0, 1, 0, 0], dtype=np.uint8)
    oracle = apps.TruthTableOracle(2, values)
    values[0] = 1  # the caller's array is not the oracle's
    assert oracle.table == (0, 1, 0, 0) and oracle.bits.dtype == np.intp
    with pytest.raises(ValueError):
        oracle.bits[0] = 1


def test_truth_table_oracle_checks_its_length():
    with pytest.raises(ShapeError, match=r"^table length 2 does not match n=2$"):
        apps.TruthTableOracle(2, (0, 1))


def test_truth_table_oracle_checks_its_entries():
    assert apps.TruthTableOracle(1, (True, False)).satisfying_count == 1
    assert apps.TruthTableOracle(1, (0.0, 1.0)).satisfying_count == 1
    for table in ((0, 2), (0, -1), (0.5, 1), ("0", "1"), (None, 1)):
        with pytest.raises(ShapeError, match="must be bits"):
            apps.TruthTableOracle(1, table)


def test_search_program_shape():
    oracle = apps.parse_truth_table("00100000")
    prog = apps.search_program(oracle)
    assert prog.n_qubits == 4
    assert len(prog.steps) == 3
    assert all(step.gate.label == "AL" for step in prog.steps)
    # every step pairs one data qubit with the shared flag qubit 0
    assert [step.targets for step in prog.steps] == [(1, 0), (2, 0), (3, 0)]


def _loop_search_amplitudes(oracle):
    amps = np.zeros(1 << (oracle.n + 1), dtype=np.complex128)
    weight = 1.0 / math.sqrt(1 << oracle.n)
    for x in range(1 << oracle.n):
        amps[(x << 1) | oracle.table[x]] = weight
    return amps


def _loop_flag_amplitudes(n_qubits, s):
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    weight = 1.0 / math.sqrt(1 << (n_qubits - 1))
    for x in range(1 << (n_qubits - 1)):
        amps[(x << 1) | s] = weight
    return amps


@pytest.mark.parametrize("n", [1, 3, 12])
def test_search_amplitudes_equal_the_per_index_loop(n, monkeypatch):
    table = np.random.default_rng(n).integers(0, 2, 1 << n).tolist()
    oracle = apps.TruthTableOracle(n, tuple(table))
    amps = apps.search_program(oracle).initial_state.amplitudes
    # a real start: float64 from 2^10 amplitudes on
    assert amps.dtype == (np.float64 if n + 1 >= 10 else np.complex128)
    assert amps.astype(complex).tobytes() == _loop_search_amplitudes(oracle).tobytes()
    seen = []
    monkeypatch.setattr(stepwise, "fidelity", lambda a, b: seen.append(b.amplitudes) or 0.0)
    for s in (0, 1):
        stepwise.flag_basis_fidelity(StateVector(n + 1, amps), s)
        assert seen.pop().tobytes() == _loop_flag_amplitudes(n + 1, s).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_search_finds_unique_satisfier(n):
    rng = np.random.default_rng(n)
    s_index = int(rng.integers(1 << n))
    table = [0] * (1 << n)
    table[s_index] = 1
    oracle = apps.TruthTableOracle(n, tuple(table))
    record, s = apps.abrams_lloyd_run(oracle)
    assert record.outcome == "success"
    assert s == 1
    assert record.total_probability == pytest.approx((1.0 / 6.0) ** n, rel=1e-10)
    for step in record.steps:
        assert step.probability == pytest.approx(1.0 / 6.0, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_search_reports_unsatisfiable(n):
    oracle = apps.TruthTableOracle(n, tuple([0] * (1 << n)))
    record, s = apps.abrams_lloyd_run(oracle)
    assert record.outcome == "success"
    assert s == 0
    assert record.total_probability == pytest.approx((1.0 / 6.0) ** n, rel=1e-10)


def test_search_final_state_factorizes():
    oracle = apps.parse_truth_table("0100")
    record, _ = apps.abrams_lloyd_run(oracle)
    assert stepwise.flag_basis_fidelity(record.final_state, 1) > 1.0 - 1e-9


def test_search_rejects_multiple_satisfiers():
    with pytest.raises(UnsupportedInstanceError):
        apps.abrams_lloyd_run(apps.parse_truth_table("0110"))


def test_search_rejects_bad_mode():
    with pytest.raises(DomainError):
        apps.abrams_lloyd_run(apps.parse_truth_table("0100"), mode="mc")


def test_search_sampled_is_seed_deterministic():
    oracle = apps.parse_truth_table("0100")
    a, s_a = apps.abrams_lloyd_run(oracle, mode="sampled", seed=4)
    b, s_b = apps.abrams_lloyd_run(oracle, mode="sampled", seed=4)
    assert a.outcome == b.outcome
    assert s_a == s_b


def test_a_failed_search_reports_no_flag_bit():
    oracle = apps.parse_truth_table("01")
    outcomes = set()
    for seed in range(20):
        record, s = apps.abrams_lloyd_run(oracle, mode="sampled", seed=seed)
        outcomes.add(record.outcome)
        assert (s is None) == (record.outcome != "success")
    assert outcomes == {"success", "failure"}


def test_search_sampled_rate():
    # per-trial success probability is 1/6 for a single data qubit
    oracle = apps.parse_truth_table("01")
    hits = sum(
        apps.abrams_lloyd_run(oracle, mode="sampled", seed=seed)[0].outcome == "success"
        for seed in range(600)
    )
    p = 1.0 / 6.0
    sigma = np.sqrt(p * (1.0 - p) / 600)
    assert abs(hits / 600 - p) < 4.0 * sigma


def test_failure_operator_variant_is_complete():
    m1 = stepwise.abrams_lloyd_failure_op()
    n_al = gates.abrams_lloyd().matrix
    assert np.allclose(
        m1.conj().T @ m1 + n_al.conj().T @ n_al, np.eye(4), atol=1e-10
    )
    # the variant is genuinely non-hermitian yet shares the hermitian
    # failure operator's gram matrix
    assert not np.allclose(m1, m1.conj().T, atol=1e-12)
    from nuqc import measure

    pair = measure.build_pair(gates.abrams_lloyd(), 1.0)
    assert np.allclose(m1.conj().T @ m1, pair.m1.conj().T @ pair.m1, atol=1e-10)


def test_qubit_bit_reads_marginals():
    assert apps.qubit_bit(basis_state(3, 0b101), 0) == 1
    assert apps.qubit_bit(basis_state(3, 0b101), 1) == 0
    assert apps.qubit_bit(basis_state(3, 0b101), 2) == 1


def _qubit_bit_by_loop(state, qubit):
    """The per-amplitude loop qubit_bit replaced, kept as its reference."""
    prob_one = 0.0
    for idx, amp in enumerate(state.amplitudes):
        if (idx >> qubit) & 1:
            prob_one += abs(amp) ** 2
    return int(prob_one / norm_sq(state) > 0.5)


def test_qubit_bit_matches_the_per_amplitude_loop():
    rng = np.random.default_rng(8)
    for n in (1, 2, 5, 9):
        for _ in range(10):
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps *= rng.uniform(0.1, 10.0, size=1 << n)  # uneven marginals
            state = StateVector(n, amps)
            for qubit in range(n):
                assert apps.qubit_bit(state, qubit) == _qubit_bit_by_loop(state, qubit)
    with pytest.raises(ShapeError):
        apps.qubit_bit(basis_state(3, 0), 3)
