import json
import re
import sys

import numpy as np
import pytest

from nuqc import circuit, cli, gates, measure, qstate, synth
from nuqc.circuit import CircuitProgram, CircuitStep
from nuqc.errors import CircuitParseError, DomainError, SearchBudgetError, ShapeError
from nuqc.linops import write_matrix
from nuqc.qstate import StateVector, embedded_matrix

import stepwise


def controlled_diag(a, n_qubits):
    d = np.ones(1 << n_qubits, dtype=complex)
    d[-1] = a
    return np.diag(d)


def test_svd_split_reconstructs():
    g = gates.nand()
    left, d, right = synth.svd_split(g)
    assert np.allclose(left.matrix @ np.diag(d) @ right.matrix, g.matrix, atol=1e-12)
    assert left.is_unitary and right.is_unitary
    assert d[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(d <= 1.0)


def test_svd_split_rejects_unnormalized():
    g = gates.GateSpec("BAD", 1, np.diag([2.0, 0.0]).astype(complex), "nonunitary",
                       1.0, False)
    with pytest.raises(DomainError):
        synth.svd_split(g)


def test_factor_diagonal_masks():
    # entries sit at indices 1 and 2; the X masks are their bit complements
    out = synth.factor_diagonal([1.0, 0.5, 0.25, 1.0])
    assert out == [(0b10, 0.5), (0b01, 0.25)]


def test_factor_diagonal_snaps_and_skips():
    out = synth.factor_diagonal([1.0 - 1e-14, 5e-13, 1.0, 0.7])
    assert out == [(0b10, 0.0), (0b00, 0.7)]


def test_factor_diagonal_validation():
    with pytest.raises(ShapeError):
        synth.factor_diagonal([1.0, 0.5, 0.25])
    with pytest.raises(DomainError):
        synth.factor_diagonal([1.0, 1.5])
    with pytest.raises(DomainError):
        synth.factor_diagonal([1.0, -0.5])


@pytest.mark.parametrize("a", [0.04, 0.25, 0.81, 0.5, 0.999])
def test_decompose_cn1_identity(a):
    net = synth.decompose_cn1(a)
    assert net.n_qubits == 2
    assert net.gate_count == 7
    assert net.scale == pytest.approx(1.0 / np.sqrt(a), abs=1e-12)
    assert synth.reconstruction_residual(net, controlled_diag(a, 2)) < 1e-10


def test_decompose_cn1_frozen_product():
    # at a = 0.25 the raw product is sqrt(a) * diag(1, 1, 1, a)
    prod = synth.netlist_matrix(synth.decompose_cn1(0.25))
    assert np.allclose(prod, np.diag([0.5, 0.5, 0.5, 0.125]), atol=1e-12)


def test_decompose_cn1_domain():
    with pytest.raises(DomainError):
        synth.decompose_cn1(0.0)
    with pytest.raises(DomainError):
        synth.decompose_cn1(1.0)


def test_two_control_walk_shape():
    # two controls: factor gates on (0,t) and (1,t) around a parameter-inverted
    # middle block, stitched with CNOTs on the control pair
    net = synth.decompose_mcn1_bare(0.25, 2)
    labels = [(s.gate.label, s.targets) for s in net.steps]
    assert labels[0] == ("CN1(0.5)", (0, 2))
    assert labels[1] == ("CNOT", (0, 1))
    assert labels[-2] == ("CNOT", (0, 1))
    assert labels[-1] == ("CN1(0.5)", (1, 2))
    middle = labels[2:-2]
    assert [l for l, _ in middle] == [
        "X", "N1(0.7071067811865476)", "X", "CNOT",
        "N1(0.7071067811865476)", "CNOT", "X", "N1(0.7071067811865476)", "X",
    ]


@pytest.mark.parametrize("a", [0.04, 0.25, 0.81])
def test_two_control_walk_identity(a):
    net = synth.decompose_mcn1_bare(a, 2)
    assert synth.reconstruction_residual(net, controlled_diag(a, 3)) < 1e-10


@pytest.mark.parametrize("k", [2, 3, 4])
def test_bare_walk_reconstructs(k):
    a = 0.3
    net = synth.decompose_mcn1_bare(a, k)
    assert net.n_qubits == k + 1
    assert synth.reconstruction_residual(net, controlled_diag(a, k + 1)) < 1e-10
    # 2^k - 1 controlled factors, even-parity ones expanded to 9 steps,
    # plus 2^k - 2 stitching CNOTs
    singles = sum(1 for s in net.steps if s.gate.label.startswith("CN1"))
    assert singles == (1 << (k - 1))
    root = a ** (1.0 / (1 << (k - 1)))
    inverted = (1 << (k - 1)) - 1
    assert net.scale == pytest.approx((1.0 / root) ** inverted, rel=1e-12)


def test_bare_walk_rejects_small_k():
    with pytest.raises(DomainError):
        synth.decompose_mcn1_bare(0.5, 1)


@pytest.mark.parametrize("make, message", [
    (lambda: synth.decompose_mcn1_bare(0.0, 2), "a must lie in (0, 1), got 0.0"),
    (lambda: synth.decompose_mcn1_bare(1.0, 2), "a must lie in (0, 1), got 1.0"),
    (lambda: synth.decompose_mcn1_ancilla(1.0, 2), "a must lie in [0, 1), got 1.0"),
    (lambda: synth.decompose_mcn1_ancilla(-0.5, 2), "a must lie in [0, 1), got -0.5"),
    (lambda: synth.decompose_mcn1_ancilla(0.5, -1), "n_controls must be >= 0, got -1"),
])
def test_decompositions_reject_their_domain(make, message):
    with pytest.raises(DomainError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_ancilla_route_exact(k):
    a = 0.3
    net = synth.decompose_mcn1_ancilla(a, k)
    assert net.scale == 1.0
    assert net.ancillas
    got = synth.realized_operator(net)
    assert np.allclose(got, controlled_diag(a, k + 1), atol=1e-12)


def test_ancilla_route_projective():
    net = synth.decompose_mcn1_ancilla(0.0, 1)
    assert np.allclose(synth.realized_operator(net), controlled_diag(0.0, 2), atol=1e-12)


def test_ancilla_marking_restores_ancillas():
    # the ancillas must leave in |0> on the success branch, not merely be traced
    net = synth.decompose_mcn1_ancilla(0.4, 2)
    full = synth.netlist_matrix(net)
    dim_data = 1 << 3
    for col in range(dim_data):
        column = full[:, col]  # data basis column with ancillas in |0>
        live = np.flatnonzero(np.abs(column) > 1e-12)
        assert np.all(live < dim_data)


def test_approximate_n1_reference_point():
    m, l, net = synth.approximate_n1(0.3, 0.5, np.sqrt(2.0), 0.01)
    assert (m, l) == (9, -11)
    realized = 0.5 ** (m * np.sqrt(2.0) + l)
    assert synth.reconstruction_residual(net, np.diag([1.0, realized])) < 1e-12
    # scale covers the X-conjugated negative power: 0.5**-11
    assert net.scale == pytest.approx(2048.0, rel=1e-12)


def test_approximate_n1_trivial_hit():
    # log_0.5(0.25) = 2 is an integer, so m = 0 works immediately
    m, l, net = synth.approximate_n1(0.25, 0.5, 2.0, 1e-3)
    assert (m, l) == (0, 2)
    assert net.scale == 1.0
    assert synth.reconstruction_residual(net, np.diag([1.0, 0.25])) < 1e-12


def test_approximate_n1_search_order_prefers_small_m():
    # any epsilon above the m = 0 rounding error must return m = 0
    goal = np.log(0.3) / np.log(0.5)
    eps = abs(goal - round(goal)) + 1e-6
    m, l, _ = synth.approximate_n1(0.3, 0.5, np.sqrt(2.0), eps)
    assert m == 0
    assert l == round(goal)


def test_approximate_n1_budget():
    with pytest.raises(SearchBudgetError):
        synth.approximate_n1(0.3, 0.5, np.sqrt(2.0), 1e-9, budget=50)


def _search_outcome(search, *args):
    """``(m, l)`` a search returns, or the type and message of what it raises."""
    try:
        return search(*args)
    except DomainError as exc:  # the scale of the (m, l) found overflows
        found = re.search(r"\(m, l\) = \((-?\d+), (-?\d+)\)", str(exc))
        return int(found[1]), int(found[2])
    except (SearchBudgetError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("chunk", [synth.SEARCH_CHUNK, 7])
def test_approximate_n1_finds_what_the_scalar_search_finds(chunk, monkeypatch):
    monkeypatch.setattr(synth, "SEARCH_CHUNK", chunk)  # 7: hits fall anywhere in a chunk
    grid = [(a, alpha, gamma, eps, budget)
            for a in (0.3, 0.05, 0.999) for alpha in (0.5, 0.9)
            for gamma in (2.0 ** 0.5, 0.7, 3.0, (1 + 5.0 ** 0.5) / 2)
            for eps in (1e-2, 1e-4, 1e-6) for budget in (0, 13, 4000)]
    # a non-finite gamma ends both searches where round() raises on nan
    grid += [(0.3, 0.5, gamma, 1e-9, 50) for gamma in (np.inf, np.nan)]
    # m = 1 and m = -1 both hit, and m comes first; then an epsilon that m = 0 misses by 0
    grid.append((0.5 ** 2.5, 0.5, 0.5, 1e-6, 10))
    goal = np.log(0.3) / np.log(0.5)
    grid.append((0.3, 0.5, 2.0 ** 0.5, abs(goal - round(goal)), 100))
    outcomes = []
    for args in grid:
        want = _search_outcome(stepwise.n1_search, *args)
        got = _search_outcome(lambda *a: synth.approximate_n1(*a)[:2], *args)
        assert got == want, args
        outcomes.append(type(want[0]))
    assert int in outcomes and type in outcomes  # found and exhausted budgets both checked


def test_approximate_n1_domain():
    with pytest.raises(DomainError):
        synth.approximate_n1(1.5, 0.5, 1.0, 0.01)
    with pytest.raises(DomainError):
        synth.approximate_n1(0.3, 1.0, 1.0, 0.01)
    with pytest.raises(DomainError):
        synth.approximate_n1(0.3, 0.5, -1.0, 0.01)
    with pytest.raises(DomainError):
        synth.approximate_n1(0.3, 0.5, 1.0, 1e-13)


def test_synthesize_identity_is_empty():
    net = synth.synthesize(gates.identity(2))
    assert net.gate_count == 0
    assert net.scale == 1.0


def test_synthesize_unitary_is_single_step():
    net = synth.synthesize(gates.h())
    assert net.gate_count == 1
    assert synth.reconstruction_residual(net, gates.h().matrix) < 1e-12


def test_synthesize_rejects_bad_mode():
    with pytest.raises(DomainError):
        synth.synthesize(gates.nand(), mode="fancy")


@pytest.mark.parametrize("mode", ["bare", "ancilla"])
def test_synthesize_nand(mode):
    g = gates.nand()
    net = synth.synthesize(g, mode=mode)
    assert synth.reconstruction_residual(net, g.matrix) < 1e-8
    if mode == "bare":
        assert net.n_qubits == 2
        assert net.ancillas == ()
    else:
        assert net.n_qubits == 4
        assert net.ancillas == (2, 3)
        assert net.scale == 1.0


@pytest.mark.parametrize("mode", ["bare", "ancilla"])
def test_synthesize_random_round_trips(mode):
    rng = np.random.default_rng(123)
    for n in (1, 2, 3):
        for _ in range(3):
            raw = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(
                size=(1 << n, 1 << n)
            )
            g = gates.normalize_gate(raw)
            net = synth.synthesize(g, mode=mode)
            assert synth.reconstruction_residual(net, g.matrix) < 1e-8


def _ordered_product(net):
    """The step product built from embedded_matrix, the oracle for netlist_matrix."""
    acc = np.eye(1 << net.n_qubits, dtype=complex)
    for step in net.steps:
        acc = embedded_matrix(step.gate.matrix, step.targets, net.n_qubits) @ acc
    return acc


def _random_netlist(rng, width, ancillas):
    fixed = [gates.h(), gates.x(), gates.cnot(), gates.ckx(2)]
    steps = []
    for i in range(14):
        k = int(rng.integers(1, min(width, 3) + 1))
        targets = tuple(rng.permutation(width)[:k].tolist())
        if k >= 2 and i % 3 == 0:
            targets = tuple(sorted(targets, reverse=True))  # descending, never sorted
        if i % 4 == 0:
            gate = next(g for g in fixed if g.arity == k)
        else:
            raw = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
            gate = gates.normalize_gate(raw)
        steps.append(CircuitStep(gate, targets))
    return CircuitProgram(width, steps, ancillas=ancillas)


@pytest.mark.parametrize("width, ancillas", [
    (1, ()), (2, ()), (2, (1,)), (3, (0, 2)), (4, (0, 2)), (4, (3, 1)), (5, (0, 2)),
    (5, (4,)), (5, ()),
])
def test_batched_verification_matches_the_embedded_matrix_product(width, ancillas):
    rng = np.random.default_rng(60 + 7 * width + len(ancillas))
    for _ in range(3):
        net = _random_netlist(rng, width, ancillas)
        want = _ordered_product(net)
        assert np.max(np.abs(synth.netlist_matrix(net) - want)) <= 1e-12
        mask = sum(1 << q for q in ancillas)
        keep = [i for i in range(1 << width) if not i & mask]
        realized = synth.realized_operator(net)
        assert realized.shape == (len(keep), len(keep))
        assert np.max(np.abs(realized - want[np.ix_(keep, keep)])) <= 1e-12


def _random_monomial_netlist(rng, width, ancillas):
    """Mostly real monomial steps in runs, broken by complex dense ones."""
    def n1():
        return gates.n1(0.0 if rng.random() < 0.2 else float(rng.uniform(0.05, 0.95)))

    def d(k):
        return gates.diagonal(rng.choice([0.0, 0.3, 0.8, 1.0], size=1 << k).tolist())

    def mat(k):
        raw = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
        return gates.normalize_gate(raw)

    makers = {1: [gates.x, n1, lambda: d(1), lambda: mat(1)],
              2: [gates.cnot, lambda: gates.cn1(float(rng.uniform(0.0, 0.95))),
                  lambda: d(2), lambda: mat(2)],
              3: [lambda: gates.ckx(2), lambda: d(3)]}
    steps = []
    for _ in range(24):
        k = int(rng.integers(1, min(width, 3) + 1))
        targets = tuple(rng.permutation(width)[:k].tolist())
        choices = makers[k][:-1] if k < 3 and rng.random() < 0.8 else makers[k]
        steps.append(CircuitStep(choices[rng.integers(len(choices))](), targets))
    # repeat a few steps so that gate objects and targets recur, as in synthesized netlists
    steps += [steps[int(i)] for i in rng.integers(len(steps), size=8)]
    return CircuitProgram(width, steps, ancillas=ancillas)


@pytest.mark.parametrize("width, ancillas", [
    (1, ()), (1, (0,)), (2, ()), (2, (1,)), (3, (0, 2)), (4, (0, 2)), (4, (3, 1)),
    (5, (0, 2)), (5, ()),
])
def test_composed_verification_matches_the_embedded_matrix_product(width, ancillas):
    rng = np.random.default_rng(90 + 7 * width + len(ancillas))
    for _ in range(4):
        net = _random_monomial_netlist(rng, width, ancillas)
        want = _ordered_product(net)
        assert np.max(np.abs(synth.netlist_matrix(net) - want)) <= 1e-12
        mask = sum(1 << q for q in ancillas)
        keep = [i for i in range(1 << width) if not i & mask]
        realized = synth.realized_operator(net)
        assert realized.shape == (len(keep), len(keep))
        assert np.max(np.abs(realized - want[np.ix_(keep, keep)])) <= 1e-12


def test_swapped_monomial_steps_fail_verification():
    rng = np.random.default_rng(0)
    g = gates.normalize_gate(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    net = synth.synthesize(g, mode="bare")
    assert synth.reconstruction_residual(net, g.matrix) < 1e-12
    # the first CNOT next to an X on its control: swapping them flips the
    # target on the other half of the register
    def x_on_control(cnot, x):
        return cnot.gate.label == "CNOT" and x.gate.label == "X" and x.targets == cnot.targets[:1]

    i = next(i for i, (a, b) in enumerate(zip(net.steps, net.steps[1:]))
             if x_on_control(a, b) or x_on_control(b, a))
    net.steps[i], net.steps[i + 1] = net.steps[i + 1], net.steps[i]
    residual = synth.reconstruction_residual(net, g.matrix)
    assert residual > 0.1
    oracle = np.max(np.abs(net.scale * _ordered_product(net) - g.matrix))
    assert residual == pytest.approx(oracle / np.max(np.abs(g.matrix)), rel=1e-9)


@pytest.mark.parametrize("mode, kinds", [("bare", {"X", "CNOT", "N1", "CN1"}),
                                         ("ancilla", {"X", "CKX", "N1"})])
def test_verification_gathers_are_the_kernel_tables_with_real_factors(mode, kinds):
    rng = np.random.default_rng(5)
    g = gates.normalize_gate(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    net = synth.synthesize(g, mode=mode)
    gathers = qstate.Gathers(net.n_qubits)
    everywhere = np.arange(1 << net.n_qubits)
    seen = set()
    for step in net.steps:
        found = gathers[step.gate, step.targets]
        rows = qstate._structure(step.gate.matrix.tobytes())[1]
        assert (found is None) == (rows is None)
        if found is None or (step.gate.label, step.targets) in seen:
            continue
        seen.add((step.gate.label, step.targets))
        index, factor = qstate._gather_tables(rows, step.targets, everywhere)
        for got, want in zip(found, (index, factor)):
            assert (got is None) == (want is None)
        assert found[0] is None or np.array_equal(found[0], index)
        if factor is not None:
            assert found[1].dtype == np.float64
            assert np.array_equal(found[1], factor)
    assert kinds <= {label.partition("(")[0] for label, _ in seen}


def test_synthesize_makes_each_gate_once(monkeypatch):
    rng = np.random.default_rng(0)
    g = gates.normalize_gate(rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
    made = []

    def counting(name, original):
        def make(*params):
            made.append((name, *params))
            return original(*params)
        return make

    for name in ("x", "cnot", "n1", "cn1", "cu1", "ckx"):
        monkeypatch.setattr(gates, name, counting(name, getattr(gates, name)))
    net = synth.synthesize(g, mode="bare")
    assert net.gate_count > 10000
    assert len(made) == len(set(made))
    labels = {step.gate.label for step in net.steps}
    assert len(made) <= len(labels) and len(labels) < 200
    assert {name for name, *_ in made} == {"x", "cnot", "n1", "cn1"}


def test_in_memory_synthesis_shares_prepared_pairs(monkeypatch):
    rng = np.random.default_rng(4)
    g = gates.normalize_gate(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    net = synth.synthesize(g, mode="ancilla")
    calls = []
    original = measure.build_pair

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(measure, "build_pair", counting)
    measured = [s for s in net.steps if not s.gate.is_unitary]
    labels = {(s.gate.label, s.c, s.q, s.max_reversals) for s in measured}
    assert len(labels) < len(measured) / 3
    circuit.run_branch(net)
    # as a parsed program would: one pair per distinct label
    assert len(calls) == len(labels)
    assert len(calls) == len({(s.gate, s.c, s.q, s.max_reversals) for s in measured})


def test_synth_cli_never_calls_the_test_oracle(tmp_path, monkeypatch, capsys):
    # embedded_matrix checks the verification path, so that path must not use it
    original = qstate.embedded_matrix

    def refuse(*args, **kwargs):
        raise AssertionError("embedded_matrix is a test oracle")

    for name, module in list(sys.modules.items()):
        if name.startswith("nuqc") and getattr(module, "embedded_matrix", None) is original:
            monkeypatch.setattr(module, "embedded_matrix", refuse)
    rng = np.random.default_rng(3)
    path = tmp_path / "m3.mat"
    write_matrix(path, rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    out = tmp_path / "m3.nl"
    assert cli.main(["synth", str(path), "--mode", "ancilla", "--out", str(out), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["residual"] < 1e-8


def test_netlist_matrix_is_ordered_product():
    net = CircuitProgram(2, [
        CircuitStep(gates.x(), (0,)),
        CircuitStep(gates.cnot(), (0, 1)),
    ])
    want = embedded_matrix(gates.cnot().matrix, (0, 1), 2) @ embedded_matrix(
        gates.x().matrix, (0,), 2
    )
    assert np.allclose(synth.netlist_matrix(net), want, atol=1e-14)


def test_format_netlist_plain():
    net = synth.decompose_cn1(0.25)
    text = circuit.format_program(net)
    lines = text.strip().splitlines()
    assert lines[:3] == ["qubits 2", f"scale {net.scale!r}", "gate N1(0.5) 1"]
    assert len(lines) == 2 + net.gate_count
    assert circuit.format_program(circuit.parse(text)) == text


def test_format_netlist_needs_namer_for_raw_matrices():
    net = synth.synthesize(gates.nand(), mode="bare")
    with pytest.raises(DomainError):
        circuit.format_program(net)


def test_write_read_round_trip(tmp_path):
    g = gates.nand()
    net = synth.synthesize(g, mode="ancilla")
    path = tmp_path / "nand.netlist"
    synth.write_netlist(net, path)
    again = synth.read_netlist(path)
    assert again.n_qubits == net.n_qubits
    assert again.ancillas == net.ancillas
    assert again.scale == net.scale
    assert synth.reconstruction_residual(again, g.matrix) < 1e-8


def test_write_read_round_trip_with_sidecars(tmp_path):
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    g = gates.normalize_gate(raw)
    net = synth.synthesize(g, mode="bare")
    path = tmp_path / "rand.netlist"
    synth.write_netlist(net, path)
    sidecars = sorted(p.name for p in tmp_path.glob("rand.netlist.g*.mat"))
    assert sidecars  # the svd unitaries go to companion files
    again = synth.read_netlist(path)
    assert again.scale == net.scale
    assert synth.reconstruction_residual(again, g.matrix) < 1e-8


def test_read_netlist_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.netlist"
    path.write_text("qubits 2\nscale 1.0\nWAT 0\n", encoding="utf-8")
    with pytest.raises(CircuitParseError) as err:
        synth.read_netlist(path)
    assert "line 3" in str(err.value)


def test_read_netlist_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.netlist"
    path.write_text("scale 1.0\n", encoding="utf-8")
    with pytest.raises(CircuitParseError):
        synth.read_netlist(path)


def test_read_netlist_rejects_the_old_header_form(tmp_path):
    # the former netlist header kept ancillas in a comment; reading it as a
    # circuit would silently drop them, so it must fail instead
    path = tmp_path / "old.netlist"
    path.write_text("qubits 4 scale 1.0\n# ancilla 2 3\nX 0\n", encoding="utf-8")
    with pytest.raises(CircuitParseError) as err:
        synth.read_netlist(path)
    assert str(err.value).startswith("line 1:")


def test_residual_catches_a_stray_projector_at_large_scale():
    rng = np.random.default_rng(0)
    g = gates.normalize_gate(rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32)))
    net = synth.synthesize(g, mode="bare")
    assert net.scale > 1e10
    assert synth.reconstruction_residual(net, g.matrix) < 1e-12
    net.steps.append(CircuitStep(gates.n1(0.0), (0,)))  # wipes out half the operator
    assert synth.reconstruction_residual(net, g.matrix) > 0.1


def test_approximate_n1_scale_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="overflows"):
        synth.approximate_n1(0.3, 0.5, np.sqrt(2.0), 1e-4)


def _assert_runs_as_measured_gates(g, net, psi):
    # the all-success branch of the synthesized program, started from psi with
    # every ancilla in |0>, is M psi / |M psi| and leaves the ancillas in |0>
    dim = psi.size
    amplitudes = np.zeros(1 << net.n_qubits, dtype=complex)
    amplitudes[:dim] = psi  # ancillas are the high qubits
    net.initial_state = StateVector(net.n_qubits, amplitudes)
    record = circuit.run_branch(net)
    assert record.outcome == "success"
    final = record.final_state.amplitudes
    want = g.matrix @ psi
    fidelity = abs(np.vdot(want / np.linalg.norm(want), final[:dim])) ** 2
    assert fidelity >= 1 - 1e-9
    assert np.sum(np.abs(final[dim:]) ** 2) <= 1e-12
    expected = np.linalg.norm(want) ** 2 / net.scale**2
    assert record.total_probability == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("mode", ["bare", "ancilla"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_synthesized_netlist_runs_as_measured_gates(n, mode):
    rng = np.random.default_rng(40 + n)
    dim = 1 << n
    g = gates.normalize_gate(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    net = synth.synthesize(g, mode=mode)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    _assert_runs_as_measured_gates(g, net, psi / np.linalg.norm(psi))


def test_six_qubit_synthesis_verifies_and_runs():
    # too slow to verify in the suite through dense embedded matrices
    rng = np.random.default_rng(0)
    g = gates.normalize_gate(rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
    bare = synth.synthesize(g, mode="bare")
    assert bare.n_qubits == 6 and bare.gate_count > 10000
    assert synth.reconstruction_residual(bare, g.matrix) < 1e-8
    net = synth.synthesize(g, mode="ancilla")
    assert net.n_qubits == 8 and net.ancillas == (6, 7)
    assert synth.reconstruction_residual(net, g.matrix) < 1e-8
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    _assert_runs_as_measured_gates(g, net, psi / np.linalg.norm(psi))


def _rank_deficient(n, seed=5):
    """A normalized Gaussian 2^n x 2^n gate whose two smallest singular values are 0."""
    rng = np.random.default_rng(seed)
    u, sv, vh = np.linalg.svd(rng.standard_normal((1 << n, 1 << n)))
    sv[-2:] = 0.0
    return gates.normalize_gate(u @ np.diag(sv) @ vh)


@pytest.mark.parametrize("mode", ["bare", "ancilla"])
@pytest.mark.parametrize("n", [3, 4])
def test_zero_singular_values_synthesize_as_projective_factors(n, mode, tmp_path):
    g = _rank_deficient(n)
    net = synth.synthesize(g, mode=mode)
    projective = [s for s in net.steps if s.gate.label.startswith("D(")]
    # bare mode emits one D(1,...,1,0) per zero singular value; ancilla mode N1(0) sinks
    assert len(projective) == (2 if mode == "bare" else 0)
    assert all(s.gate.label == "D(" + "1.0," * ((1 << n) - 1) + "0.0)" for s in projective)
    assert synth.reconstruction_residual(net, g.matrix) < 1e-12
    oracle = np.max(np.abs(net.scale * _ordered_product(net)[:1 << n, :1 << n] - g.matrix))
    assert oracle / np.max(np.abs(g.matrix)) < 1e-12
    # the written netlist runs as measured gates
    synth.write_netlist(net, tmp_path / "rank.nl")
    again = synth.read_netlist(tmp_path / "rank.nl")
    psi = np.random.default_rng(6).normal(size=1 << n)
    _assert_runs_as_measured_gates(g, again, psi / np.linalg.norm(psi))


@pytest.mark.parametrize("n", [3, 4])
def test_a_softened_projective_factor_fails_verification(n):
    g = _rank_deficient(n)
    net = synth.synthesize(g, mode="bare")
    i = next(i for i, s in enumerate(net.steps) if s.gate.label.startswith("D("))
    step = net.steps[i]
    net.steps[i] = CircuitStep(gates.diagonal([1.0] * ((1 << n) - 1) + [0.5]), step.targets)
    assert synth.reconstruction_residual(net, g.matrix) > synth.RESIDUAL_ATOL
