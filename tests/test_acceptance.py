"""End-to-end acceptance checks, one verdict line per criterion.

Run ``pytest -s tests/test_acceptance.py`` to see every line; each test
prints ``criterion NN <name>: PASS`` or ``... FAIL`` before asserting, so
the verdict survives even when the detailed assertion fires.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from nuqc import apps, circuit, gates, measure, synth
from nuqc.qstate import StateVector, basis_state

import stepwise

NAND_TARGETS = (1, 0)
TRIAL_SEED = 20260825

PSI_MAX = StateVector(2, np.array([1.0, 1.0, 1.0, 0.0]) / math.sqrt(3.0))
ANNIHILATED = StateVector(2, np.array([1.0, -1.0, 0.0, 0.0]) / math.sqrt(2.0))


def _verdict(name: str, failures: list[str]) -> None:
    print(f"criterion {name}: {'FAIL' if failures else 'PASS'}")
    assert not failures, "\n".join(failures)


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _nand_failure_operator(c: float) -> np.ndarray:
    a = math.sqrt(1.0 - c * c)
    b = math.sqrt(1.0 - c * c / 3.0)
    return (
        np.array(
            [
                [2 + a, -1 + a, -1 + a, 0.0],
                [-1 + a, 2 + a, -1 + a, 0.0],
                [-1 + a, -1 + a, 2 + a, 0.0],
                [0.0, 0.0, 0.0, 3 * b],
            ]
        )
        / 3.0
    )


def _nand_reversal_operator(c: float, q: float) -> np.ndarray:
    a = math.sqrt(1.0 - c * c)
    b = math.sqrt(1.0 - c * c / 3.0)
    return (q / (3.0 * a)) * np.array(
        [
            [1 + 2 * a, 1 - a, 1 - a, 0.0],
            [1 - a, 1 + 2 * a, 1 - a, 0.0],
            [1 - a, 1 - a, 1 + 2 * a, 0.0],
            [0.0, 0.0, 0.0, 3 * a / b],
        ]
    )


def test_01_nand_basis_success_probabilities():
    failures: list[str] = []
    nand = gates.nand()
    for c in (1.0, 0.8, 0.5):
        pair = measure.build_pair(nand, c)
        want = c * c / 3.0
        for x in range(4):
            got = measure.success_prob(pair, basis_state(2, x), NAND_TARGETS)
            _check(
                failures,
                abs(got - want) <= 1e-12,
                f"c={c} input {x:02b}: probability {got!r}, expected {want!r}",
            )
    _verdict("01 nand-basis-success-probabilities", failures)


def test_02_interference_extremes():
    failures: list[str] = []
    nand = gates.nand()
    for c in (1.0, 0.8, 0.5):
        pair = measure.build_pair(nand, c)
        got = measure.success_prob(pair, PSI_MAX, NAND_TARGETS)
        _check(
            failures,
            abs(got - c * c) <= 1e-12,
            f"c={c} constructive input: probability {got!r}, expected {c * c!r}",
        )
        got = measure.success_prob(pair, ANNIHILATED, NAND_TARGETS)
        _check(
            failures,
            abs(got) <= 1e-12,
            f"c={c} annihilated input: probability {got!r}, expected 0",
        )
    _verdict("02 interference-extremes", failures)


def test_03_explicit_failure_and_reversal_operators():
    failures: list[str] = []
    nand = gates.nand()
    eye = np.eye(4)
    for c in (0.6, 0.9):
        pair = measure.build_pair(nand, c)
        m1_err = float(np.abs(pair.m1 - _nand_failure_operator(c)).max())
        _check(failures, m1_err <= 1e-10, f"c={c} failure operator off by {m1_err!r}")
        policy = measure.build_reversal(pair)
        q = math.sqrt(1.0 - c * c)
        r0_err = float(np.abs(policy.r0 - _nand_reversal_operator(c, q)).max())
        _check(failures, r0_err <= 1e-10, f"c={c} reversal operator off by {r0_err!r}")
        prod_err = float(np.abs(policy.r0 @ pair.m1 - q * eye).max())
        _check(
            failures,
            prod_err <= 1e-9,
            f"c={c} reversal*failure is not q*I, off by {prod_err!r}",
        )
    _verdict("03 explicit-failure-and-reversal-operators", failures)


def test_04_reversal_budget_closed_forms():
    failures: list[str] = []
    pair = measure.build_pair(gates.nand(), 0.6)
    for k in (0, 1, 2, 5):
        policy = measure.build_reversal(pair, max_reversals=k)
        decay = 0.64 ** (k + 1)
        for x in range(4):
            got = measure.analytic_success(pair, basis_state(2, x), NAND_TARGETS, policy)
            want = (1.0 - decay) / 3.0
            _check(
                failures,
                abs(got - want) <= 1e-12,
                f"k={k} input {x:02b}: {got!r}, expected {want!r}",
            )
        got = measure.analytic_success(pair, PSI_MAX, NAND_TARGETS, policy)
        _check(
            failures,
            abs(got - (1.0 - decay)) <= 1e-12,
            f"k={k} constructive input: {got!r}, expected {1.0 - decay!r}",
        )
    policy = measure.build_reversal(pair, max_reversals=50)
    for x in range(4):
        got = measure.analytic_success(pair, basis_state(2, x), NAND_TARGETS, policy)
        _check(
            failures,
            abs(got - 1.0 / 3.0) <= 1e-10,
            f"k=50 input {x:02b}: {got!r} is not within 1e-10 of 1/3",
        )
    got = measure.analytic_success(pair, PSI_MAX, NAND_TARGETS, policy)
    _check(
        failures,
        abs(got - 1.0) <= 1e-10,
        f"k=50 constructive input: |{got!r} - 1| = {abs(got - 1.0)!r} exceeds 1e-10",
    )
    _verdict("04 reversal-budget-closed-forms", failures)


def test_05_sampled_rate_matches_analytic():
    failures: list[str] = []
    program = circuit.parse("qubits 2\ninit basis 3\ngate NAND 1 0 c=0.6 q=opt k=1\n")
    trials = 100_000
    stats = circuit.run_ensemble(program, seed=TRIAL_SEED, trials=trials, jobs=4)
    p = 0.1968
    sigma = math.sqrt(p * (1.0 - p) / trials)
    _check(
        failures,
        abs(stats.success_rate - p) <= 4.0 * sigma,
        f"rate {stats.success_rate!r} deviates from {p} by more than 4 sigma "
        f"({4.0 * sigma!r})",
    )
    _verdict("05 sampled-rate-matches-analytic", failures)


def test_06_reversal_success_is_state_independent():
    failures: list[str] = []
    pair = measure.build_pair(gates.nand(), 0.6)
    policy = measure.build_reversal(pair)
    q_sq = abs(policy.q) ** 2
    trials = 20_000
    sigma = math.sqrt(q_sq * (1.0 - q_sq) / trials)
    states = (
        ("constructive", PSI_MAX),
        ("basis-11", basis_state(2, 3)),
        ("annihilated", ANNIHILATED),
    )
    for salt, (name, state) in enumerate(states):
        rng = np.random.default_rng(np.random.SeedSequence((TRIAL_SEED, salt)))
        joint = 0
        for _ in range(trials):
            outcome, post = measure.sample(pair, state, NAND_TARGETS, rng)
            if outcome == measure.FAILURE:
                r_outcome, _ = measure.sample_reversal(policy, post, NAND_TARGETS, rng)
                joint += r_outcome == measure.SUCCESS
        rate = joint / trials
        _check(
            failures,
            abs(rate - q_sq) <= 4.0 * sigma,
            f"{name}: joint rate {rate!r} deviates from {q_sq!r} by more than "
            f"4 sigma ({4.0 * sigma!r})",
        )
    _verdict("06 reversal-success-is-state-independent", failures)


def _random_normalized(rng: np.random.Generator, dim: int) -> gates.GateSpec:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return gates.normalize_gate(raw)


def test_07_synthesis_round_trip():
    failures: list[str] = []
    rng = np.random.default_rng(TRIAL_SEED)
    targets = [gates.nand()]
    targets += [_random_normalized(rng, 4) for _ in range(5)]
    targets += [_random_normalized(rng, 8) for _ in range(2)]
    for i, gate in enumerate(targets):
        for mode in ("bare", "ancilla"):
            net = synth.synthesize(gate, mode)
            residual = synth.reconstruction_residual(net, gate.matrix)
            _check(
                failures,
                residual < 1e-8,
                f"target {i} mode {mode}: residual {residual!r}",
            )
    for a in (0.04, 0.25, 0.81):
        residual = synth.reconstruction_residual(
            synth.decompose_cn1(a), np.diag([1.0, 1.0, 1.0, a])
        )
        _check(
            failures,
            residual <= 1e-10,
            f"one-control identity a={a}: residual {residual!r}",
        )
        residual = synth.reconstruction_residual(
            synth.decompose_mcn1_bare(a, 2), np.diag([1.0] * 7 + [a])
        )
        _check(
            failures,
            residual <= 1e-10,
            f"two-control identity a={a}: residual {residual!r}",
        )
    _verdict("07 synthesis-round-trip", failures)


def test_08_exponent_approximation():
    failures: list[str] = []
    alpha, a, eps = 0.5, 0.3, 0.01
    m, l, net = synth.approximate_n1(a, alpha, math.sqrt(2.0), eps)
    _check(failures, (m, l) == (9, -11), f"search returned {(m, l)}, expected (9, -11)")
    prod = synth.netlist_matrix(net)
    off = float(max(abs(prod[0, 1]), abs(prod[1, 0])))
    _check(failures, off <= 1e-12, f"product is not diagonal, off-diagonal {off!r}")
    realized = float(prod[1, 1].real / prod[0, 0].real)
    err = abs(math.log(realized, alpha) - math.log(a, alpha))
    _check(failures, err < eps, f"exponent error {err!r} is not below {eps}")
    _verdict("08 exponent-approximation", failures)


def _sparse_tables(n: int, picks) -> list[apps.TruthTableOracle]:
    zero = apps.TruthTableOracle(n, (0,) * (1 << n))
    singles = [
        apps.TruthTableOracle(n, tuple(int(i == pos) for i in range(1 << n)))
        for pos in picks
    ]
    return [zero] + singles


def test_09_search_flag_matches_satisfier_count():
    failures: list[str] = []
    rng = np.random.default_rng(TRIAL_SEED)
    cases = _sparse_tables(1, range(2)) + _sparse_tables(2, range(4))
    cases += _sparse_tables(3, sorted(rng.choice(8, size=7, replace=False)))
    for oracle in cases:
        s = oracle.satisfying_count
        label = f"n={oracle.n} table={''.join(map(str, oracle.table))}"
        record, s_found = apps.abrams_lloyd_run(oracle)
        _check(failures, record.outcome == "success", f"{label}: branch run failed")
        if record.outcome != "success":
            continue
        _check(
            failures,
            s_found == s,
            f"{label}: flag {s_found}, expected {s}",
        )
        for j, step in enumerate(record.steps):
            _check(
                failures,
                abs(step.probability - 1.0 / 6.0) <= 1e-10,
                f"{label} step {j}: probability {step.probability!r}",
            )
        want = (1.0 / 6.0) ** oracle.n
        _check(
            failures,
            abs(record.total_probability - want) <= 1e-10,
            f"{label}: total {record.total_probability!r}, expected {want!r}",
        )
        fid = stepwise.flag_basis_fidelity(record.final_state, s)
        _check(failures, fid > 1.0 - 1e-9, f"{label}: fidelity {fid!r}")
    _verdict("09 search-flag-matches-satisfier-count", failures)


def test_10_normalization_and_completeness():
    failures: list[str] = []
    for gate in (gates.nand(), gates.abrams_lloyd()):
        top = float(np.linalg.svd(gate.matrix, compute_uv=False)[0])
        _check(
            failures,
            abs(top - 1.0) <= 1e-9,
            f"{gate.label}: largest singular value {top!r}",
        )
        pair = measure.build_pair(gate, 1.0)
        defect = measure.completeness_defect(pair)
        _check(failures, defect <= 1e-10, f"{gate.label}: completeness defect {defect!r}")
    al = gates.abrams_lloyd().matrix
    f = stepwise.abrams_lloyd_failure_op()
    defect = float(np.abs(f.conj().T @ f + al.conj().T @ al - np.eye(4)).max())
    _check(
        failures,
        defect <= 1e-10,
        f"quoted search failure operator: completeness defect {defect!r}",
    )
    _verdict("10 normalization-and-completeness", failures)


NAND_CHAINS = {
    1: "inputs 2\ng1 = NAND in0 in1\noutputs g1\n",
    2: "inputs 3\ng1 = NAND in0 in1\ng2 = NAND g1 in2\noutputs g2\n",
    3: "inputs 4\ng1 = NAND in0 in1\ng2 = NAND g1 in2\ng3 = NAND g2 in3\noutputs g3\n",
}


def test_11_nand_chain_scaling():
    failures: list[str] = []
    for m, text in NAND_CHAINS.items():
        net = apps.parse_nand_netlist(text)
        for c in (1.0, 0.8):
            want = (c * c / 3.0) ** m
            for bits in itertools.product((0, 1), repeat=net.n_inputs):
                program, _ = apps.compile_nand(net, net.nand_count, c=c, input_bits=list(bits))
                record = circuit.run_branch(program)
                label = f"m={m} c={c} bits={''.join(map(str, bits))}"
                _check(failures, record.outcome == "success", f"{label}: branch failed")
                _check(
                    failures,
                    abs(record.total_probability - want) <= 1e-10,
                    f"{label}: probability {record.total_probability!r}, expected {want!r}",
                )
    _verdict("11 nand-chain-scaling", failures)
