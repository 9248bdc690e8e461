from types import SimpleNamespace

import numpy as np
import pytest

from nuqc import gates, measure
from nuqc.errors import DegenerateBranchError, DomainError, IrreversibleError, MeasurementError
from nuqc.qstate import (StateVector, apply_embedded, basis_state, norm_sq, normalize,
                         uniform_state)

import stepwise


def nand_m1_closed_form(c):
    """Hand-derived failure operator for the measured NAND gate."""
    a = np.sqrt(1.0 - c * c)
    b = np.sqrt(1.0 - c * c / 3.0)
    return np.array(
        [
            [2 + a, -1 + a, -1 + a, 0],
            [-1 + a, 2 + a, -1 + a, 0],
            [-1 + a, -1 + a, 2 + a, 0],
            [0, 0, 0, 3 * b],
        ],
        dtype=complex,
    ) / 3.0


def nand_r0_closed_form(c, q):
    a = np.sqrt(1.0 - c * c)
    b = np.sqrt(1.0 - c * c / 3.0)
    return (q / (3.0 * a)) * np.array(
        [
            [1 + 2 * a, 1 - a, 1 - a, 0],
            [1 - a, 1 + 2 * a, 1 - a, 0],
            [1 - a, 1 - a, 1 + 2 * a, 0],
            [0, 0, 0, 3 * a / b],
        ],
        dtype=complex,
    )


class FixedRng:
    """Deterministic stand-in feeding a scripted uniform sequence."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def _one_trial(th, values):
    """``(succeeded, reversals)`` of one ``draw_trials`` trial whose uniforms are ``values``.

    Every value is drawn, and no more.
    """
    rng = FixedRng(values)
    streams = SimpleNamespace(draw=lambda rows: np.array([rng.random() for _ in rows]))
    passed, reversals, _ = measure.draw_trials([(0, th)], streams, 1)
    assert rng.values == []
    return passed == 1, reversals


def test_build_pair_completeness():
    for g in (gates.nand(), gates.abrams_lloyd(), gates.n1(0.3)):
        for c in (1.0, 0.8, 0.25):
            pair = measure.build_pair(g, c)
            assert measure.completeness_defect(pair) < 1e-12


def test_build_pair_rejects_bad_strength():
    with pytest.raises(MeasurementError):
        measure.build_pair(gates.nand(), 0.0)
    with pytest.raises(MeasurementError):
        measure.build_pair(gates.nand(), 1.2)


def test_success_operator_is_scaled_gate():
    pair = measure.build_pair(gates.n1(0.5), 0.8)
    assert np.allclose(pair.m0, 0.8 * np.diag([1.0, 0.5]), atol=1e-15)


def test_m1_matches_closed_form():
    for c in (0.6, 0.9):
        pair = measure.build_pair(gates.nand(), c)
        assert np.allclose(pair.m1, nand_m1_closed_form(c), atol=1e-10)


def test_r0_matches_closed_form():
    for c in (0.6, 0.9):
        pair = measure.build_pair(gates.nand(), c)
        policy = measure.build_reversal(pair)
        q = np.sqrt(1.0 - c * c)
        assert abs(policy.q - q) < 1e-12
        assert np.allclose(policy.r0, nand_r0_closed_form(c, q), atol=1e-10)
        # reversal undoes failure up to the factor q
        assert np.allclose(policy.r0 @ pair.m1, q * np.eye(4), atol=1e-9)


def test_reversal_completeness():
    pair = measure.build_pair(gates.nand(), 0.6)
    policy = measure.build_reversal(pair, max_reversals=2)
    defect = policy.r0.conj().T @ policy.r0 + policy.r1.conj().T @ policy.r1
    assert np.allclose(defect, np.eye(4), atol=1e-10)


def test_reversal_strength_bound():
    pair = measure.build_pair(gates.nand(), 0.6)
    # |q| can be at most sqrt(1 - |c|^2) = 0.8
    measure.build_reversal(pair, q=0.8)
    with pytest.raises(MeasurementError):
        measure.build_reversal(pair, q=0.81)
    with pytest.raises(MeasurementError):
        measure.build_reversal(pair, q=0.0)


def test_full_strength_failure_is_irreversible():
    pair = measure.build_pair(gates.nand(), 1.0)
    with pytest.raises(IrreversibleError):
        measure.build_reversal(pair)


def test_reversal_budget_must_not_be_negative():
    pair = measure.build_pair(gates.nand(), 0.6)
    with pytest.raises(MeasurementError, match=r"^max_reversals must be >= 0, got -1$"):
        measure.build_reversal(pair, max_reversals=-1)


def test_a_failure_operator_below_the_inversion_floor_is_irreversible():
    # |c| < 1 passes the strength check, but M0^dag M0 exceeds I by 9e-11 on
    # the first basis state, which M1's square root clamps to an eigenvalue 0
    gate = gates.from_matrix(np.diag([1 + 5e-11, 0.5]))
    pair = measure.build_pair(gate, np.sqrt(1 - 1e-11))
    w = np.linalg.eigvalsh(pair.m1)
    assert w.min() < measure.INVERSION_FLOOR < w.max()
    with pytest.raises(IrreversibleError,
                       match=r"^failure operator has eigenvalue .*; inverse is untrustworthy$"):
        measure.build_reversal(pair)


def _gate_above_one(excess, rotate):
    """``from_matrix`` of diag(1 + excess * UNITARY_ATOL, 0.5), optionally U . U^dag."""
    m = np.diag([1.0 + excess * gates.UNITARY_ATOL, 0.5]).astype(complex)
    if rotate:
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        m = u @ m @ u.conj().T
    return gates.from_matrix(m)


@pytest.mark.parametrize("rotate", [False, True])
@pytest.mark.parametrize("excess", [0.5, 1.0])
def test_build_pair_accepts_every_gate_from_matrix_accepts(excess, rotate):
    gate = _gate_above_one(excess, rotate)
    for c in (1.0, 0.9):
        pair = measure.build_pair(gate, c)
        # M1 clamps the direction where M0 exceeds 1 to zero, so completeness
        # is off by at most M0's excess over 1 in the Gram matrix
        bound = max(abs(c) ** 2 * (1.0 + excess * gates.UNITARY_ATOL) ** 2 - 1.0, 0.0)
        assert measure.completeness_defect(pair) <= bound + 1e-12
        assert np.linalg.eigvalsh(pair.m1).min() >= -1e-15


def test_from_matrix_refuses_twice_the_unitary_slack():
    with pytest.raises(DomainError, match=r"^largest singular value .* exceeds 1; "):
        gates.from_matrix(np.diag([1.0 + 2 * gates.UNITARY_ATOL, 0.5]))


def test_success_prob_basis_states():
    for c in (1.0, 0.8, 0.5):
        pair = measure.build_pair(gates.nand(), c)
        for x in range(4):
            p = measure.success_prob(pair, basis_state(2, x), (1, 0))
            assert abs(p - c * c / 3.0) < 1e-12


def test_success_prob_interference():
    pair = measure.build_pair(gates.nand(), 0.7)
    best = StateVector(2, np.array([1, 1, 1, 0]) / np.sqrt(3.0))
    assert abs(measure.success_prob(pair, best, (1, 0)) - 0.49) < 1e-12
    wrong = StateVector(2, np.array([1, -1, 0, 0]) / np.sqrt(2.0))
    assert measure.success_prob(pair, wrong, (1, 0)) < 1e-12


def test_sample_branches_follow_uniform_draw():
    pair = measure.build_pair(gates.nand(), 0.6)
    psi = basis_state(2, 0b11)
    # p_success = 0.12; a draw below lands on the success branch
    outcome, post = measure.sample(pair, psi, (1, 0), FixedRng([0.11]))
    assert outcome == "success"
    assert norm_sq(post) == pytest.approx(1.0, abs=1e-12)
    assert abs(post.amplitudes[0b00]) == pytest.approx(1.0, abs=1e-12)
    outcome, post = measure.sample(pair, psi, (1, 0), FixedRng([0.13]))
    assert outcome == "failure"
    assert norm_sq(post) == pytest.approx(1.0, abs=1e-12)


def test_sample_degenerate_branch_raises():
    pair = measure.build_pair(gates.n1(1e-13), 1.0)
    psi = basis_state(1, 1)
    # success mass is 1e-26: numerically indistinguishable from an impossible
    # branch, so landing on it must abort rather than divide by ~0
    with pytest.raises(DegenerateBranchError):
        measure.sample(pair, psi, (0,), FixedRng([0.0]))


def test_reversal_restores_premeasurement_state():
    pair = measure.build_pair(gates.nand(), 0.6)
    policy = measure.build_reversal(pair)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = StateVector(2, amps / np.linalg.norm(amps))
    outcome, failed = measure.sample(pair, psi, (1, 0), FixedRng([0.99]))
    assert outcome == "failure"
    outcome, restored = measure.sample_reversal(policy, failed, (1, 0), FixedRng([0.0]))
    assert outcome == "success"
    overlap = abs(np.vdot(restored.amplitudes, psi.amplitudes)) ** 2
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_run_with_reversal_attempt_accounting():
    pair = measure.build_pair(gates.nand(), 0.6)
    policy = measure.build_reversal(pair, max_reversals=2)
    psi = basis_state(2, 0b11)
    # fail, reverse, fail, reverse, succeed
    res = measure.run_with_reversal(pair, policy, psi, (1, 0),
                                    FixedRng([0.9, 0.0, 0.9, 0.0, 0.0]))
    assert res.outcome == "success"
    assert res.attempts == 3
    assert res.reversals == 2
    # fail then lose the reversal: protocol over, with the reversal spent
    res = measure.run_with_reversal(pair, policy, psi, (1, 0), FixedRng([0.9, 0.99]))
    assert res.outcome == "failure"
    assert res.attempts == 1
    assert res.reversals == 1
    assert res.first_success_mass == measure.success_prob(pair, psi, (1, 0))


def test_thresholds_follow_the_reversal_identity():
    # R0 M1 = q I, so a reversal restores with probability |q|^2 / (1 - p)
    c, q = 0.6, 0.5
    pair = measure.build_pair(gates.nand(), c)
    policy = measure.build_reversal(pair, q=q, max_reversals=2)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi = StateVector(2, amps / np.linalg.norm(amps))
    p = measure.success_prob(pair, psi, (1, 0))
    th = measure.thresholds(policy, p)
    assert th.success == p and th.budget == 2
    assert th.restore == q * q / (1.0 - p)
    # the reference: the masses of the branches the operators make
    failed = apply_embedded(psi, pair.m1, (1, 0))
    assert th.failure == pytest.approx(norm_sq(failed), rel=1e-14)
    failed = normalize(failed)
    assert th.restore == pytest.approx(norm_sq(apply_embedded(failed, policy.r0, (1, 0))),
                                       rel=1e-14)
    assert th.spoil == pytest.approx(norm_sq(apply_embedded(failed, policy.r1, (1, 0))),
                                     rel=1e-13)
    # fail, restore, fail, lose the reversal: two reversals spent
    assert stepwise.replay(th, FixedRng([0.99, 0.0, 0.99, 0.99])) == (False, 2)
    # fail, restore, succeed
    assert stepwise.replay(th, FixedRng([0.99, 0.0, 0.0])) == (True, 1)
    # without a budget the failure branch ends the protocol and no reversal is drawn
    bare = measure.thresholds(None, p)
    assert (bare.restore, bare.spoil, bare.budget) == (0.0, 0.0, 0)
    assert stepwise.replay(bare, FixedRng([0.99])) == (False, 0)


def test_thresholds_at_their_edges():
    almost_one = 1.0 - 2.0 ** -53
    clamped = False
    for c in (0.6, 0.9, 0.99):
        pair = measure.build_pair(gates.n1(0.5), c)
        policy = measure.build_reversal(pair, max_reversals=2)
        for amp in (1.0, 1j, -1.0):
            # on the top singular vector of N1, s = |c|^2: every reversal restores
            psi = StateVector(1, np.array([amp, 0.0]))
            s = measure.success_prob(pair, psi, (0,))
            th = measure.thresholds(policy, s)
            assert th.restore == pytest.approx(1.0, abs=1e-15) and th.restore <= 1.0
            assert th.spoil == 1.0 - th.restore
            if abs(policy.q) ** 2 / (1.0 - s) > 1.0:  # rounded above 1
                clamped = True
                assert (th.restore, th.spoil) == (1.0, 0.0), (c, amp)
                # fail, restore on the highest uniform, succeed
                assert _one_trial(th, [almost_one, almost_one, 0.0]) == (True, 1)
    assert clamped
    # a success mass within 3e-13 of 1 leaves a failure mass below DEGENERATE_MASS
    policy = measure.build_reversal(measure.build_pair(gates.n1(0.5), 0.9), max_reversals=2)
    th = measure.thresholds(policy, 1.0 - 3e-13)
    assert th.failure < measure.DEGENERATE_MASS <= th.success
    assert (th.restore, th.spoil, th.budget) == (0.0, 0.0, 2)
    assert _one_trial(th, [0.0]) == (True, 0)
    with pytest.raises(DegenerateBranchError, match="failure"):
        _one_trial(th, [almost_one])


def test_analytic_success_zero_reversals_is_plain_probability():
    pair = measure.build_pair(gates.nand(), 0.6)
    psi = uniform_state(2)
    base = measure.success_prob(pair, psi, (1, 0))
    assert measure.analytic_success(pair, psi, (1, 0), None) == pytest.approx(base)


def test_analytic_success_geometric_series():
    c = 0.6
    pair = measure.build_pair(gates.nand(), c)
    psi = basis_state(2, 0b01)
    q_sq = 1.0 - c * c
    for k in (0, 1, 2, 5):
        policy = measure.build_reversal(pair, max_reversals=k)
        want = (c * c / 3.0) * (1.0 - q_sq ** (k + 1)) / (1.0 - q_sq)
        got = measure.analytic_success(pair, psi, (1, 0), policy)
        assert abs(got - want) < 1e-12


def test_empirical_rate_matches_analytic():
    pair = measure.build_pair(gates.nand(), 0.6)
    policy = measure.build_reversal(pair, max_reversals=3)
    psi = basis_state(2, 0b11)
    rng = np.random.default_rng(11)
    trials = 20000
    hits = sum(
        measure.run_with_reversal(pair, policy, psi, (1, 0), rng).outcome == "success"
        for _ in range(trials)
    )
    p = measure.analytic_success(pair, psi, (1, 0), policy)
    sigma = np.sqrt(p * (1.0 - p) / trials)
    assert abs(hits / trials - p) < 4.0 * sigma
