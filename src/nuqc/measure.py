"""Two-outcome measurements that realize nonunitary gates, plus reversal.

A gate N scaled so its largest singular value is 1 becomes the success
operator M0 = c N of a generalized measurement; the failure operator is
M1 = sqrt(I - M0^dag M0), so M0^dag M0 + M1^dag M1 = I.  Success occurs with
probability |c|^2 <psi|N^dag N|psi> and leaves the register in the state N
would have produced.

After a failure the register can be measured again with the reversing pair
R0 = q M1^{-1}, R1 = sqrt(I - R0^dag R0), legal for 0 < |q| <= sqrt(1-|c|^2).
An R0 outcome restores the pre-measurement state exactly, so the main
measurement can simply be retried; chaining up to k reversals raises the
overall success probability to p * (1-|q|^(2k+2)) / (1-|q|^2).

Every runner draws the protocol with :func:`draw_trials`, against the
closed-form masses of :func:`thresholds` instead of applying M1, R0 or R1: a
sampled run as one trial, an ensemble as arrays of them.  The state-vector
sampler :func:`run_with_reversal` is their reference.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateBranchError, IrreversibleError, MeasurementError
from .gates import UNITARY_ATOL, GateSpec
from .linops import PSD_CLAMP, max_abs, sqrtm_psd
from .qstate import StateVector, apply_embedded, norm_sq, normalize

SUCCESS = "success"
FAILURE = "failure"

# Eigenvalues of M1 below this cannot be inverted trustworthily.
INVERSION_FLOOR = 1e-12

# A sampled branch with less probability mass than this is numerical noise.
DEGENERATE_MASS = 1e-12

# How far each bound of the strength rule (check_strengths) gives way.
STRENGTH_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class MeasurementPair:
    """Success/failure operator pair realizing ``gate`` at strength ``c``."""

    gate: GateSpec
    c: complex
    m0: np.ndarray
    m1: np.ndarray


@dataclass(frozen=True, eq=False)
class ReversalPolicy:
    """Reversing pair plus the retry budget ``max_reversals``."""

    q: complex
    max_reversals: int
    r0: np.ndarray
    r1: np.ndarray


class ProtocolResult(NamedTuple):
    outcome: str
    state: StateVector
    attempts: int
    reversals: int
    first_success_mass: float


class Thresholds(NamedTuple):
    """Branch masses that decide the protocol on one fixed pre-measurement state.

    ``restore`` and ``spoil`` are the reversal masses |R0 psi'|^2 and
    |R1 psi'|^2 on psi' = normalize(M1 psi); both are 0 when the budget is 0
    or the failure branch is degenerate, since no reversal is then drawn.
    """

    success: float
    failure: float
    restore: float
    spoil: float
    budget: int


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    a.flags.writeable = False
    return a


def check_strengths(c: complex, q: complex | None = None,
                    reversal: bool = False) -> complex | None:
    """The rule for legal strengths; returns the ``reversal`` strength, or None without one.

    |c| lies in (0, 1]; a reversal needs 1 - |c|^2 > 0 and |q| in (0, sqrt(1 - |c|^2)],
    the optimum that ``q=None`` resolves to.  Each bound gives way by ``STRENGTH_SLACK``.
    Raises ``IrreversibleError`` when no reversal exists, else ``MeasurementError``.
    """
    if not STRENGTH_SLACK < abs(c) <= 1.0 + STRENGTH_SLACK:
        raise MeasurementError(
            f"c must lie in ({STRENGTH_SLACK!r}, 1 + {STRENGTH_SLACK!r}] in magnitude, got {c!r}")
    if not reversal:
        return None
    bound_sq = 1.0 - abs(c) * abs(c)
    if bound_sq <= STRENGTH_SLACK:
        raise IrreversibleError(
            "reversal requires c < 1 (failure operator must be invertible): "
            f"1 - |c|^2 must exceed {STRENGTH_SLACK!r}, got c = {c!r}")
    bound = math.sqrt(bound_sq)
    if q is None:
        return bound
    if not STRENGTH_SLACK < abs(q) <= bound + STRENGTH_SLACK:
        raise MeasurementError(
            f"q must lie in ({STRENGTH_SLACK!r}, sqrt(1-|c|^2) + {STRENGTH_SLACK!r}] in "
            f"magnitude, where sqrt(1-|c|^2) = {bound!r}, got {q!r}")
    return q


def build_pair(gate: GateSpec, c: complex = 1.0) -> MeasurementPair:
    """Construct the measurement operators for ``gate`` at strength ``c``."""
    check_strengths(c)
    c = complex(c)
    m0 = c * gate.matrix
    eye = np.eye(m0.shape[0], dtype=np.complex128)
    # gate factories accept singular values up to 1 + UNITARY_ATOL, which puts
    # eigenvalues of I - M0^dag M0 down to about -2 UNITARY_ATOL at |c| = 1
    m1 = sqrtm_psd(eye - m0.conj().T @ m0, tol=2 * UNITARY_ATOL + PSD_CLAMP)
    return MeasurementPair(gate=gate, c=c, m0=_frozen(m0), m1=_frozen(m1))


def success_prob(pair: MeasurementPair, state: StateVector, targets: Sequence[int]) -> float:
    """Single-attempt success probability on ``state``."""
    return norm_sq(apply_embedded(state, pair.m0, targets))


def _check_mass(outcome: str, mass: float) -> None:
    if mass < DEGENERATE_MASS:
        raise DegenerateBranchError(
            f"sampled {outcome} branch carries probability {mass:.3e}"
        )


def _sample_two_outcome(op_success, op_failure, state, targets, rng) -> tuple[str, StateVector]:
    kept = apply_embedded(state, op_success, targets)
    p = norm_sq(kept)
    if rng.random() < p:
        branch, mass, outcome = kept, p, SUCCESS
    else:
        branch, outcome = apply_embedded(state, op_failure, targets), FAILURE
        mass = norm_sq(branch)
    _check_mass(outcome, mass)
    return outcome, normalize(branch, mass)


def sample(pair: MeasurementPair, state: StateVector, targets: Sequence[int],
           rng) -> tuple[str, StateVector]:
    """Draw one outcome; consumes one uniform, ``rng.random()``, as from ``trial_rng``."""
    return _sample_two_outcome(pair.m0, pair.m1, state, targets, rng)


def build_reversal(pair: MeasurementPair, q: complex | None = None,
                   max_reversals: int = 0) -> ReversalPolicy:
    """Construct the reversing measurement for ``pair``; :func:`check_strengths` checks ``q``.

    Raises ``IrreversibleError`` also when M1 has an eigenvalue below ``INVERSION_FLOOR``.
    """
    if max_reversals < 0:
        raise MeasurementError(f"max_reversals must be >= 0, got {max_reversals}")
    q = complex(check_strengths(pair.c, q, reversal=True))
    w, v = np.linalg.eigh(pair.m1)
    if w.min() < INVERSION_FLOOR:
        raise IrreversibleError(
            f"failure operator has eigenvalue {w.min():.3e}; inverse is untrustworthy"
        )
    m1_inv = (v / w) @ v.conj().T
    r0 = q * m1_inv
    eye = np.eye(r0.shape[0], dtype=np.complex128)
    # a gate's singular values up to 1 + UNITARY_ATOL put eigenvalues of
    # I - R0^dag R0 down to about -2 UNITARY_ATOL |c|^2 / (1 - |c|^2) at the optimal q
    c_sq = abs(pair.c) ** 2
    r1 = sqrtm_psd(eye - r0.conj().T @ r0, tol=2 * UNITARY_ATOL * c_sq / (1.0 - c_sq) + PSD_CLAMP)
    return ReversalPolicy(q=q, max_reversals=int(max_reversals),
                          r0=_frozen(r0), r1=_frozen(r1))


def sample_reversal(policy: ReversalPolicy, state: StateVector, targets: Sequence[int],
                    rng) -> tuple[str, StateVector]:
    """Draw one reversing-measurement outcome after a failure, as :func:`sample` does."""
    return _sample_two_outcome(policy.r0, policy.r1, state, targets, rng)


def run_with_reversal(pair: MeasurementPair, policy: ReversalPolicy | None,
                      state: StateVector, targets: Sequence[int],
                      rng) -> ProtocolResult:
    """Attempt the gate, reversing failures until the budget runs out.

    ``attempts`` counts main-measurement samples, ``reversals`` counts
    reversing samples.  The returned state is the post-measurement state of
    whichever branch ended the protocol.  ``first_success_mass`` is
    |M0 state|^2, the single-attempt success probability.
    """
    budget = policy.max_reversals if policy is not None else 0
    attempts = reversals = 0
    first_mass = success_prob(pair, state, targets)
    while True:
        attempts += 1
        outcome, post = sample(pair, state, targets, rng)
        if outcome == SUCCESS:
            return ProtocolResult(SUCCESS, post, attempts, reversals, first_mass)
        if reversals == budget:
            return ProtocolResult(FAILURE, post, attempts, reversals, first_mass)
        reversals += 1
        r_outcome, state = sample_reversal(policy, post, targets, rng)
        if r_outcome == FAILURE:
            return ProtocolResult(FAILURE, state, attempts, reversals, first_mass)


def thresholds(policy: ReversalPolicy | None, success_mass: float) -> Thresholds:
    """Branch masses of the protocol on a unit pre-state whose success mass is ``success_mass``.

    M0^dag M0 + M1^dag M1 = I makes the failure mass ``1 - success_mass``;
    R0 M1 = q I makes the restore mass |q|^2 / failure, clamped at 1, and
    restores the state exactly, so the masses hold for every retry.
    """
    failure = 1.0 - success_mass
    budget = policy.max_reversals if policy is not None else 0
    if budget == 0 or failure < DEGENERATE_MASS:
        return Thresholds(success_mass, failure, 0.0, 0.0, budget)
    restore = min(abs(policy.q) ** 2 / failure, 1.0)
    return Thresholds(success_mass, failure, restore, 1.0 - restore, budget)


def _surviving(rows: np.ndarray, outcome: str, mass: float, raised: list) -> np.ndarray:
    """``rows`` that drew a branch of ``mass``; none if that branch is degenerate.

    Trials landing on a degenerate branch stop there, as ``run_with_reversal``
    raises for them; ``raised`` keeps the lowest of them with the branch.
    """
    if mass < DEGENERATE_MASS and rows.size:
        raised.append((int(rows.min()), outcome, mass))
        return rows[:0]
    return rows


def draw_trials(plan: Sequence[tuple[int, Thresholds]], streams,
                n: int) -> tuple[int, int, Counter]:
    """Successes, reversals and failures by step of trials ``0..n-1`` drawn against ``plan``.

    ``plan`` holds each measured step's position and :func:`thresholds` on the
    all-success branch, where every surviving trial sits (R0 M1 = q I), and
    ``streams.draw(rows)`` gives the next uniform of each selected trial.  One
    array pass per draw; each trial draws exactly when ``run_with_reversal``
    would, so it ends as it does alone, and a sampled run is one trial of it.
    If trials land on a degenerate branch, the lowest one's error is raised,
    as running them one by one would.
    """
    alive = np.arange(n)
    reversals = 0
    failures: Counter = Counter()
    raised: list = []
    for i, (success, failure, restore, spoil, budget) in plan:
        passed = []
        failed = 0
        pending = alive
        used = 0
        while pending.size:
            hit = streams.draw(pending) < success
            passed.append(_surviving(pending[hit], SUCCESS, success, raised))
            missed = _surviving(pending[~hit], FAILURE, failure, raised)
            if used == budget:
                failed += missed.size
                break
            used += 1
            reversals += missed.size
            back = streams.draw(missed) < restore
            pending = _surviving(missed[back], SUCCESS, restore, raised)
            failed += _surviving(missed[~back], FAILURE, spoil, raised).size
        if failed:
            failures[i] += failed
        alive = np.sort(np.concatenate(passed))
        if not alive.size:
            break
    if raised:
        _check_mass(*min(raised)[1:])
    return alive.size, reversals, failures


def protocol_success(p: float, policy: ReversalPolicy | None) -> float:
    """Overall success probability from the single-attempt probability ``p``.

    With k allowed reversals it grows to p * (1 - |q|^(2k+2)) / (1 - |q|^2);
    at the optimal q this approaches the strength-1 probability as k grows.
    Where |q|^2 is exactly 1 (1 - |c|^2 rounds to 1 for |c| below about 1e-8),
    it is the limit p * (k + 1).
    """
    if policy is None or policy.max_reversals == 0:
        return p
    q_sq = abs(policy.q) ** 2
    k = policy.max_reversals
    if q_sq == 1.0:
        return p * (k + 1)
    return p * (1.0 - q_sq ** (k + 1)) / (1.0 - q_sq)


def analytic_success(pair: MeasurementPair, state: StateVector, targets: Sequence[int],
                     policy: ReversalPolicy | None = None) -> float:
    """Overall protocol success probability on ``state``, including budgeted reversals."""
    return protocol_success(success_prob(pair, state, targets), policy)


def completeness_defect(pair: MeasurementPair) -> float:
    """Max-norm residual of M0^dag M0 + M1^dag M1 - I."""
    eye = np.eye(pair.m0.shape[0])
    return max_abs(pair.m0.conj().T @ pair.m0 + pair.m1.conj().T @ pair.m1 - eye)
