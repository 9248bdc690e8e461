"""Step-by-step reference runs: every step goes through ``apply_embedded`` alone.

The runners compose permutation runs on wide registers; these oracles never
do, so the tests can hold the runners' states and records to them bit for bit.
``replay`` and ``trial`` draw one trial at a time with scalar uniforms.  They
are the reference for every runner's draw, ``measure.draw_trials``: the
ensemble's array passes and a sampled run's one-trial draws.  ``SplitMix64``
and ``trial_stream`` are the per-trial streams on Python ints, the
reference for ``circuit._TrialStreams``.  ``n1_search`` is
the scalar reference for ``synth.approximate_n1``'s chunked search, and
``transposed_whole`` the unblocked transpose path.  The search app's test-only
references and ``is_normalized`` close the module.
"""

import math

import numpy as np

from nuqc import circuit, measure
from nuqc.errors import AnnihilatedStateError, SearchBudgetError
from nuqc.qstate import StateVector, apply_embedded, fidelity, norm_sq, normalize

NORM_ATOL = 1e-10


def branch(program):
    """``(final state, per-step records)`` of the all-success branch.

    As ``run_branch`` does, a step that annihilates the branch ends it: its
    record has ``p = 0.0`` and no reversals, and the state is ``None``.
    """
    state = program.initial_state
    records = []
    for step in program.steps:
        pair, policy = program.prepared(step)
        if pair is None:
            state = apply_embedded(state, step.gate.matrix, step.targets)
            records.append(circuit.StepRecord(step.gate.label, step.targets, 1.0, 0))
            continue
        branch_state = apply_embedded(state, pair.m0, step.targets)
        mass = norm_sq(branch_state)
        try:
            state = normalize(branch_state, mass)
        except AnnihilatedStateError:
            records.append(circuit.StepRecord(step.gate.label, step.targets, 0.0, 0))
            return None, records
        p = measure.protocol_success(mass, policy)
        records.append(circuit.StepRecord(step.gate.label, step.targets, p,
                                          step.max_reversals))
    return state, records


def sampled(program, seed=0, rng=None):
    """``(final state, per-step records)`` of one trajectory; ``None`` state on failure.

    The state-vector sampler: every failure and reversal is applied to the
    state by ``measure.run_with_reversal``.  ``run_sampled`` draws the same
    outcomes against the branch masses instead.
    """
    rng = circuit.trial_rng(seed, 0) if rng is None else rng
    state = program.initial_state
    records = []
    for step in program.steps:
        pair, policy = program.prepared(step)
        if pair is None:
            state = apply_embedded(state, step.gate.matrix, step.targets)
            records.append(circuit.StepRecord(step.gate.label, step.targets, 1.0, 0))
            continue
        result = measure.run_with_reversal(pair, policy, state, step.targets, rng)
        p = measure.protocol_success(result.first_success_mass, policy)
        records.append(circuit.StepRecord(step.gate.label, step.targets, p, result.reversals))
        if result.outcome == measure.FAILURE:
            return None, records
        state = result.state
    return state, records


def replay(th, rng):
    """Draw the protocol against the thresholds ``th``: ``(succeeded, reversals)``.

    Consumes one uniform per main measurement and one per reversal, in the
    order ``run_with_reversal`` does, and raises ``DegenerateBranchError``
    under the same conditions.  No state is evolved.
    """
    success, failure, restore, spoil, budget = th
    reversals = 0
    while True:
        if rng.random() < success:
            measure._check_mass(measure.SUCCESS, success)
            return True, reversals
        measure._check_mass(measure.FAILURE, failure)
        if reversals >= budget:
            return False, reversals
        reversals += 1
        if rng.random() < restore:
            measure._check_mass(measure.SUCCESS, restore)
        else:
            measure._check_mass(measure.FAILURE, spoil)
            return False, reversals


def trial(plan, rng):
    """Failed step (``None`` on success) and reversals of one trial drawn against ``plan``.

    Every surviving trial sits on the all-success branch state (a restored
    reversal gives back the state exactly), so a trial only compares its
    uniforms against the plan's thresholds and evolves no state.  It draws
    the same uniforms as ``run_sampled`` does from the same ``rng``.
    """
    reversals = 0
    for i, th in plan:
        passed, used = replay(th, rng)
        reversals += used
        if not passed:
            return i, reversals
    return None, reversals


M64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def mix64(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & M64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) on Python ints.

    ``next()`` adds the golden gamma to the state and returns its ``mix64``;
    ``random()`` keeps the top 53 bits of that as a uniform in [0, 1).
    """

    def __init__(self, state):
        self.state = state & M64

    def next(self):
        self.state = (self.state + GOLDEN_GAMMA) & M64
        return mix64(self.state)

    def random(self):
        return (self.next() >> 11) * 2.0 ** -53


def seed_key(seed):
    """The key of ``seed``: each 64-bit word, low first, XORed in, then one SplitMix64 output."""
    key = 0
    while True:
        key = SplitMix64(key ^ (seed & M64)).next()
        seed >>= 64
        if not seed:
            return key


def trial_stream(seed, t):
    """Trial ``t``'s stream under ``seed``: seeded with output ``t`` of the key's SplitMix64."""
    return SplitMix64(SplitMix64(seed_key(seed) + t * GOLDEN_GAMMA).next())


def n1_search(a, alpha, gamma, epsilon, budget):
    """``(m, l)`` of ``synth.approximate_n1``, searched one candidate at a time.

    Tries m = 0, 1, -1, 2, -2, ... and picks l by rounding; raises
    ``SearchBudgetError`` once |m| exceeds ``budget``.
    """
    goal = math.log(a) / math.log(alpha)
    m = 0
    while True:
        for candidate in ((m,) if m == 0 else (m, -m)):
            l = round(goal - candidate * gamma)
            if abs(goal - candidate * gamma - l) < epsilon:
                return candidate, int(l)
        m += 1
        if m > budget:
            raise SearchBudgetError(
                f"no (m, l) within epsilon={epsilon!r} for |m| <= {budget}"
            )


def transposed_whole(amps, op, targets):
    """The transpose path unblocked: target axes first, one complex GEMM over the array, axes back.

    The reference for ``qstate._apply_transposed``, which gives its bits
    below ``COPY_FREE_MIN_SIZE`` entries and for complex operators, and its
    values, up to the sign of an exact zero, for real ones above.
    """
    n = amps.shape[0].bit_length() - 1
    psi = amps.reshape((2,) * n + amps.shape[1:])
    axes = [n - 1 - t for t in targets]
    order = axes + [a for a in range(psi.ndim) if a not in axes]
    moved = psi.transpose(order)
    product = (op @ moved.reshape(1 << len(targets), -1)).reshape(moved.shape)
    return product.transpose(np.argsort(order)).reshape(amps.shape)


def flag_basis_fidelity(state, s):
    """Fidelity of ``state`` against (uniform data register) x |s> on the flag."""
    n = state.n_qubits - 1
    amps = np.zeros(1 << state.n_qubits, dtype=np.complex128)
    amps[s::2] = 1.0 / math.sqrt(1 << n)  # the indices (x << 1) | s
    return fidelity(state, StateVector(state.n_qubits, amps, copy=False))


def abrams_lloyd_failure_op():
    """The explicit (non-Hermitian) failure operator quoted for the search gate.

    It differs from the principal square root by left unitary freedom; both
    satisfy M1^dag M1 = I - N^dag N.
    """
    m = np.array(
        [
            [math.sqrt(6.0), 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 2.0, 0.0],
            [0.0, -1.0, 0.0, 2.0],
        ],
        dtype=np.complex128,
    )
    return m / math.sqrt(6.0)


def is_normalized(state, atol=NORM_ATOL):
    return abs(norm_sq(state) - 1.0) <= atol
