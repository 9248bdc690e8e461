"""Step-by-step reference runs: every step goes through ``apply_embedded`` alone.

The runners compose permutation runs on wide registers; these oracles never
do, so the tests can hold the runners' states and records to them bit for bit.
"""

from nuqc import circuit, measure
from nuqc.qstate import apply_embedded, norm_sq, normalize


def branch(program):
    """``(final state, per-step records)`` of the all-success branch."""
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
        p = measure.protocol_success(mass, policy)
        records.append(circuit.StepRecord(step.gate.label, step.targets, p,
                                          step.max_reversals))
        state = normalize(branch_state, mass)
    return state, records


def sampled(program, seed):
    """``(final state, per-step records)`` of ``run_sampled``; ``None`` state on failure."""
    rng = circuit.trial_rng(seed, 0)
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
