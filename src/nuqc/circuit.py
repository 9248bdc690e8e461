"""Circuit programs over measured gates: parsing, branch tracking, sampling.

A program is a register width, an initial state, and a list of gate steps.
Unitary steps at full strength apply deterministically; everything else runs
as a two-outcome measurement, optionally wrapped in the reversal protocol.
Each runner is one pass along the all-success branch, where a successful
reversal leaves every trajectory still running: ``run_branch`` multiplies its
probabilities, ``run_sampled`` draws one trajectory against its masses, and
``run_ensemble`` draws many seeded trials against them.  Every trial draws
from its own SplitMix64 stream, ``trial_rng(seed, t)``.  The ensemble runs
in this process as array passes over chunks of trials that advance each
stream only when its trial draws, so its output equals that of running the
trials one by one.
Synthesized netlists are programs too, read and written by the same
``parse`` and ``format_program``.
"""

from __future__ import annotations

import operator
import os
from collections import Counter
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import Callable, Iterator, TextIO

import numpy as np

from . import gates, measure
from .errors import (AnnihilatedStateError, CircuitError, CircuitParseError, DomainError,
                     MeasurementError, ShapeError)
from .gates import GateSpec
from .linops import read_matrix
from .measure import MeasurementPair, ReversalPolicy
from .qstate import (
    MAX_QUBITS,
    Buffers,
    StateVector,
    apply_embedded,
    basis_state,
    kernel_passes,
    live_amplitudes,
    load_state,
    norm_sq,
    normalize,
    uniform_state,
)


@dataclass(frozen=True, eq=False)
class CircuitStep:
    """One gate application; ``q=None`` means the optimal reversal strength."""

    gate: GateSpec
    targets: tuple[int, ...]
    c: complex = 1.0
    q: complex | None = None
    max_reversals: int = 0


@dataclass
class CircuitProgram:
    """Register width, steps and initial state (default ``|0...0>``).

    The step product, restricted to ``ancillas`` entering and leaving in |0>,
    is ``scale**-1`` times the operator the program stands for.
    """

    n_qubits: int
    steps: list[CircuitStep]
    initial_state: StateVector | None = None
    init_label: str = "basis 0"
    scale: float = 1.0
    ancillas: tuple[int, ...] = ()

    def __post_init__(self):
        if self.initial_state is None:
            self.initial_state = basis_state(self.n_qubits, 0)
        self._checked_start = None
        self._start()
        self._prepared: dict[tuple, tuple[MeasurementPair | None, ReversalPolicy | None]] = {}

    def _start(self) -> StateVector:
        """``initial_state``, refused unless ``n_qubits`` wide and of norm 1 (``UNITARY_ATOL``).

        A state vector is immutable, so the one that passed is not checked
        again; one assigned in its place is.
        """
        start = self.initial_state
        if start is self._checked_start:
            return start
        if start.n_qubits != self.n_qubits:
            raise ShapeError(f"initial state has {start.n_qubits} qubits, "
                             f"the program {self.n_qubits}")
        mass = norm_sq(start)
        if not abs(mass - 1.0) <= gates.UNITARY_ATOL:
            raise CircuitError(f"initial state has squared norm {mass!r}, not 1")
        self._checked_start = start
        return start

    @property
    def gate_count(self) -> int:
        return len(self.steps)

    def prepared(self, step: CircuitStep) -> tuple[MeasurementPair | None, ReversalPolicy | None]:
        """Measurement pair and reversal policy of ``step``, or ``(None, None)`` if unitary.

        Built once per distinct gate object, ``c``, ``q`` and ``k`` and shared
        by every step that has them, whatever its targets.  Gates are keyed by
        identity, never by label: one label can name different matrices.
        """
        key = (step.gate, step.c, step.q, step.max_reversals)
        found = self._prepared.get(key)
        if found is not None:
            return found
        if (step.gate.is_unitary and abs(step.c - 1.0) <= measure.STRENGTH_SLACK
                and step.max_reversals == 0):
            found = None, None
        else:
            pair = measure.build_pair(step.gate, step.c)
            policy = None
            if step.max_reversals > 0:
                policy = measure.build_reversal(pair, q=step.q, max_reversals=step.max_reversals)
            found = pair, policy
        self._prepared[key] = found
        return found


@dataclass(frozen=True)
class StepRecord:
    label: str
    targets: tuple[int, ...]
    probability: float
    reversals: int


@dataclass
class RunRecord:
    """Outcome of one run; ``total_probability`` is the analytic protocol value."""

    outcome: str
    total_probability: float
    steps: list[StepRecord]
    final_state: StateVector | None
    failed_step: int | None = None


@dataclass
class EnsembleStats:
    trials: int
    successes: int
    success_rate: float
    std_error: float
    mean_reversals: float
    failures_by_step: dict[int, int]
    analytic_probability: float


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the golden gamma and mix64's multipliers.
# The arithmetic stays in uint64 arrays, whose operations wrap silently.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_A, _MIX_B = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_M64 = (1 << 64) - 1
_FIRST = np.zeros(1, dtype=np.intp)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX_A
    z = (z ^ (z >> np.uint64(27))) * _MIX_B
    return z ^ (z >> np.uint64(31))


class _TrialStreams:
    """One SplitMix64 stream per trial, for every ``t`` in the uint64 ``indices``.

    The key starts at 0 and takes each 64-bit word of ``seed``, low first
    (0 is one word): the word is XORed in and the result is replaced by the
    first SplitMix64 output from it, so seeds below 2^64 get distinct keys.
    Trial ``t``'s state is output ``t`` of the key's SplitMix64.
    ``draw(rows)`` adds the golden gamma to each selected trial's state and
    returns ``(mix64(state) >> 11) * 2**-53``, advancing only those trials.
    ``random()`` and ``random(k)`` draw from the first trial, as numpy's
    ``Generator.random`` does.
    """

    def __init__(self, seed: int, indices: np.ndarray):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        key = np.zeros(1, dtype=np.uint64)
        for shift in range(0, max(seed.bit_length(), 1), 64):
            key = _mix64((key ^ np.uint64(seed >> shift & _M64)) + _GAMMA)
        self.states = _mix64(key + (indices + np.uint64(1)) * _GAMMA)

    def draw(self, rows: np.ndarray) -> np.ndarray:
        states = self.states[rows] + _GAMMA
        self.states[rows] = states
        return (_mix64(states) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def random(self, size: int | None = None):
        drawn = [self.draw(_FIRST)[0] for _ in range(1 if size is None else size)]
        return float(drawn[0]) if size is None else np.array(drawn)


def trial_rng(seed: int, index: int) -> _TrialStreams:
    """Independent, reproducible stream for trial ``index`` under ``seed``."""
    return _TrialStreams(seed, np.array([index], dtype=np.uint64))


def _stages(program: CircuitProgram) -> Iterator[tuple]:
    """``program.steps`` in order, as ``(i, steps, pair, policy, op, targets)``.

    ``i`` is the position of ``steps[0]``.  A measured step comes alone with
    its pair and policy; unitary steps come with the ``op`` and ``targets``
    that :func:`~nuqc.qstate.kernel_passes` applies for them.  Every step is
    prepared before the first pass, so a step that ``measure`` refuses fails
    every run, however far its trajectory would have got; and the steps are
    read anew per run, so no change to ``program.steps`` between runs goes unseen.
    """
    steps = program.steps
    prepared = [program.prepared(step) for step in steps]
    ops = ((step.gate.matrix if pair is None else None, step.targets)
           for step, (pair, _) in zip(steps, prepared))
    for start, stop, op, targets in kernel_passes(program.n_qubits, ops):
        pair, policy = (None, None) if op is not None else prepared[start]
        yield start, steps[start:stop], pair, policy, op, targets


def run_branch(program: CircuitProgram) -> RunRecord:
    """Follow the all-success branch, multiplying protocol probabilities."""
    return _follow_branch(program)


Plan = list[tuple[int, measure.Thresholds]]


def _follow_branch(program: CircuitProgram, plan: Plan | None = None,
                   rng: _TrialStreams | None = None) -> RunRecord:
    """``run_branch``; with a ``plan`` list, also append each measured step's thresholds.

    With an ``rng``, each measured step is drawn against its thresholds as
    one trial of ``measure.draw_trials``, whose uniforms ``rng`` gives, and
    the run stops at the first failed one.  The plan ends at a step whose
    branch is annihilated: no trial passes it.
    """
    state = program._start()
    buffers = Buffers(state)
    trial = SimpleNamespace(draw=lambda rows: rng.random(rows.size))
    records: list[StepRecord] = []
    total = 1.0
    for i, steps, pair, policy, op, targets in _stages(program):
        if pair is None:
            state = apply_embedded(state, op, targets, out=buffers.out(state, op))
            records += [StepRecord(s.gate.label, s.targets, 1.0, 0) for s in steps]
            continue
        step = steps[0]
        branch = apply_embedded(state, pair.m0, targets, out=buffers.out(state, pair.m0))
        mass = norm_sq(branch)
        p = measure.protocol_success(mass, policy)
        reversals = step.max_reversals
        th = measure.thresholds(policy, mass)
        if plan is not None:
            plan.append((i, th))
        if rng is not None:
            passed, reversals, _ = measure.draw_trials([(i, th)], trial, 1)
            if not passed:
                records.append(StepRecord(step.gate.label, step.targets, p, reversals))
                return RunRecord("failure", 0.0, records, None, failed_step=i)
        try:
            state = normalize(branch, mass, out=buffers.out(branch))
        except AnnihilatedStateError:
            records.append(StepRecord(step.gate.label, step.targets, 0.0, 0))
            return RunRecord("failure", 0.0, records, None, failed_step=i)
        total *= p
        records.append(StepRecord(step.gate.label, step.targets, p, reversals))
    return RunRecord("success", total, records, state)


def run_sampled(program: CircuitProgram, seed: int = 0,
                rng: _TrialStreams | None = None) -> RunRecord:
    """Sample one trajectory; a failed step aborts the run.

    Each measured step is drawn from ``rng`` as one trial of
    ``measure.draw_trials`` against the masses of the all-success branch, so
    a successful run ends in ``run_branch``'s final state, bit for bit.  With
    the default ``rng`` this is exactly trial 0 of ``run_ensemble`` under the
    same seed.
    """
    return _follow_branch(program, rng=trial_rng(seed, 0) if rng is None else rng)


# Trials per array pass: bounds the stream state's memory at any trial count.
_CHUNK = 1 << 16

def run_ensemble(program: CircuitProgram, seed: int = 0, trials: int = 10000,
                 jobs: int = 1) -> EnsembleStats:
    """Run many independent trials; trial ``t`` draws from ``trial_rng(seed, t)``.

    The trials run in this process, as array passes over chunks of trials.
    ``jobs`` is validated and otherwise unused: results never depended on it.
    """
    if trials < 1:
        raise CircuitError(f"trials must be >= 1, got {trials}")
    if jobs < 1:
        raise CircuitError(f"jobs must be >= 1, got {jobs}")
    plan: Plan = []
    analytic = _follow_branch(program, plan).total_probability
    successes = reversals = 0
    failures: Counter = Counter()
    for start in range(0, trials, _CHUNK):
        stop = min(start + _CHUNK, trials)
        streams = _TrialStreams(seed, np.arange(start, stop, dtype=np.uint64))
        s, r, f = measure.draw_trials(plan, streams, stop - start)
        successes += s
        reversals += r
        failures.update(f)
    rate = successes / trials
    std_error = float(np.sqrt(rate * (1.0 - rate) / trials))
    return EnsembleStats(
        trials=trials,
        successes=successes,
        success_rate=rate,
        std_error=std_error,
        mean_reversals=reversals / trials,
        failures_by_step=dict(sorted(failures.items())),
        analytic_probability=analytic,
    )


def read_number(text: str, kind: type, what: str, lineno: int):
    """``kind(text)``, or a ``CircuitParseError`` about the ``what`` on line ``lineno``."""
    try:
        return kind(text)
    except ValueError:
        raise CircuitParseError(f"bad {what} {text!r}", lineno) from None


def numbered_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """Number (from 1) and tokens of each line of ``text`` that has any; ``#`` starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def _parse_attributes(tokens: list[str], lineno: int) -> tuple[float, float | None, int]:
    """``c``, ``q`` (``opt`` resolved) and ``k`` of a step line, checked by ``measure``."""
    c, q, k = 1.0, None, 0
    for token in tokens:
        name, _, value = token.partition("=")
        if not value:
            raise CircuitParseError(f"bad attribute {token!r}; expected name=value", lineno)
        if name == "c":
            c = read_number(value, float, "strength c", lineno)
        elif name == "q":
            q = (value if value == "opt"
                 else read_number(value, float, "reversal strength q", lineno))
        elif name == "k":
            k = read_number(value, int, "reversal count k", lineno)
            if k < 0:
                raise CircuitParseError(f"k must be >= 0, got {k}", lineno)
        else:
            raise CircuitParseError(f"unknown attribute {name!r}", lineno)
    try:
        optimum = measure.check_strengths(c, None if q == "opt" else q, q is not None or k > 0)
    except MeasurementError as exc:
        raise CircuitParseError(str(exc), lineno) from None
    return c, optimum if q == "opt" else q, k


def _qubit_list(tokens: list[str], n_qubits: int, lineno: int,
                what: str = "target") -> tuple[int, ...]:
    try:
        qubits = tuple(int(t) for t in tokens)
    except ValueError:
        raise CircuitParseError(f"bad {what} list {tokens!r}", lineno) from None
    for t in qubits:
        if not 0 <= t < n_qubits:
            raise CircuitParseError(f"{what} qubit {t} out of range", lineno)
    if len(set(qubits)) != len(qubits):
        raise CircuitParseError(f"duplicate {what}s in {qubits}", lineno)
    return qubits


def parse(text: str, base_dir: str | None = None) -> CircuitProgram:
    """Parse the circuit text format.

    Lines: ``qubits <n>``; then, in any order and each at most once, ``init
    basis <i> | uniform | file <path>``, ``scale <s>`` and ``ancillas <q...>``;
    then steps ``[gate] <LABEL> <targets...> [c=] [q=real|opt] [k=]`` or
    ``matrixgate <path> <targets...> [...]``, shorthand for ``gate MAT(<path>)``.
    ``#`` starts a comment.  Paths resolve relative to ``base_dir``.  Every
    step is prepared before the program is returned, so a step that
    ``measure`` refuses raises ``CircuitParseError`` on its line.
    """

    def resolve(path: str) -> str:
        return os.path.join(base_dir or "", path)  # absolute paths stay as they are

    n_qubits: int | None = None
    init_state: StateVector | None = None
    init_label = "basis 0"
    scale = 1.0
    ancillas: tuple[int, ...] = ()
    headers: set[str] = set()
    steps: list[CircuitStep] = []
    step_lines: list[int] = []
    # one GateSpec per distinct label, so that its steps share one prepared pair
    known_gates: dict[str, GateSpec] = {}
    for lineno, tokens in numbered_lines(text):
        keyword = tokens[0]
        if keyword == "qubits":
            if n_qubits is not None:
                raise CircuitParseError("duplicate qubits line", lineno)
            if len(tokens) != 2:
                raise CircuitParseError("expected 'qubits <n>' alone on its line", lineno)
            n_qubits = read_number(tokens[1], int, "qubit count", lineno)
            if not 1 <= n_qubits <= MAX_QUBITS:
                raise CircuitParseError(
                    f"qubit count must lie in [1, {MAX_QUBITS}], got {n_qubits}", lineno
                )
            continue
        if n_qubits is None:
            raise CircuitParseError("the qubits line must come first", lineno)
        if keyword in ("init", "scale", "ancillas"):
            if keyword in headers:
                raise CircuitParseError(f"duplicate {keyword} line", lineno)
            if steps:
                raise CircuitParseError(f"{keyword} must precede gate lines", lineno)
            headers.add(keyword)
        if keyword == "init":
            if len(tokens) >= 2 and tokens[1] == "basis":
                if len(tokens) != 3:
                    raise CircuitParseError("expected 'init basis <index>'", lineno)
                index = read_number(tokens[2], int, "basis index", lineno)
                if not 0 <= index < (1 << n_qubits):
                    raise CircuitParseError(f"basis index {index} out of range", lineno)
                init_state = basis_state(n_qubits, index)
                init_label = f"basis {index}"
            elif len(tokens) == 2 and tokens[1] == "uniform":
                init_state = uniform_state(n_qubits)
                init_label = "uniform"
            elif len(tokens) == 3 and tokens[1] == "file":
                try:
                    with open(resolve(tokens[2]), "r", encoding="utf-8") as fh:
                        init_state = normalize(load_state(fh.read(), n_qubits))
                except OSError as exc:
                    raise CircuitParseError(f"cannot read state file: {exc}", lineno) from None
                except (AnnihilatedStateError, ValueError) as exc:
                    raise CircuitParseError(str(exc), lineno) from None
                init_label = f"file {tokens[2]}"
            else:
                raise CircuitParseError(
                    "expected 'init basis <i>', 'init uniform' or 'init file <path>'", lineno
                )
            continue
        if keyword == "scale":
            if len(tokens) != 2:
                raise CircuitParseError("expected 'scale <s>'", lineno)
            scale = read_number(tokens[1], float, "scale", lineno)
            if not 0.0 < scale < float("inf"):
                raise CircuitParseError(f"scale must be positive and finite, got {scale!r}",
                                        lineno)
            continue
        if keyword == "ancillas":
            ancillas = _qubit_list(tokens[1:], n_qubits, lineno, "ancilla")
            if not ancillas:
                raise CircuitParseError("expected 'ancillas <q...>'", lineno)
            continue
        if keyword[0].isupper():  # a bare step line: the gate keyword is optional
            tokens.insert(0, "gate")
            keyword = "gate"
        if keyword in ("gate", "matrixgate"):
            if len(tokens) < 2:
                raise CircuitParseError(f"missing gate label on '{keyword}' line", lineno)
            if keyword == "matrixgate":  # shorthand for gate MAT(<path>)
                tokens[:2] = ["gate", f"MAT({tokens[1]})"]
            attr_tokens = [t for t in tokens[2:] if "=" in t]
            target_tokens = [t for t in tokens[2:] if "=" not in t]
            gate = known_gates.get(tokens[1])
            if gate is None:
                try:
                    gate = gates.parse_label(tokens[1], lambda p: read_matrix(resolve(p)))
                except (DomainError, ValueError) as exc:
                    raise CircuitParseError(str(exc), lineno) from None
                except OSError as exc:
                    raise CircuitParseError(f"cannot read matrix file: {exc}", lineno) from None
                known_gates[tokens[1]] = gate
            targets = _qubit_list(target_tokens, n_qubits, lineno)
            if len(targets) != gate.arity:
                raise CircuitParseError(
                    f"gate {gate.label} expects {gate.arity} targets, got {len(targets)}", lineno
                )
            c, q, k = _parse_attributes(attr_tokens, lineno)
            steps.append(CircuitStep(gate, targets, c=c, q=q, max_reversals=k))
            step_lines.append(lineno)
            continue
        raise CircuitParseError(f"unknown directive {keyword!r}", lineno)
    if n_qubits is None:
        raise CircuitParseError("missing qubits line")
    program = CircuitProgram(n_qubits, steps, init_state, init_label, scale, ancillas)
    for step, lineno in zip(steps, step_lines):
        try:
            program.prepared(step)
        except MeasurementError as exc:
            raise CircuitParseError(str(exc), lineno) from None
    return program


MatNamer = Callable[[int, np.ndarray], str]


def format_program(program: CircuitProgram, mat_namer: MatNamer | None = None) -> str:
    """Render ``program`` in the text format that :func:`parse` reads back.

    ``mat_namer(i, matrix)`` stores the matrix of ``MAT(...)`` step ``i`` and
    returns its path; without one, a raw ``MAT(@...)`` step raises ``DomainError``.
    """
    lines = [f"qubits {program.n_qubits}"]
    if program.scale != 1.0:
        lines.append(f"scale {program.scale!r}")
    if program.ancillas:
        lines.append("ancillas " + " ".join(str(q) for q in program.ancillas))
    if program.init_label != "basis 0":
        if program.init_label.partition(" ")[0] not in ("basis", "uniform", "file"):
            raise DomainError(f"initial state {program.init_label!r} has no text form")
        lines.append(f"init {program.init_label}")
    # one line per distinct step (steps hash by identity); MAT(...) steps are named per position
    formatted: dict[CircuitStep, str] = {}
    for i, step in enumerate(program.steps):
        line = formatted.get(step)
        if line is None:
            label = step.gate.label
            per_position = label.startswith("MAT(")
            if per_position:
                if mat_namer is not None:
                    label = f"MAT({mat_namer(i, step.gate.matrix)})"
                elif "@" in label:
                    raise DomainError("program contains raw-matrix gates; write it to a file instead")
            fields = ["gate", label] + [str(t) for t in step.targets]
            if step.c != 1.0:
                fields.append(f"c={step.c!r}")
            if step.q is not None:
                fields.append(f"q={step.q!r}")
            if step.max_reversals:
                fields.append(f"k={step.max_reversals}")
            line = " ".join(fields)
            if not per_position:
                formatted[step] = line
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_file(path) -> CircuitProgram:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read(), base_dir=os.path.dirname(os.fspath(path)) or None)


# one final_state entry as dumps_json indents it in a record document
_AMPLITUDE_JSON = '    {\n      "index": %d,\n      "re": %r,\n      "im": %r\n    }'
_FINAL_STATE_MARK = "\0final_state"


def write_record_json(record: RunRecord, out: TextIO, **extra) -> None:
    """Write a run record and ``extra`` to ``out`` as one ``dumps_json`` document, and a newline.

    The document holds ``outcome``, ``total_probability``, ``per_step``
    (``label``, ``p`` and ``reversals`` of each step), ``final_state`` (an
    ``index``, ``re``, ``im`` entry per amplitude above ``DUMP_THRESHOLD``,
    or null) and, when a step failed, ``failed_step``.  The final state's
    entries are written a chunk of live amplitudes at a time; as one dict
    each and one text, a dense 16-qubit state took 64 state sizes.
    """
    doc = {
        "outcome": record.outcome,
        "total_probability": record.total_probability,
        "per_step": [
            {"label": r.label, "p": r.probability, "reversals": r.reversals}
            for r in record.steps
        ],
        "final_state": None if record.final_state is None else _FINAL_STATE_MARK,
    }
    if record.failed_step is not None:
        doc["failed_step"] = record.failed_step
    text = dumps_json(doc | extra)
    if record.final_state is not None:
        # the keys after final_state hold no gate label, so the mark is the last match
        head, _, tail = text.rpartition(dumps_json(_FINAL_STATE_MARK))
        out.write(head + "[")
        sep = "\n"
        for chunk in live_amplitudes(record.final_state):
            out.write(sep + ",\n".join(_AMPLITUDE_JSON % entry for entry in chunk))
            sep = ",\n"
        text = ("]" if sep == "\n" else "\n  ]") + tail
    out.write(text + "\n")


def stats_to_json(stats: EnsembleStats) -> dict:
    doc = asdict(stats)
    doc["failures_by_step"] = {str(k): v for k, v in stats.failures_by_step.items()}
    return doc


def dumps_json(doc) -> str:
    """Deterministic JSON rendering (stable key order, shortest float repr)."""
    import json  # here, so that runs without --json never import it

    return json.dumps(doc, indent=2)
