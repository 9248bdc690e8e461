"""Two worked applications: a NAND netlist compiler and a satisfiability search.

The compiler maps a classical NAND netlist onto a register, replacing a
topological prefix of the NAND nodes by the measured two-qubit NAND gate
(which consumes both input qubits, freeing one) and the remainder by
Toffoli-style reversible logic with one work qubit each.  The search runner
prepares an oracle-correlated superposition and drives it with the
satisfiability gate, whose per-step success probability is 1/6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gates, measure
from .circuit import (CircuitProgram, CircuitStep, RunRecord, numbered_lines, read_number,
                      run_branch, run_sampled)
from .errors import (
    CircuitParseError,
    DomainError,
    NetlistError,
    ShapeError,
    UnsupportedInstanceError,
)
from .qstate import StateVector, basis_state, check_memory, norm_sq, start_state

_WIRE_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


@dataclass(frozen=True)
class NetlistNode:
    kind: str  # "nand" or "copy"
    outputs: tuple[str, ...]
    inputs: tuple[str, ...]


@dataclass
class NandNetlist:
    n_inputs: int
    nodes: list[NetlistNode]
    outputs: tuple[str, ...]

    @property
    def nand_count(self) -> int:
        return sum(1 for n in self.nodes if n.kind == "nand")


def _check_wire_name(name: str, lineno: int) -> str:
    if not name or set(name) - _WIRE_CHARS or name[0].isdigit():
        raise CircuitParseError(f"bad wire name {name!r}", lineno)
    return name


def parse_nand_netlist(text: str) -> NandNetlist:
    """Parse the netlist format.

    ``inputs <k>`` declares wires in0..in{k-1}; node lines are
    ``w = NAND a b`` and ``w1 w2 = COPY a``; ``outputs w...`` closes the file.
    Wires must be defined before use and each NAND consumes its inputs.
    """
    n_inputs: int | None = None
    nodes: list[NetlistNode] = []
    outputs: tuple[str, ...] | None = None
    live: set[str] = set()
    defined: set[str] = set()
    for lineno, tokens in numbered_lines(text):
        if tokens[0] == "inputs":
            if n_inputs is not None:
                raise CircuitParseError("duplicate inputs line", lineno)
            if len(tokens) != 2:
                raise CircuitParseError("expected 'inputs <k>'", lineno)
            n_inputs = read_number(tokens[1], int, "input count", lineno)
            if n_inputs < 1:
                raise CircuitParseError("need at least one input wire", lineno)
            live = {f"in{i}" for i in range(n_inputs)}
            defined = set(live)
            continue
        if n_inputs is None:
            raise CircuitParseError("the inputs line must come first", lineno)
        if outputs is not None:
            raise CircuitParseError("outputs line must be last", lineno)
        if tokens[0] == "outputs":
            if len(tokens) < 2:
                raise CircuitParseError("outputs line names no wires", lineno)
            for w in tokens[1:]:
                _check_wire_name(w, lineno)
                if w not in live:
                    raise CircuitParseError(f"output wire {w!r} is not live", lineno)
            outputs = tuple(tokens[1:])
            continue
        if "=" not in tokens:
            raise CircuitParseError(f"unrecognized line {' '.join(tokens)!r}", lineno)
        eq = tokens.index("=")
        outs = tuple(_check_wire_name(w, lineno) for w in tokens[:eq])
        rhs = tokens[eq + 1:]
        if not rhs:
            raise CircuitParseError("missing node kind after '='", lineno)
        kind, ins = rhs[0], tuple(rhs[1:])
        if kind == "NAND":
            if len(outs) != 1 or len(ins) != 2:
                raise CircuitParseError("NAND form is 'w = NAND a b'", lineno)
            if ins[0] == ins[1]:
                raise CircuitParseError(
                    "NAND inputs must be distinct wires (use COPY for fanout)", lineno
                )
        elif kind == "COPY":
            if len(outs) != 2 or len(ins) != 1:
                raise CircuitParseError("COPY form is 'w1 w2 = COPY a'", lineno)
            if outs[0] == outs[1]:
                raise CircuitParseError("COPY outputs must be distinct", lineno)
        else:
            raise CircuitParseError(f"unknown node kind {kind!r}", lineno)
        for w in ins:
            _check_wire_name(w, lineno)
            if w not in live:
                state = "already consumed" if w in defined else "undefined"
                raise CircuitParseError(f"wire {w!r} is {state}", lineno)
        for w in outs:
            if w in defined:
                raise CircuitParseError(f"wire {w!r} is already defined", lineno)
        live -= set(ins)
        live |= set(outs)
        defined |= set(outs)
        nodes.append(NetlistNode(kind.lower(), outs, ins))
    if n_inputs is None:
        raise CircuitParseError("missing inputs line")
    if outputs is None:
        raise CircuitParseError("missing outputs line")
    return NandNetlist(n_inputs, nodes, outputs)


def evaluate_netlist(netlist: NandNetlist, bits: Sequence[int]) -> dict[str, int]:
    """Classical reference evaluation; returns the values of all defined wires."""
    if len(bits) != netlist.n_inputs:
        raise NetlistError(f"expected {netlist.n_inputs} input bits, got {len(bits)}")
    values = {f"in{i}": int(b) & 1 for i, b in enumerate(bits)}
    for node in netlist.nodes:
        if node.kind == "nand":
            a, b = (values[w] for w in node.inputs)
            values[node.outputs[0]] = 1 - (a & b)
        else:
            values[node.outputs[0]] = values[node.inputs[0]]
            values[node.outputs[1]] = values[node.inputs[0]]
    return values


def compile_nand(netlist: NandNetlist, m: int, c: float = 1.0,
                 input_bits: Sequence[int] | None = None,
                 input_state: StateVector | None = None
                 ) -> tuple[CircuitProgram, dict[str, int]]:
    """Compile the netlist with its first ``m`` NAND nodes run as quantum gates.

    Input wires sit on qubits 0..k-1.  A quantum NAND leaves its result on the
    first input's qubit (the other comes back as |0> and is retired); a
    Toffoli-stage NAND targets a fresh work qubit raised to |1> by an X gate;
    COPY becomes a CNOT onto a fresh qubit.  The initial register is either a
    basis state from ``input_bits`` (default all ones) or an arbitrary
    ``input_state`` over the input wires with work qubits in |0>.  Steps of
    one kind share one gate object, and with it its prepared measurement.
    Returns the program and the qubit of each wire live after the last node.
    """
    if not 0 <= m <= netlist.nand_count:
        raise NetlistError(f"quantum prefix m={m} must lie in [0, {netlist.nand_count}]")
    measure.check_strengths(c)  # also when no NAND step is measured
    k = netlist.n_inputs
    if input_bits is not None and input_state is not None:
        raise NetlistError("give input_bits or input_state, not both")
    factories = {"cnot": gates.cnot, "nand": gates.nand, "x": gates.x,
                 "ckx": lambda: gates.ckx(2)}
    made = {}
    steps = []

    def emit(kind, *targets):
        if kind not in made:
            made[kind] = factories[kind]()
        steps.append(CircuitStep(made[kind], targets, c=c if kind == "nand" else 1.0))

    wires = {f"in{i}": i for i in range(k)}
    n_qubits = k
    for node in netlist.nodes:
        inputs = [wires.pop(w) for w in node.inputs]
        if node.kind == "copy":
            emit("cnot", inputs[0], n_qubits)
            wires[node.outputs[0]], wires[node.outputs[1]] = inputs[0], n_qubits
            n_qubits += 1
        elif m:  # one of the first m NAND nodes
            m -= 1
            emit("nand", *inputs)
            wires[node.outputs[0]] = inputs[0]
        else:
            emit("x", n_qubits)
            emit("ckx", *inputs, n_qubits)
            wires[node.outputs[0]] = n_qubits
            n_qubits += 1
    if input_state is not None:
        if input_state.n_qubits != k:
            raise NetlistError(
                f"input_state spans {input_state.n_qubits} qubits, netlist has {k} inputs"
            )
        init = start_state(n_qubits, slice(1 << k), input_state.amplitudes)
        init_label = "input state"
    else:
        bits = [1] * k if input_bits is None else [int(b) & 1 for b in input_bits]
        if len(bits) != k:
            raise NetlistError(f"expected {k} input bits, got {len(bits)}")
        index = sum(b << i for i, b in enumerate(bits))
        init = basis_state(n_qubits, index)
        init_label = f"basis {index}"
    return CircuitProgram(n_qubits, steps, init, init_label), wires


def qubit_bit(state: StateVector, qubit: int) -> int:
    """Round the marginal of one qubit to a classical bit."""
    if not 0 <= qubit < state.n_qubits:
        raise ShapeError(f"qubit {qubit} out of range for {state.n_qubits} qubits")
    # axis 1 of this view is the bit of ``qubit`` in the basis index
    upper = state.amplitudes.reshape(-1, 2, 1 << qubit)[:, 1, :]
    prob_one = float(np.sum(np.abs(upper) ** 2))
    total = norm_sq(state)
    return int(prob_one / total > 0.5)


@dataclass(frozen=True, eq=False)
class TruthTableOracle:
    """Boolean function given by its full truth table, kept as a read-only array of bits."""

    n: int
    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if self.n < 1:
            raise ShapeError(f"n must be >= 1, got {self.n}")
        if len(bits) != 1 << self.n:
            raise ShapeError(f"table length {len(bits)} does not match n={self.n}")
        if ((bits != 0) & (bits != 1)).any():
            raise ShapeError("table entries must be bits")
        bits = bits.astype(np.intp)
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruthTableOracle) and self.n == other.n
                and np.array_equal(self.bits, other.bits))

    @property
    def table(self) -> tuple[int, ...]:
        return tuple(self.bits.tolist())

    @property
    def satisfying_count(self) -> int:
        return int(self.bits.sum())


def parse_truth_table(text: str, n: int | None = None) -> TruthTableOracle:
    """Parse a truth table written as one line of 2^n bits, x ascending."""
    bits = text.strip()
    # a character other than 0 and 1 gives a byte above 1 here (uint8 wraps)
    values = np.frombuffer(bits.encode(), dtype=np.uint8) - np.uint8(ord("0"))
    bad = values > 1
    if bad.any():
        i = int(bad.argmax())  # every byte before it is one ASCII bit, so it indexes bits too
        raise ShapeError(f"truth table must be a bit string, got {bits[i]!r} at index {i}")
    width = (len(bits) - 1).bit_length() if bits else 0
    if not bits or (1 << width) != len(bits):
        raise ShapeError(f"truth table length {len(bits)} is not a power of two")
    if n is not None and n != width:
        raise ShapeError(f"table has {len(bits)} rows, expected 2^{n}")
    return TruthTableOracle(width, values)


def search_program(oracle: TruthTableOracle) -> CircuitProgram:
    """Program for the measured satisfiability search.

    The flag qubit is qubit 0 and input bit i of x sits on qubit i+1.  The
    initial state is (1/sqrt(2^n)) sum_x |x>|F(x)>, prepared by direct
    amplitude initialization; the search gate is then applied to each data
    qubit paired with the flag.
    """
    n = oracle.n
    width = n + 1
    check_memory(width)  # before the index array is built
    init = start_state(width, (np.arange(1 << n) << 1) | oracle.bits, 1.0 / math.sqrt(1 << n))
    gate = gates.abrams_lloyd()
    steps = [CircuitStep(gate, (i, 0)) for i in range(1, width)]
    return CircuitProgram(width, steps, init, "oracle superposition")


def abrams_lloyd_run(oracle: TruthTableOracle, mode: str = "branch",
                     seed: int = 0) -> tuple[RunRecord, int | None]:
    """Run the search: the record and ``s``, the flag qubit's bit, or None on failure.

    The flag qubit ends in |s> for instances with s <= 1.  Each of the n
    steps succeeds with probability 1/6, so the all-success branch carries
    probability (1/6)^n.
    """
    if oracle.satisfying_count >= 2:
        raise UnsupportedInstanceError(
            f"search handles s in {{0, 1}}, table has s={oracle.satisfying_count}"
        )
    if mode not in ("branch", "sampled"):
        raise DomainError(f"mode must be 'branch' or 'sampled', got {mode!r}")
    program = search_program(oracle)
    record = run_branch(program) if mode == "branch" else run_sampled(program, seed)
    if record.outcome != "success":
        return record, None
    return record, qubit_bit(record.final_state, 0)
