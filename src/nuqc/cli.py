"""Command-line front end.

Exit codes: 0 success, 1 usage or parse error, 2 sampled-run failure,
3 numerical degeneracy.  All randomness flows through --seed, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys

import numpy as np

from . import circuit, gates, measure
from .errors import CircuitError, DegenerateBranchError, NuqcError
from .linops import format_matrix, read_matrix
from .qstate import dump_state

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUN_FAILED = 2
EXIT_DEGENERATE = 3


def _lazy(name: str):
    """Module ``nuqc.<name>``, compiled and run only at its first attribute access.

    It is in ``sys.modules`` and on the package from here on, as an eager
    import would put it; a module already imported is returned as it is.
    """
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return sys.modules[full]


# only synth, approx, demo-nand and demo-al use these two, so simulate, probe
# and mc runs never compile them
apps = _lazy("apps")
synth = _lazy("synth")

_JOBS_HELP = "accepted for compatibility (must be >= 1); mc runs in this process"


def _matrix_doc(a: np.ndarray) -> list[list[list[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _print_record(record: circuit.RunRecord, as_json: bool) -> None:
    if as_json:
        circuit.write_record_json(record, sys.stdout)
        return
    for i, step in enumerate(record.steps):
        targets = ",".join(str(t) for t in step.targets)
        print(f"step {i}: {step.label} [{targets}] p={step.probability!r} "
              f"reversals={step.reversals}")
    print(f"outcome: {record.outcome}")
    if record.failed_step is not None:
        print(f"failed at step: {record.failed_step}")
    print(f"total probability: {record.total_probability!r}")
    if record.final_state is not None:
        print("final state:")
        dump_state(record.final_state, out=sys.stdout)


def _print_stats(stats: circuit.EnsembleStats, as_json: bool) -> None:
    if as_json:
        print(circuit.dumps_json(circuit.stats_to_json(stats)))
        return
    print(f"trials: {stats.trials}")
    print(f"successes: {stats.successes}")
    print(f"success rate: {stats.success_rate!r} (std error {stats.std_error!r})")
    print(f"mean reversals per trial: {stats.mean_reversals!r}")
    print(f"analytic probability: {stats.analytic_probability!r}")
    if stats.failures_by_step:
        parts = ", ".join(f"step {k}: {v}" for k, v in stats.failures_by_step.items())
        print(f"failures by step: {parts}")


def _run(program: circuit.CircuitProgram, args):
    """Run ``program`` in ``args.mode``; mc prints its statistics and returns None."""
    if args.jobs < 1:
        raise CircuitError(f"jobs must be >= 1, got {args.jobs}")
    if args.mode == "mc":
        stats = circuit.run_ensemble(program, seed=args.seed, trials=args.trials,
                                     jobs=args.jobs)
        _print_stats(stats, args.json)
        return None
    if args.mode == "branch":
        return circuit.run_branch(program)
    return circuit.run_sampled(program, seed=args.seed)


def _cmd_simulate(args) -> int:
    record = _run(circuit.parse_file(args.circuit), args)
    if record is None:
        return EXIT_OK
    _print_record(record, args.json)
    return EXIT_OK if record.outcome == "success" else EXIT_RUN_FAILED


def _cmd_synth(args) -> int:
    name = os.path.basename(args.matrix)
    gate = gates.normalize_gate(read_matrix(args.matrix), label=f"MAT({name})")
    netlist = synth.synthesize(gate, mode=args.mode)
    residual = synth.reconstruction_residual(netlist, gate.matrix)
    tolerance = synth.RESIDUAL_ATOL if args.tolerance is None else args.tolerance
    if not residual <= tolerance:  # a nan residual fails too
        print(f"error: reconstruction residual {residual!r} exceeds tolerance "
              f"{tolerance!r}; nothing written", file=sys.stderr)
        return EXIT_USAGE
    body = None
    if args.out:
        synth.write_netlist(netlist, args.out)
    else:
        try:
            body = circuit.format_program(netlist)
        except NuqcError:
            print("netlist contains raw-matrix gates; rerun with --out", file=sys.stderr)
            return EXIT_USAGE
    if args.json:
        doc = {
            "qubits": netlist.n_qubits,
            "gates": netlist.gate_count,
            "scale": netlist.scale,
            "residual": residual,
            "normalization_scale": gate.normalization_scale,
            "out": args.out,
        }
        if body is not None:
            doc["netlist"] = body
        print(circuit.dumps_json(doc))
    else:
        print(f"qubits: {netlist.n_qubits}")
        print(f"gates: {netlist.gate_count}")
        print(f"scale: {netlist.scale!r}")
        print(f"input normalization factor: {gate.normalization_scale!r}")
        print(f"reconstruction residual: {residual!r}")
        if args.out:
            print(f"netlist written to {args.out}")
        elif body:
            sys.stdout.write(body)
    return EXIT_OK


def _cmd_approx(args) -> int:
    budget = synth.DEFAULT_EXPONENT_BUDGET if args.budget is None else args.budget
    m, l, netlist = synth.approximate_n1(args.a, args.alpha, args.gamma, args.eps,
                                         budget=budget)
    realized = float(args.alpha ** (m * args.gamma + l))
    residual = float(abs(np.log(args.a) / np.log(args.alpha) - (m * args.gamma + l)))
    if args.json:
        doc = {
            "m": m,
            "l": l,
            "realized": realized,
            "log_residual": residual,
            "gates": netlist.gate_count,
            "scale": netlist.scale,
        }
        print(circuit.dumps_json(doc))
    else:
        print(f"m: {m}")
        print(f"l: {l}")
        print(f"realized: {realized!r}")
        print(f"log-domain residual: {residual!r}")
        print(f"gates: {netlist.gate_count}")
        print(f"scale: {netlist.scale!r}")
    return EXIT_OK


def _cmd_demo_nand(args) -> int:
    with open(args.netlist, "r", encoding="utf-8") as fh:
        netlist = apps.parse_nand_netlist(fh.read())
    bits = None
    if args.input is not None:
        if set(args.input) - {"0", "1"} or len(args.input) != netlist.n_inputs:
            print(f"--input must be {netlist.n_inputs} bits", file=sys.stderr)
            return EXIT_USAGE
        bits = [int(b) for b in args.input]
    program, wires = apps.compile_nand(netlist, args.m, c=args.c, input_bits=bits)
    # each quantum NAND retires one qubit the all-reversible route keeps
    all_reversible = program.n_qubits + args.m
    record = _run(program, args)
    if record is None:
        return EXIT_OK
    output_bits = None
    if record.outcome == "success":
        output_bits = {wire: apps.qubit_bit(record.final_state, wires[wire])
                       for wire in netlist.outputs}
    if args.json:
        circuit.write_record_json(record, sys.stdout, outputs=output_bits,
                                  qubits=program.n_qubits, qubit_savings={
                                      "quantum_route": program.n_qubits,
                                      "toffoli_route": all_reversible,
                                      "saved": args.m,
                                  })
    else:
        _print_record(record, False)
        if output_bits is not None:
            rendered = " ".join(f"{w}={b}" for w, b in output_bits.items())
            print(f"outputs: {rendered}")
        print(f"qubits used: {program.n_qubits} "
              f"(all-reversible route: {all_reversible}, saved: {args.m})")
    return EXIT_OK if record.outcome == "success" else EXIT_RUN_FAILED


def _cmd_demo_al(args) -> int:
    oracle = apps.parse_truth_table(args.table, n=args.n)
    record, s = apps.abrams_lloyd_run(oracle, mode=args.mode, seed=args.seed)
    if args.json:
        circuit.write_record_json(record, sys.stdout, s=s)
    else:
        _print_record(record, False)
        if s is not None:
            print(f"s: {s}")
    return EXIT_OK if record.outcome == "success" else EXIT_RUN_FAILED


def _cmd_probe(args) -> int:
    gate = gates.parse_label(args.label, read_matrix)
    pair = None
    policy = None
    if args.c is not None:
        pair = measure.build_pair(gate, args.c)
        if args.q is not None or args.k > 0:
            q = None if args.q in (None, "opt") else float(args.q)
            policy = measure.build_reversal(pair, q=q, max_reversals=args.k)
    if args.json:
        doc = {
            "label": gate.label,
            "arity": gate.arity,
            "kind": gate.kind,
            "logically_reversible": gate.logically_reversible,
            "matrix": _matrix_doc(gate.matrix),
        }
        if pair is not None:
            doc["c"] = abs(pair.c)
            doc["m0"] = _matrix_doc(pair.m0)
            doc["m1"] = _matrix_doc(pair.m1)
        if policy is not None:
            doc["q"] = abs(policy.q)
            doc["r0"] = _matrix_doc(policy.r0)
            doc["r1"] = _matrix_doc(policy.r1)
        print(circuit.dumps_json(doc))
        return EXIT_OK
    print(f"label: {gate.label}")
    print(f"arity: {gate.arity}")
    print(f"kind: {gate.kind}")
    print(f"logically reversible: {gate.logically_reversible}")
    print("matrix:")
    sys.stdout.write(format_matrix(gate.matrix))
    if pair is not None:
        print(f"success operator (c={abs(pair.c)!r}):")
        sys.stdout.write(format_matrix(pair.m0))
        print("failure operator:")
        sys.stdout.write(format_matrix(pair.m1))
    if policy is not None:
        print(f"reversal success operator (q={abs(policy.q)!r}):")
        sys.stdout.write(format_matrix(policy.r0))
        print("reversal failure operator:")
        sys.stdout.write(format_matrix(policy.r1))
    return EXIT_OK


_JSON = ("--json", {"action": "store_true"})
_SEED = ("--seed", {"type": int, "default": 0})
# the options of a command that runs a circuit, from --mode on
_RUN_OPTIONS = (
    ("--mode", {"choices": ["branch", "sampled", "mc"], "default": "branch"}),
    _SEED,
    ("--trials", {"type": int, "default": 10000}),
    ("--jobs", {"type": int, "default": 1, "help": _JOBS_HELP}),
    _JSON,
)

# name -> (help, (argument, add_argument keywords) per argument, run), in the
# order top-level help lists them
_COMMANDS = {
    "simulate": ("run a circuit file", (
        ("circuit", {"help": "circuit file path"}),
        *_RUN_OPTIONS,
    ), _cmd_simulate),
    "synth": ("compile a matrix file to a gate netlist", (
        ("matrix", {"help": "matrix file path"}),
        ("--mode", {"choices": ["bare", "ancilla"], "default": "bare"}),
        ("--out", {"help": "netlist output path"}),
        ("--tolerance", {"type": float}),  # None: synth.RESIDUAL_ATOL
        _JSON,
    ), _cmd_synth),
    "approx": ("two-gate approximation of diag(1, a)", (
        ("--a", {"type": float, "required": True}),
        ("--alpha", {"type": float, "required": True}),
        ("--gamma", {"type": float, "required": True}),
        ("--eps", {"type": float, "required": True}),
        ("--budget", {"type": int}),  # None: synth.DEFAULT_EXPONENT_BUDGET
        _JSON,
    ), _cmd_approx),
    "demo-nand": ("compile and run a NAND netlist", (
        ("--netlist", {"required": True, "help": "NAND netlist file"}),
        ("--m", {"type": int, "required": True, "help": "quantum NAND prefix length"}),
        ("--c", {"type": float, "default": 1.0}),
        ("--input", {"help": "input bits, e.g. 101 (default: all ones)"}),
        *_RUN_OPTIONS,
    ), _cmd_demo_nand),
    "demo-al": ("run the satisfiability search", (
        ("--table", {"required": True, "help": "truth table bits, x ascending"}),
        ("--n", {"type": int, "help": "expected input width (consistency check)"}),
        ("--mode", {"choices": ["branch", "sampled"], "default": "branch"}),
        _SEED,
        _JSON,
    ), _cmd_demo_al),
    "probe": ("print a gate and its measurement operators", (
        ("label", {"help": "gate label, e.g. NAND or N1(0.5)"}),
        ("--c", {"type": float}),
        ("--q", {"help": "reversal strength (number or 'opt')"}),
        ("--k", {"type": int, "default": 0}),
        _JSON,
    ), _cmd_probe),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` with the arguments of command ``name``."""
    for argument, keywords in _COMMANDS[name][1]:
        parser.add_argument(argument, **keywords)
    return parser


def _top_parser() -> argparse.ArgumentParser:
    """The top-level parser, with every subcommand.

    Built only for top-level help, a missing or unknown command, and
    arguments that a command's parser leaves over, whose messages list every
    subcommand or print its usage line.
    """
    parser = argparse.ArgumentParser(
        prog="nuqc",
        description="Simulate and synthesize measurement-driven nonunitary circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of ``argv``: by the parser of the command ``argv[0]`` names, if it names one.

    That parser gives the help, usage and errors the subcommand of the
    top-level parser would.
    """
    if not argv or argv[0] not in _COMMANDS:
        return _top_parser().parse_args(argv)
    parser = _add_arguments(argparse.ArgumentParser(prog=f"nuqc {argv[0]}"), argv[0])
    args, extra = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        _top_parser().error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return _COMMANDS[args.command][2](args)
    except DegenerateBranchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (NuqcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
