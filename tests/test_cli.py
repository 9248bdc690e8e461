import ast
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import nuqc
from nuqc import cli, gates, measure
from nuqc.errors import DegenerateBranchError
from nuqc.linops import write_matrix

NAND_CIRCUIT = """
qubits 2
init basis 3
gate NAND 1 0 c=0.6 q=opt k=1
"""

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


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "prog.qc"
    path.write_text(NAND_CIRCUIT, encoding="utf-8")
    return path


@pytest.fixture
def netlist_file(tmp_path):
    path = tmp_path / "xor.nl"
    path.write_text(XOR_NETLIST, encoding="utf-8")
    return path


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_branch(circuit_file, capsys):
    code, out, _ = run_cli(capsys, "simulate", str(circuit_file))
    assert code == 0
    assert "outcome: success" in out
    assert "0.1968" in out


def test_simulate_json_is_valid_and_reproducible(circuit_file, capsys):
    code, out1, _ = run_cli(capsys, "simulate", str(circuit_file), "--json",
                            "--mode", "sampled", "--seed", "3")
    assert code in (0, 2)
    doc = json.loads(out1)
    assert doc["outcome"] in ("success", "failure")
    code2, out2, _ = run_cli(capsys, "simulate", str(circuit_file), "--json",
                             "--mode", "sampled", "--seed", "3")
    assert code2 == code
    assert out2 == out1


def test_simulate_mc(circuit_file, capsys):
    code, out, _ = run_cli(capsys, "simulate", str(circuit_file), "--mode", "mc",
                           "--trials", "400", "--seed", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 400
    assert abs(doc["analytic_probability"] - 0.1968) < 1e-12


def test_simulate_sampled_failure_exit_code(tmp_path, capsys):
    # c=0.9 with no reversals fails most seeds
    path = tmp_path / "prog.qc"
    path.write_text("qubits 2\ninit basis 3\ngate NAND 1 0 c=0.9\n", encoding="utf-8")
    codes = set()
    for seed in range(8):
        code, _, _ = run_cli(capsys, "simulate", str(path), "--mode", "sampled",
                             "--seed", str(seed))
        codes.add(code)
    assert 2 in codes


@pytest.mark.parametrize("mode", ["branch", "sampled"])
def test_a_step_measure_refuses_fails_the_run_at_every_seed(tmp_path, capsys, mode):
    # build_reversal refuses the second step: c times the top singular value
    # rounds to 1, so M1 has the eigenvalue 0 and no inverse; the first step
    # fails for some seeds, which must not end those runs as ordinary failures
    path = tmp_path / "refused.qc"
    path.write_text("qubits 1\ninit uniform\ngate D(1.0000000005,0.5) 0\n"
                    "gate D(1.000000001,0.5) 0 c=0.9999999989999999 k=1\n", encoding="utf-8")
    for seed in range(10):
        code, out, err = run_cli(capsys, "simulate", str(path), "--mode", mode,
                                 "--seed", str(seed))
        assert (code, out) == (1, ""), seed
        assert "failure operator has eigenvalue 0.000e+00" in err


def test_simulate_missing_file(capsys):
    code, _, err = run_cli(capsys, "simulate", "/nonexistent/prog.qc")
    assert code == 1
    assert "error" in err


def test_simulate_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.qc"
    path.write_text("qubits 2\ngate WAT 0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "simulate", str(path))
    assert code == 1
    assert "line 2" in err


def test_degenerate_branch_exit_code(circuit_file, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise DegenerateBranchError("sampled branch mass below threshold")

    monkeypatch.setattr(cli.circuit, "run_sampled", boom)
    code, _, err = run_cli(capsys, "simulate", str(circuit_file), "--mode", "sampled")
    assert code == 3
    assert "branch" in err


def test_degenerate_branch_exit_code_from_an_ensemble(tmp_path, capsys, monkeypatch):
    # |M0|1>|^2 = 0.25e-14, so a drawn success lands on a negligible branch
    path = tmp_path / "tiny.qc"
    path.write_text("qubits 1\ninit basis 1\ngate N1(1e-7) 0 c=0.5\n", encoding="utf-8")
    monkeypatch.setattr(cli.circuit, "_TrialStreams",
                        lambda seed, indices: SimpleNamespace(
                            draw=lambda rows: np.zeros(len(rows))))
    code, out, err = run_cli(capsys, "simulate", str(path), "--mode", "mc", "--trials", "5")
    assert code == 3
    assert "branch" in err and out == ""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_negative_seed_is_a_usage_error_in_an_ensemble(circuit_file, capsys, jobs):
    # and in every sampled run
    for argv in (["simulate", str(circuit_file), "--mode", "mc", "--trials", "5", "--jobs", jobs],
                 ["simulate", str(circuit_file), "--mode", "sampled"],
                 ["demo-al", "--table", "0010", "--mode", "sampled"]):
        code, out, err = run_cli(capsys, *argv, "--seed", "-1")
        assert (code, out, err) == (1, "", "error: expected non-negative integer\n"), argv


@pytest.mark.parametrize("mode", ["branch", "sampled", "mc"])
def test_jobs_below_one_is_a_usage_error_in_every_mode(circuit_file, netlist_file, capsys, mode):
    for argv, jobs in ((["simulate", str(circuit_file)], "0"),
                       (["demo-nand", "--netlist", str(netlist_file), "--m", "2"], "-3")):
        code, out, err = run_cli(capsys, *argv, "--mode", mode, "--trials", "5", "--jobs", jobs)
        assert (code, out, err) == (1, "", f"error: jobs must be >= 1, got {jobs}\n"), argv


@pytest.mark.parametrize("mode", ["branch", "sampled", "mc"])
@pytest.mark.parametrize("c,q", [("1e-11", "opt"), ("7e-9", "opt"), ("1.4e-6", "1")])
def test_a_reversal_strength_of_one_runs_in_every_mode(tmp_path, capsys, mode, c, q):
    # 1 - |c|^2 rounds to 1, so |q|^2 is exactly 1: the closed form is its limit p (k + 1)
    path = tmp_path / "edge.qc"
    path.write_text(f"qubits 1\ngate N1(0.5) 0 c={c} q={q} k=1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", str(path), "--mode", mode, "--trials", "20",
                             "--json")
    assert code == (2 if mode == "sampled" else 0) and err == ""
    doc = json.loads(out)
    p = 2 * float(c) ** 2
    if mode == "mc":
        assert doc["analytic_probability"] == pytest.approx(p, rel=1e-12)
        assert (doc["successes"], doc["mean_reversals"]) == (0, 1.0)
    else:
        assert doc["per_step"][0]["p"] == pytest.approx(p, rel=1e-12)


# runs with a seed in a fresh interpreter, which then reports whether numpy.random was imported
_SEEDED_RUNS = """
import sys
sys.path.insert(0, sys.argv[1])
import nuqc.cli
for argv in (["simulate", sys.argv[2], "--mode", "sampled", "--seed", "3"],
             ["simulate", sys.argv[2], "--mode", "mc", "--trials", "200", "--seed", "3"],
             ["demo-al", "--table", "0010", "--mode", "sampled", "--seed", "3"]):
    assert nuqc.cli.main(argv) in (0, 2), argv
print("numpy.random" in sys.modules)
"""


def test_no_seeded_run_imports_numpy_random(circuit_file):
    src = os.path.dirname(os.path.dirname(os.path.abspath(nuqc.__file__)))
    done = subprocess.run([sys.executable, "-c", _SEEDED_RUNS, src, str(circuit_file)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-2] == "False"


# a 20-qubit run in a fresh interpreter, its kernel passes split in two
_SHARED_RUN = """
import sys, threading
sys.path.insert(0, sys.argv[1])
import nuqc.cli
from nuqc import shares
shares.CORES = 2
code = nuqc.cli.main(["simulate", sys.argv[2]])
print(code, sum(t.name == "nuqc-share" and t.daemon for t in threading.enumerate()))
"""


def test_a_run_with_a_share_worker_exits_promptly(tmp_path):
    path = tmp_path / "wide.qc"
    path.write_text("qubits 20\ninit basis 0\ngate X 19\ngate N1(0.7) 19 c=0.9 q=opt k=1\n"
                    "gate CNOT 19 0\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nuqc.__file__)))
    done = subprocess.run([sys.executable, "-c", _SHARED_RUN, src, str(path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.split("\n")
    assert [line.split()[0] for line in lines if line.endswith(" 0.0")] == ["1" + "0" * 18 + "1"]
    # the worker that took the other shares was alive and did not hold the exit
    assert lines[-2] == "0 1"


# runs in a fresh interpreter, reporting after each whether nuqc.synth and
# nuqc.apps have executed and whether json is imported
_LAZY_RUNS = """
import contextlib, io, os, sys
sys.path.insert(0, sys.argv[1])
import nuqc.cli

def executed():
    # reading the namespace this way does not trigger a lazy module's load
    return [name for name, probe in (("synth", "synthesize"), ("apps", "compile_nand"))
            if probe in object.__getattribute__(sys.modules["nuqc." + name], "__dict__")]

def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = nuqc.cli.main(list(argv))
    return code, buf.getvalue(), executed(), "json" in sys.modules

seen = {"import": executed()}
seen["mc"] = run("simulate", sys.argv[2], "--mode", "mc", "--trials", "50")
seen["probe"] = run("probe", "NAND")
os.chdir(sys.argv[3])
seen["synth"] = run("synth", "m2.mat", "--out", "bare2.nl", "--json")
seen["demo-al"] = run("demo-al", "--table", "00000100", "--json")
print(repr(seen))
"""


def test_simulate_and_probe_never_execute_synth_or_apps(circuit_file, tmp_path):
    golden = os.path.join(os.path.dirname(__file__), "data")
    shutil.copy(os.path.join(golden, "synth_golden", "m2.mat"), tmp_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nuqc.__file__)))
    done = subprocess.run([sys.executable, "-c", _LAZY_RUNS, src, str(circuit_file),
                           str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = ast.literal_eval(done.stdout)
    assert seen["import"] == []
    code, out, executed, has_json = seen["mc"]
    assert (code, executed, has_json) == (0, [], False) and out.startswith("trials: 50\n")
    code, out, executed, has_json = seen["probe"]
    assert (code, executed, has_json) == (0, [], False) and out.startswith("label: NAND\n")
    # the first synth and demo-al calls load the modules and print what an eager import does
    code, out, executed, _ = seen["synth"]
    assert (code, executed) == (0, ["synth"])
    with open(os.path.join(golden, "synth_golden", "bare2.json"), encoding="utf-8") as fh:
        want = json.load(fh)
    got = json.loads(out)
    assert got.pop("residual") <= 1e-12
    want.pop("residual")
    assert got == want
    for name in ("bare2.nl", "bare2.nl.g0.mat", "bare2.nl.g26.mat"):
        with open(os.path.join(golden, "synth_golden", name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
    code, out, executed, _ = seen["demo-al"]
    assert (code, executed) == (0, ["synth", "apps"])
    with open(os.path.join(golden, "cli_golden", "demo_al_branch.json"), "rb") as fh:
        assert out.encode() == fh.read()


def test_usage_errors(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 1
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "simulate", "--help")[0] == 0


def test_synth_stdout_for_expressible_netlist(tmp_path, capsys):
    path = tmp_path / "cn1.mat"
    write_matrix(path, np.diag([1.0, 1.0, 1.0, 0.25]))
    code, out, _ = run_cli(capsys, "synth", str(path))
    assert code == 0
    assert "reconstruction residual" in out
    assert "N1(" in out


def test_synth_requires_out_for_raw_matrices(tmp_path, capsys):
    path = tmp_path / "nand.mat"
    write_matrix(path, gates.nand().matrix)
    code, _, err = run_cli(capsys, "synth", str(path))
    assert code == 1
    assert "--out" in err


def test_synth_round_trip(tmp_path, capsys):
    from nuqc import synth
    from nuqc.linops import read_matrix

    mat = tmp_path / "nand.mat"
    write_matrix(mat, gates.nand().matrix)
    out_path = tmp_path / "nand.netlist"
    code, out, _ = run_cli(capsys, "synth", str(mat), "--out", str(out_path),
                           "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] < 1e-8
    net = synth.read_netlist(out_path)
    assert synth.reconstruction_residual(net, read_matrix(mat)) < 1e-8


def test_synth_ancilla_mode(tmp_path, capsys):
    mat = tmp_path / "nand.mat"
    write_matrix(mat, gates.nand().matrix)
    out_path = tmp_path / "nand.netlist"
    code, out, _ = run_cli(capsys, "synth", str(mat), "--mode", "ancilla",
                           "--out", str(out_path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["qubits"] == 4
    assert doc["scale"] == 1.0


def test_synth_unnormalized_input_is_rescaled(tmp_path, capsys):
    mat = tmp_path / "big.mat"
    write_matrix(mat, np.diag([3.0, 1.0]))
    code, out, _ = run_cli(capsys, "synth", str(mat), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["normalization_scale"] == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("mode", ["bare", "ancilla"])
def test_synth_out_runs_under_simulate(tmp_path, capsys, mode):
    rng = np.random.default_rng(4)
    mat = tmp_path / "m.mat"
    write_matrix(mat, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    out_path = tmp_path / "f.nl"
    code, _, _ = run_cli(capsys, "synth", str(mat), "--mode", mode, "--out", str(out_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "simulate", str(out_path))
    assert code == 0
    assert "outcome: success" in out


def test_synth_over_tolerance_writes_nothing(tmp_path, capsys):
    mat = tmp_path / "nand.mat"
    write_matrix(mat, gates.nand().matrix)
    out_path = tmp_path / "nand.netlist"
    code, _, err = run_cli(capsys, "synth", str(mat), "--out", str(out_path),
                           "--tolerance", "1e-300")
    assert code == 1
    assert "exceeds tolerance" in err
    assert not out_path.exists()
    assert not list(tmp_path.glob("nand.netlist.g*.mat"))


@pytest.mark.parametrize("residual", [float("nan"), float("inf")])
def test_synth_nonfinite_residual_writes_nothing(tmp_path, capsys, monkeypatch, residual):
    from nuqc import synth
    monkeypatch.setattr(synth, "reconstruction_residual", lambda netlist, target: residual)
    mat = tmp_path / "m.mat"
    write_matrix(mat, np.random.default_rng(5).normal(size=(4, 4)))
    out_path = tmp_path / "m.netlist"
    code, _, err = run_cli(capsys, "synth", str(mat), "--out", str(out_path))
    assert code == 1
    assert err == (f"error: reconstruction residual {residual!r} exceeds tolerance "
                   f"{synth.RESIDUAL_ATOL!r}; nothing written\n")
    assert not out_path.exists()
    assert not list(tmp_path.glob("m.netlist.g*.mat"))


def test_synth_and_approx_read_their_defaults_when_they_run(tmp_path, capsys, monkeypatch):
    # the parser leaves --tolerance and --budget at None, so building it touches no synth name
    from nuqc import synth
    monkeypatch.setattr(synth, "reconstruction_residual", lambda netlist, target: 2e-8)
    mat = tmp_path / "nand.mat"
    write_matrix(mat, gates.nand().matrix)
    out_path = tmp_path / "nand.netlist"
    code, _, err = run_cli(capsys, "synth", str(mat), "--out", str(out_path))
    assert (code, err) == (1, "error: reconstruction residual 2e-08 exceeds tolerance "
                              "1e-08; nothing written\n")
    assert not out_path.exists()
    code, _, err = run_cli(capsys, "synth", str(mat), "--out", str(out_path), "--tolerance", "1e-7")
    assert (code, err) == (0, "") and out_path.exists()
    budgets = []
    approximate = synth.approximate_n1

    def spy(*args, budget):
        budgets.append(budget)
        return approximate(*args, budget=budget)

    monkeypatch.setattr(synth, "approximate_n1", spy)
    argv = ("approx", "--a", "0.3", "--alpha", "0.5", "--gamma", str(np.sqrt(2.0)),
            "--eps", "0.01")
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, *argv, "--budget", "1000")[0] == 0
    assert budgets == [synth.DEFAULT_EXPONENT_BUDGET, 1000]


def test_approx_reference_point(capsys):
    code, out, _ = run_cli(capsys, "approx", "--a", "0.3", "--alpha", "0.5",
                           "--gamma", str(np.sqrt(2.0)), "--eps", "0.01", "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["m"], doc["l"]) == (9, -11)
    assert doc["log_residual"] < 0.01


def test_approx_text_shows_the_json_fields(capsys):
    argv = ("approx", "--a", "0.3", "--alpha", "0.5", "--gamma", str(np.sqrt(2.0)),
            "--eps", "0.01")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    doc = json.loads(run_cli(capsys, *argv, "--json")[1])
    assert out.splitlines() == [
        f"m: {doc['m']}", f"l: {doc['l']}", f"realized: {doc['realized']!r}",
        f"log-domain residual: {doc['log_residual']!r}", f"gates: {doc['gates']}",
        f"scale: {doc['scale']!r}"]
    assert (doc["m"], doc["l"]) == (9, -11)


def test_approx_budget_exhaustion(capsys):
    code, _, err = run_cli(capsys, "approx", "--a", "0.3", "--alpha", "0.5",
                           "--gamma", str(np.sqrt(2.0)), "--eps", "1e-9",
                           "--budget", "40")
    assert code == 1
    assert "error" in err


def test_approx_scale_overflow_is_an_error(capsys):
    code, _, err = run_cli(capsys, "approx", "--a", "0.3", "--alpha", "0.5",
                           "--gamma", "1.4142135623730951", "--eps", "1e-4")
    assert code == 1
    assert err.startswith("error:") and "overflows" in err


def test_demo_nand(netlist_file, capsys):
    code, out, _ = run_cli(capsys, "demo-nand", "--netlist", str(netlist_file),
                           "--m", "2", "--c", "0.8", "--input", "10")
    assert code == 0
    assert "outputs: s=1" in out
    assert "saved: 2" in out


def test_demo_nand_json(netlist_file, capsys):
    code, out, _ = run_cli(capsys, "demo-nand", "--netlist", str(netlist_file),
                           "--m", "0", "--input", "11", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"] == {"s": 0}
    assert doc["qubit_savings"]["toffoli_route"] == 9


def test_demo_nand_rejects_bad_input(netlist_file, capsys):
    code, _, err = run_cli(capsys, "demo-nand", "--netlist", str(netlist_file),
                           "--m", "0", "--input", "1")
    assert code == 1
    assert "bits" in err


@pytest.mark.parametrize("m", ["0", "1"])
def test_demo_nand_rejects_a_bad_strength_even_without_measured_nands(netlist_file, m, capsys):
    code, _, err = run_cli(capsys, "demo-nand", "--netlist", str(netlist_file),
                           "--m", m, "--c", "7")
    assert code == 1
    assert err.startswith("error: c must lie in")


def test_demo_nand_mc(netlist_file, capsys):
    code, out, _ = run_cli(capsys, "demo-nand", "--netlist", str(netlist_file),
                           "--m", "4", "--c", "0.8", "--mode", "mc",
                           "--trials", "300", "--seed", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 300
    assert abs(doc["analytic_probability"] - (0.64 / 3.0) ** 4) < 1e-12


def test_demo_al_branch(capsys):
    code, out, _ = run_cli(capsys, "demo-al", "--table", "0010", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["s"] == 1
    assert abs(doc["total_probability"] - 1.0 / 36.0) < 1e-12


def test_demo_al_rejects_bad_table(capsys):
    code, _, err = run_cli(capsys, "demo-al", "--table", "012")
    assert code == 1
    assert "error" in err


def test_register_too_large_for_memory_exits_1(tmp_path, capsys, monkeypatch):
    from nuqc import qstate

    monkeypatch.setattr(qstate, "_mem_available", lambda: 48 << 20)
    path = tmp_path / "wide.qc"
    path.write_text("qubits 22\ngate X 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert (code, out) == (1, "")
    assert "22-qubit register needs about 256.0 MiB" in err
    code, out, err = run_cli(capsys, "demo-al", "--table", "0" * (1 << 21))
    assert (code, out) == (1, "")
    assert "22-qubit register" in err
    path.write_text("qubits 20\ngate X 0\n", encoding="utf-8")  # 64 MiB is too much too
    assert run_cli(capsys, "simulate", str(path))[0] == 1
    path.write_text("qubits 18\ngate X 0\n", encoding="utf-8")  # 16 MiB fits
    assert run_cli(capsys, "simulate", str(path))[0] == 0


def test_demo_al_sampled_failure(capsys):
    # p = 1/36; seed 0 fails
    code, out, _ = run_cli(capsys, "demo-al", "--table", "0010",
                           "--mode", "sampled", "--seed", "0")
    assert code == 2
    assert "outcome: failure" in out


def test_probe_text(capsys):
    code, out, _ = run_cli(capsys, "probe", "N1(0.5)", "--c", "0.8",
                           "--q", "opt", "--k", "1")
    assert code == 0
    assert "success operator" in out
    assert "reversal success operator" in out


def test_probe_json(capsys):
    code, out, _ = run_cli(capsys, "probe", "NAND", "--c", "0.6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["arity"] == 2
    assert doc["kind"] == "nonunitary"
    assert len(doc["m1"]) == 4


@pytest.mark.parametrize("q, want_q", [(None, 0.8), ("opt", 0.8), ("0.5", 0.5)])
def test_probe_json_reports_the_reversal(q, want_q, capsys):
    argv = ["probe", "N1(0.5)", "--c", "0.6", "--k", "2", "--json"]
    code, out, _ = run_cli(capsys, *argv + ([] if q is None else ["--q", q]))
    assert code == 0
    doc = json.loads(out)
    pair = measure.build_pair(gates.n1(0.5), 0.6)
    policy = measure.build_reversal(pair, q=None if q in (None, "opt") else float(q),
                                    max_reversals=2)
    assert doc["q"] == pytest.approx(want_q, abs=1e-15)
    for name, matrix in (("r0", policy.r0), ("r1", policy.r1)):
        assert doc[name] == [[[z.real, z.imag] for z in row] for row in matrix.tolist()]


def test_probe_unknown_label(capsys):
    code, _, err = run_cli(capsys, "probe", "WAT")
    assert code == 1
    assert "error" in err


def test_every_traced_function_exists():
    """The benchmark's ``--trace`` wraps these by name; a missing one breaks it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{fn}" for module, functions in tracer.TRACED.items()
               for fn in functions
               if not callable(getattr(importlib.import_module(f"nuqc.{module}"), fn, None))]
    assert missing == []


# the benchmark's --trace 1 entry: a fresh interpreter that imported nuqc.cli alone
_TRACED_RUN = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import nuqc.cli
from tracer import Tracer
tracer = Tracer()
with tracer.patched(nuqc):
    code = nuqc.cli.main(["simulate", sys.argv[3], "--mode", "sampled", "--seed", "3"])
totals = tracer.layer_totals()
print(code, totals["cli.main"][0], totals["circuit.run_sampled"][0])
"""


def test_the_benchmark_tracer_wraps_a_fresh_cli_import():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(nuqc.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, src, os.path.join(root, "bench"),
         os.path.join(root, "demos", "nand_reversal.qc")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, cli_calls, sampled_calls = done.stdout.split("\n")[-2].split()
    assert code in ("0", "2") and (cli_calls, sampled_calls) == ("1", "1")


# the tracer, loaded by path, around a probe call after an mc call, which
# executed neither synth nor apps; then the name bench/run.py reads
_TRACED_AFTER_MC = """
import importlib.util, sys
sys.path.insert(0, sys.argv[1])
import nuqc.cli
assert nuqc.cli.main(["simulate", sys.argv[3], "--mode", "mc", "--trials", "50"]) == 0
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[2])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
with tracer.Tracer().patched(nuqc) as t:
    code = nuqc.cli.main(["probe", "NAND"])
    inside = hasattr(nuqc.synth.synthesize, "__wrapped__")
print(code, inside, hasattr(nuqc.synth.synthesize, "__wrapped__"),
      t.layer_totals()["cli.main"][0], nuqc.synth.read_netlist.__module__)
"""


def test_the_benchmark_tracer_wraps_modules_no_command_has_used(circuit_file):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(nuqc.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_AFTER_MC, src, os.path.join(root, "bench", "tracer.py"),
         str(circuit_file)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-2] == "0 True False 1 nuqc.synth"
