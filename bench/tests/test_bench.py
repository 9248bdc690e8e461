"""Tests of the benchmark itself: each output check can fail, the reference
samples inside calls and disarms after them, the tracer patches and restores
every name, and a toy-size run of every workload passes.

Run from the root of a checkout:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

nuqc = run.load_nuqc()

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _synth_netlist(tmp_path, n: int, mode: str, seed: int = 0):
    rng = np.random.default_rng(seed)
    dim = 1 << n
    matrix = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    path = str(tmp_path / f"m{n}.mat")
    out = str(tmp_path / f"{mode}{n}.nl")
    workloads.write_matrix_file(path, matrix)
    call = workloads.Call(["synth", path, "--mode", mode, "--out", out, "--json"], "synth")
    (result,) = run.run_pass(nuqc.cli, [call])
    return result, out, matrix


def test_synth_check_passes_and_rejects_stray_projector(tmp_path):
    result, out, matrix = _synth_netlist(tmp_path, 5, "bare")
    assert workloads.check_synth(result, out, matrix, 0, nuqc.synth.read_netlist) is None
    with open(out, "a", encoding="utf-8") as fh:
        fh.write("N1(0) 0\n")
    corrupted = nuqc.synth.read_netlist(out)
    error = workloads.target_frame_error(corrupted, matrix, np.random.default_rng(0))
    assert error > 1e3 * workloads.TARGET_FRAME_TOL


def test_synth_check_rejects_ancilla_leak_and_json_mismatch(tmp_path):
    result, out, matrix = _synth_netlist(tmp_path, 3, "ancilla")
    netlist = nuqc.synth.read_netlist(out)
    netlist.steps.pop()  # drop the unmarking CKX, which leaves the ancilla set
    error = workloads.target_frame_error(netlist, matrix, np.random.default_rng(0))
    assert error > workloads.TARGET_FRAME_TOL
    doc = json.loads(result.out)
    doc["gates"] += 1
    lying = result._replace(out=json.dumps(doc))
    verdict = workloads.check_synth(lying, out, matrix, 0, nuqc.synth.read_netlist)
    assert verdict is not None and "disagrees" in verdict


@pytest.mark.parametrize("text, expected, reason", [
    ("trials: 2000\nsuccess rate: 0.3 (std error 0.01)\nanalytic probability: 0.1968\n",
     0.1968, "4 sigma"),
    ("trials: 2000\nsuccess rate: 0.2 (std error 0.01)\nanalytic probability: 0.25\n",
     0.1968, "documented"),
    ("trials: 1999\nsuccess rate: 0.2 (std error 0.01)\nanalytic probability: 0.1968\n",
     0.1968, "asked for"),
    ("trials: 2000\n", None, "lacks"),
])
def test_ensemble_check_rejects(text, expected, reason):
    assert reason in workloads.check_ensemble(text, 2000, expected)


def test_ensemble_check_accepts_rate_within_4_sigma():
    text = "trials: 2000\nsuccess rate: 0.2 (std error 0.01)\nanalytic probability: 0.1968\n"
    assert workloads.check_ensemble(text, 2000, 0.1968) is None


def test_mc_check_rejects_pool_output_that_differs(tmp_path):
    workload = workloads.McSmall(5, str(tmp_path), workloads.TOY, pool_jobs=1)
    results = run.run_pass(nuqc.cli, workload.calls)
    assert workload.check(results) == [None] * 4
    results[3] = results[3]._replace(out=results[3].out.replace("trials:", "trials: ", 1))
    assert "differs" in workload.check(results)[3]


def test_wide_checks_reject_wrong_state_and_wrong_search(tmp_path):
    workload = workloads.WideSim(3, str(tmp_path), workloads.TOY)
    results = run.run_pass(nuqc.cli, workload.calls)
    assert workload.check(results) == [None] * len(results)
    branch = workloads.parse_record(results[0].out, workload.n)
    # a sampled success whose final state is a different basis state
    lines = results[0].out.splitlines()
    head = lines[:lines.index("final state:") + 1]
    index = int(np.argmin(np.abs(branch.state)))
    fake = "\n".join(head + [f"{index:0{workload.n}b} 1.0 0.0"]) + "\n"
    verdict = workloads.check_sampled(results[0]._replace(out=fake), workload.n, branch)
    assert "fidelity" in verdict
    wrong_s = results[-1].out.replace("s: 1", "s: 0")
    assert "satisfier" in workloads.check_search(results[-1]._replace(out=wrong_s),
                                                 workload.search_n, 1)
    assert "exit code 3" in workloads.check_search(results[-1]._replace(code=3),
                                                   workload.search_n, 1)


def test_wide_check_rejects_a_sampler_that_always_fails(tmp_path):
    sizes = workloads.Sizes(wide_qubits=8, wide_hadamards=2, sampled_seeds=6, search_n=6)
    workload = workloads.WideSim(3, str(tmp_path), sizes)
    results = run.run_pass(nuqc.cli, workload.calls)
    assert workload.check(results) == [None] * len(results)
    branch = workloads.parse_record(results[0].out, workload.n)
    failure = f"outcome: failure\nfailed at step: 3\ntotal probability: {branch.total!r}\n"
    for i, call in enumerate(workload.calls):
        if call.group == "sampled":
            results[i] = results[i]._replace(code=2, out=failure)
    verdicts = workload.check(results)
    sampled = [v for call, v in zip(workload.calls, verdicts) if call.group == "sampled"]
    assert len(sampled) == 6 and all("only 0 of 6" in v for v in sampled)
    # one success in six is still plausible at that success probability
    assert workloads.check_success_count(1, 6, branch.total) is None


def test_tracer_patches_every_importing_module_and_restores():
    original = nuqc.qstate.apply_embedded
    assert nuqc.circuit.apply_embedded is original and nuqc.measure.apply_embedded is original
    spans = tracer.Tracer()
    with spans.patched(nuqc):
        wrapped = nuqc.qstate.apply_embedded
        assert wrapped is not original
        assert nuqc.circuit.apply_embedded is wrapped and nuqc.measure.apply_embedded is wrapped
        state = nuqc.basis_state(2, 0)
        nuqc.normalize(nuqc.qstate.apply_embedded(state, np.eye(2), (0,)))
    assert nuqc.circuit.apply_embedded is original and nuqc.measure.apply_embedded is original
    totals = spans.layer_totals()
    assert totals["qstate.apply_embedded"][0] == 1
    assert totals["qstate.normalize"][0] == 1 and totals["qstate.norm_sq"][0] == 1
    (_, _, start, end), = [s for s in spans.spans if s[0] == "qstate.normalize"]
    (_, _, c_start, c_end), = [s for s in spans.spans if s[0] == "qstate.norm_sq"]
    expected = (end - start - (c_end - c_start)) / 1e9
    assert totals["qstate.normalize"][1] == pytest.approx(expected)


def test_reference_samples_inside_a_busy_call_and_disarms_after():
    reference = run.Reference()
    previous = signal.getsignal(signal.SIGPROF)
    with reference.sampling() as inside:
        start = time.process_time()
        while time.process_time() - start < 0.2:
            pass
    assert len(inside.samples) >= run.MIN_SAMPLES
    assert 0.0 < inside.handler_s >= sum(inside.samples)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is previous
    with reference.sampling() as idle:
        time.sleep(0.1)  # no CPU time, so no samples
    assert idle.samples == [] and idle.handler_s == 0.0


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_toy_run_passes_and_reports_the_declared_metrics(name, trace):
    lines, result = run.run(name, 7, 0.2, trace, workloads.TOY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        key: metric["unit"] for key, metric in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "_work-*", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc-small",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0 and done.stdout == ""
