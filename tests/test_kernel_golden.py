"""Fixed-seed ``simulate`` output on a 13-qubit register, byte for byte, against a stored corpus.

``data/kernel_golden/wide.qc`` sends every state through the kernel's
wide-register paths: monomial gates on low, high, adjacent and wide-span
targets and dense gates on low, adjacent high and non-adjacent targets.
The files beside it hold the stdout of the commands below as written before
those paths were rebuilt (one BLAS thread).  Every sampled run fails at the
final AL step, whose reversal rarely succeeds, so the sampled files pin the
per-step probabilities of the sampled path and the branch files its final
state.  The corpus is checked again with the transpose path's blocks made
small, so that the same bits must come out of many blocks as of one.
"""

import os

import pytest

from nuqc import cli, qstate

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "kernel_golden")
CIRCUIT = os.path.join(GOLDEN, "wide.qc")
RUNS = {"branch": ["--mode", "branch"]}
RUNS.update({f"sampled_seed{s}": ["--mode", "sampled", "--seed", str(s)] for s in (0, 1, 2)})


def _check_against_the_corpus(name, fmt, capsys):
    with open(os.path.join(GOLDEN, f"{name}.{fmt}"), "rb") as fh:
        expected = fh.read()
    argv = ["simulate", CIRCUIT, *RUNS[name]]
    if fmt == "json":
        argv.append("--json")
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert err == ""
    assert code == (2 if b'"outcome": "failure"' in expected
                    or b"outcome: failure" in expected else 0)
    assert out.encode() == expected


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulate_stdout_matches_the_corpus(name, fmt, capsys):
    _check_against_the_corpus(name, fmt, capsys)


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulate_stdout_in_small_transpose_blocks_matches_the_corpus(name, fmt, capsys,
                                                                       monkeypatch):
    # blocks of 2^9 entries: the dense CU1 step on (7, 0), which the transpose
    # path serves, crosses 16 of them instead of filling one
    monkeypatch.setattr(qstate, "TRANSPOSE_BLOCK_ENTRIES", 1 << 9)
    sizes = []
    transposed = qstate._apply_transposed
    monkeypatch.setattr(qstate, "_apply_transposed",
                        lambda amps, *args: sizes.append(amps.size) or transposed(amps, *args))
    _check_against_the_corpus(name, fmt, capsys)
    assert max(sizes) == 1 << 13
