"""Fixed-seed ``--mode mc`` output, byte for byte, against a stored corpus.

The files under ``data/mc_golden`` hold the stdout of each command below as
written when each trial first drew from its own SplitMix64 stream,
``trial_rng(seed, t)``; ``tests/regen_goldens.py`` rewrites them.
"""

import os

import pytest

from nuqc import cli

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "data", "mc_golden")
DEMOS = os.path.join(HERE, os.pardir, "demos")

COMMANDS = {
    "interference": ["simulate", os.path.join(DEMOS, "interference.qc")],
    "nand_reversal": ["simulate", os.path.join(DEMOS, "nand_reversal.qc")],
    "multi_step": ["simulate", os.path.join(GOLDEN, "multi_step.qc")],
    "xor": ["demo-nand", "--netlist", os.path.join(DEMOS, "xor.nl"), "--m", "2", "--c", "0.8"],
}
SEEDS = (0, 7, 2**32 + 3)


def argv(name, seed, fmt):
    """The command whose stdout the corpus file of ``name`` at ``seed`` in ``fmt`` holds."""
    return ([*COMMANDS[name], "--mode", "mc", "--trials", "3000", "--seed", str(seed)]
            + (["--json"] if fmt == "json" else []))


def test_the_corpus_circuit_is_the_multi_step_test_circuit():
    from test_circuit import MULTI_STEP

    with open(os.path.join(GOLDEN, "multi_step.qc"), encoding="utf-8") as fh:
        assert fh.read() == MULTI_STEP.lstrip("\n")


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_mc_stdout_matches_the_corpus(name, seed, fmt, capsys):
    with open(os.path.join(GOLDEN, f"{name}_seed{seed}.{fmt}"), "rb") as fh:
        expected = fh.read()
    for jobs in ("1", "2"):
        code = cli.main([*argv(name, seed, fmt), "--jobs", jobs])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out.encode() == expected, jobs
