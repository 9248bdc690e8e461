"""CLI usage, help and error text, and ``--json`` run output, against a stored corpus.

``data/cli_golden/usage.json`` holds, per argv, the exit code, stdout and
stderr of ``cli.main`` at a terminal width of 80 columns: help of the
top-level parser and of each subcommand, a missing or unknown command, a bad
choice, a missing required option, a bad int and arguments no parser knows.
The other files hold the stdout of the ``--json`` runs in ``RUNS``.
"""

import argparse
import io
import json
import os

import pytest

from nuqc import cli

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "data", "cli_golden")
DEMOS = os.path.join(HERE, os.pardir, "demos")

with open(os.path.join(GOLDEN, "usage.json"), encoding="utf-8") as _fh:
    USAGE = json.load(_fh)

RUNS = {
    "demo_nand_branch.json": (0, ["demo-nand", "--netlist", os.path.join(DEMOS, "xor.nl"),
                                  "--m", "2", "--c", "0.8", "--input", "10"]),
    "demo_al_branch.json": (0, ["demo-al", "--table", "00000100"]),
    "demo_al_sampled.json": (2, ["demo-al", "--table", "0001", "--mode", "sampled",
                                 "--seed", "3"]),
}


@pytest.mark.parametrize("case", USAGE, ids=lambda case: " ".join(case["argv"]) or "(none)")
def test_usage_text_matches_the_corpus(case, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code = cli.main(list(case["argv"]))
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


def test_the_corpus_covers_every_command_and_error_kind():
    argvs = [case["argv"] for case in USAGE]
    assert [] in argvs and ["-h"] in argvs
    assert all([name, "-h"] in argvs for name in cli._COMMANDS)
    errors = "".join(case["stderr"] for case in USAGE)
    for kind in ("invalid choice", "are required", "invalid int value",
                 "unrecognized arguments"):
        assert kind in errors


@pytest.mark.parametrize("name", sorted(RUNS))
def test_json_runs_match_the_corpus(name, capsys):
    want_code, argv = RUNS[name]
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        expected = fh.read()
    code = cli.main([*argv, "--json"])
    out, err = capsys.readouterr()
    assert (code, err) == (want_code, "")
    assert out.encode() == expected


def _count_parsers(monkeypatch) -> list[str]:
    """The ``prog`` of every ``ArgumentParser`` built from now on, subcommand parsers included."""
    made = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    return made


@pytest.mark.parametrize("argv", [["probe", "NAND"], ["approx", "--a", "0.5"],
                                  ["simulate", "-h"]])
def test_a_named_command_builds_only_its_own_parser(argv, monkeypatch, capsys):
    made = _count_parsers(monkeypatch)
    cli.main(argv)
    capsys.readouterr()
    assert made == [f"nuqc {argv[0]}"]


@pytest.mark.parametrize("argv", [[], ["-h"], ["frobnicate"], ["-x", "simulate"]])
def test_top_level_help_and_command_errors_build_every_parser(argv, monkeypatch, capsys):
    made = _count_parsers(monkeypatch)
    cli.main(argv)
    capsys.readouterr()
    assert made == ["nuqc"] + [f"nuqc {name}" for name in cli._COMMANDS]


def test_leftover_arguments_are_reported_by_the_top_level_parser(monkeypatch, capsys):
    made = _count_parsers(monkeypatch)
    assert cli.main(["probe", "X", "extra"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.endswith("nuqc: error: unrecognized arguments: extra\n")
    assert made == ["nuqc probe", "nuqc"] + [f"nuqc {name}" for name in cli._COMMANDS]


def test_no_parser_outlives_a_call(monkeypatch, capsys):
    made = _count_parsers(monkeypatch)
    for _ in range(2):
        assert cli.main(["probe", "X"]) == 0
    capsys.readouterr()
    assert made == ["nuqc probe", "nuqc probe"]


def test_main_reads_sys_argv_without_an_argument(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["nuqc", "probe", "X", "--json"])
    assert cli.main() == 0
    assert json.load(io.StringIO(capsys.readouterr().out))["label"] == "X"
