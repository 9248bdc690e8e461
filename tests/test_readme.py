"""README's examples run: every ``nuqc`` line of its ``sh`` blocks, and its Python API block."""

import os
import re
import shlex
import shutil

import pytest

from nuqc import cli

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _blocks(language):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def _commands():
    """``(line, argv, exit code)`` of each ``nuqc`` line, in order; ``# exits N`` gives the code."""
    commands = []
    for block in _blocks("sh"):
        for line in block.splitlines():
            if line.startswith("nuqc "):
                documented = re.search(r"#\s*exits (\d+)", line)
                argv = shlex.split(line, comments=True)[1:]
                commands.append((line, argv, int(documented.group(1)) if documented else 0))
    return commands


@pytest.fixture
def demo_dir(tmp_path, monkeypatch):
    shutil.copytree(os.path.join(ROOT, "demos"), tmp_path / "demos")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_readme_commands_exit_as_documented(demo_dir, capsys):
    commands = _commands()
    # in order: a later line runs the netlist an earlier one writes
    for line, argv, code in commands:
        got = cli.main(argv)
        err = capsys.readouterr().err
        assert got == code, f"{line}\nexited {got}\n{err}"
    assert len(commands) >= 10
    assert any(code != 0 for _, _, code in commands)


def test_readme_python_api_block_runs(demo_dir):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert (demo_dir / "nand.qc").is_file()
