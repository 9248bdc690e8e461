"""Each rule has one owner: no module reads another module's private names.

``qstate`` owns the state kernel and its rule for which unitary steps fuse
into one pass; ``measure`` owns the protocol draw and the strength rule.  The
other modules use them through public names only, so a test that patches an
owner's constant changes what every caller does.  Each name has one path:
callers import the modules, and the package binds none of their names but
the two ``bench/tests`` reads through it.  Each numerical
tolerance is one public constant, assigned in one module and listed in the
README's table.
"""

import ast
import importlib
import os
import re
import types

import subprocess
import sys

import pytest

import nuqc
from nuqc import qstate

SRC = os.path.dirname(nuqc.__file__)
MODULES = sorted(name[:-3] for name in os.listdir(SRC) if name.endswith(".py"))
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
# a name with one of these words between its underscores is a tolerance
TOLERANCE_WORDS = {"ATOL", "SLACK", "CLAMP", "FLOOR", "MASS", "THRESHOLD"}


def _tree(module: str) -> ast.Module:
    with open(os.path.join(SRC, module + ".py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _reads(module: str, owner: str) -> list[str]:
    """Names that ``module`` reads from ``owner``: imported from it or taken as attributes."""
    tree = _tree(module)
    names, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = ("." * node.level) + (node.module or "")
            if source in (f".{owner}", f"nuqc.{owner}"):
                names += [alias.name for alias in node.names]
            elif source in (".", "nuqc"):
                aliases |= {alias.asname or alias.name for alias in node.names
                            if alias.name == owner}
        elif isinstance(node, ast.Import):
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == f"nuqc.{owner}"}
    names += [node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and ast.unparse(node.value) in aliases]
    return names


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("owner", ["qstate", "measure"])
def test_no_module_reads_an_owners_private_names(owner):
    offenders = {module: sorted({name for name in _reads(module, owner) if _private(name)})
                 for module in MODULES if module != owner}
    assert not any(offenders.values()), offenders


def test_the_reader_sees_both_import_forms():
    # circuit imports kernel names from qstate and calls measure through the module
    assert "apply_embedded" in _reads("circuit", "qstate")
    assert "build_pair" in _reads("circuit", "measure")


def test_circuit_leaves_the_fusion_rule_to_qstate():
    kernel_bounds = {"COPY_FREE_MIN_SIZE", "MONOMIAL_BLOCK_BITS"}
    assert not kernel_bounds & set(_reads("circuit", "qstate"))


def test_the_package_binds_no_second_name_for_a_module_name():
    own = {name for name, value in vars(nuqc).items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert own == {"basis_state", "normalize"} and isinstance(nuqc.__version__, str)
    assert not hasattr(nuqc, "__all__")
    assert nuqc.basis_state is qstate.basis_state and nuqc.normalize is qstate.normalize
    for gone in ("qubit_savings", "QubitSavings", "annotations", "SearchResult"):
        assert not hasattr(nuqc, gone)


def test_a_bare_package_import_loads_only_the_state_modules():
    code = ("import sys, nuqc; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'nuqc')))")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": os.path.dirname(SRC)},
                            timeout=120, check=True).stdout.split()
    assert loaded == ["nuqc", "nuqc.errors", "nuqc.qstate", "nuqc.shares"]


@pytest.mark.parametrize("module,gone", [
    ("apps", "nand_layout"), ("apps", "NandLayout"), ("apps", "_allocate"),
    ("synth", "_inverse_cn1_steps"), ("circuit", "record_to_json"),
])
def test_second_copies_stay_deleted(module, gone):
    # compile_nand alone allocates a netlist's register; one ladder builds both CN1 signs;
    # write_record_json alone renders a run record
    assert not hasattr(importlib.import_module(f"nuqc.{module}"), gone)


def _tolerances() -> dict[str, list[str]]:
    """Every tolerance name assigned anywhere in ``src/nuqc``, with the modules assigning it."""
    owners: dict[str, list[str]] = {}
    for module in MODULES:
        for node in ast.walk(_tree(module)):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    if TOLERANCE_WORDS & set(name.split("_")):
                        owners.setdefault(name, []).append(module)
    return owners


def test_each_tolerance_is_one_public_constant_of_one_module():
    owners = _tolerances()
    assert {name: modules for name, modules in owners.items()
            if len(modules) != 1 or _private(name) or name != name.upper()} == {}
    # one concept, one name: these were second names for another module's value
    for gone in ("NORMALIZED_SLACK", "_FULL_STRENGTH_ATOL", "_STRENGTH_SLACK"):
        assert gone not in owners
    assert owners["STRENGTH_SLACK"] == ["measure"]


def test_no_small_float_literal_outside_a_named_constant():
    found = []
    for module in MODULES:
        tree = _tree(module)
        named = {id(n) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and all(isinstance(t, ast.Name) and t.id == t.id.upper() for t in node.targets)
                 for n in ast.walk(node.value)}
        found += [f"{module}.py:{n.lineno}: {n.value!r}" for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and isinstance(n.value, float)
                  and 0.0 < abs(n.value) < 1e-6 and id(n) not in named]
    assert found == []


def _readme_tolerances() -> dict[str, tuple[str, str]]:
    """Rows ``| `NAME` | `value` | `owner` | meaning |`` of the README's tolerance section."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Numerical tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]+)` \| `(\w+)` \|", section, re.MULTILINE)
    assert len(rows) == len({name for name, _, _ in rows})
    return {name: (owner, value) for name, value, owner in rows}


def test_the_readme_lists_every_tolerance_with_its_owner_and_value():
    table = _readme_tolerances()
    assert sorted(table) == sorted(_tolerances())
    for name, (owner, value) in table.items():
        assert _tolerances()[name] == [owner], name
        assert getattr(importlib.import_module(f"nuqc.{owner}"), name) == float(value), name
