"""Each rule has one owner: no module reads another module's private names.

``qstate`` owns the state kernel and its rule for which unitary steps fuse
into one pass; ``measure`` owns the protocol draw.  The other modules use
them through public names only, so a test that patches an owner's constant
changes what every caller does.  The package's export list has one owner
too: the import blocks of ``nuqc/__init__.py``.
"""

import ast
import os
import types

import pytest

import nuqc

SRC = os.path.dirname(nuqc.__file__)
MODULES = sorted(name[:-3] for name in os.listdir(SRC) if name.endswith(".py"))


def _reads(module: str, owner: str) -> list[str]:
    """Names that ``module`` reads from ``owner``: imported from it or taken as attributes."""
    with open(os.path.join(SRC, module + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
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


def test_the_export_list_is_what_star_import_binds():
    namespace = {}
    exec("from nuqc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(nuqc.__all__)
    assert len(set(nuqc.__all__)) == len(nuqc.__all__)
    assert nuqc.__all__ == sorted(nuqc.__all__[:-1]) + ["__version__"]
    for name in nuqc.__all__:
        assert not name.startswith("_") or name == "__version__", name
        assert not isinstance(getattr(nuqc, name), types.ModuleType), name
    for gone in ("qubit_savings", "QubitSavings", "annotations"):
        assert gone not in nuqc.__all__
        assert not hasattr(nuqc, gone)
