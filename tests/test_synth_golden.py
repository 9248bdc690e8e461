"""``synth --out`` netlists, sidecars and ``--json`` output against a stored corpus.

``data/synth_golden`` holds seeded inputs ``m2.mat``..``m4.mat`` (complex
Gaussian matrices from ``np.random.default_rng(800 + n)``) and what
``synth m<n>.mat --mode <mode> --out <mode><n>.nl --json``, run in that
directory, wrote for each mode: the netlist, its ``.g<i>.mat`` sidecars and
stdout as ``<mode><n>.json``.  The verification residual may differ in its
last digits, since it depends on the order the step products are rounded in.
"""

import json
import os
import shutil

import pytest

from nuqc import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "synth_golden")


@pytest.mark.parametrize("mode", ["bare", "ancilla"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_synth_output_matches_the_corpus(n, mode, tmp_path, monkeypatch, capsys):
    shutil.copy(os.path.join(GOLDEN, f"m{n}.mat"), tmp_path)
    monkeypatch.chdir(tmp_path)
    stem = f"{mode}{n}"
    code = cli.main(["synth", f"m{n}.mat", "--mode", mode, "--out", f"{stem}.nl", "--json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    written = sorted(name for name in os.listdir(tmp_path) if name.startswith(f"{stem}.nl"))
    expected = sorted(name for name in os.listdir(GOLDEN) if name.startswith(f"{stem}.nl"))
    assert written == expected
    for name in expected:
        with open(os.path.join(GOLDEN, name), "rb") as want, open(name, "rb") as got:
            assert got.read() == want.read(), name
    with open(os.path.join(GOLDEN, f"{stem}.json"), encoding="utf-8") as fh:
        want = json.load(fh)
    got = json.loads(out)
    assert got.pop("residual") <= 1e-12
    want.pop("residual")
    assert got == want
