"""Rewrite the golden files whose bytes depend on the per-trial random streams.

Run from anywhere as ``python tests/regen_goldens.py``.  At one BLAS thread
it rewrites

- every file of ``data/mc_golden`` that ``test_mc_golden`` reads,
- the sampled files of ``data/kernel_golden`` (``sampled_*`` and
  ``wide16_sampled_*``),
- the sampled runs of ``data/cli_golden``,

each with the stdout of the command its test runs, and leaves every other
golden file as it is.  On a tree whose goldens are current it changes
nothing.  A command whose exit code or stderr its test would refuse stops
the script with exit 1.
"""

import contextlib
import io
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, os.pardir, "src"), HERE]

from nuqc import cli  # noqa: E402

import test_cli_golden  # noqa: E402
import test_kernel_golden  # noqa: E402
import test_mc_golden  # noqa: E402


def _write(path: str, argv: list[str], codes: tuple[int, ...]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code not in codes or err.getvalue():
        sys.exit(f"{' '.join(argv)}: exit {code}, stderr {err.getvalue()!r}")
    with open(path, "wb") as fh:
        fh.write(out.getvalue().encode())
    print(os.path.relpath(path, HERE))


def main() -> None:
    for name in sorted(test_mc_golden.COMMANDS):
        for seed in test_mc_golden.SEEDS:
            for fmt in ("txt", "json"):
                _write(os.path.join(test_mc_golden.GOLDEN, f"{name}_seed{seed}.{fmt}"),
                       test_mc_golden.argv(name, seed, fmt), (0,))
    for prefix, path in test_kernel_golden.CORPORA.items():
        for name in test_kernel_golden.RUNS:
            if name.startswith("sampled_"):
                for fmt in ("txt", "json"):
                    _write(os.path.join(test_kernel_golden.GOLDEN, f"{prefix}{name}.{fmt}"),
                           test_kernel_golden.argv(path, name, fmt), (0, 2))
    for name, (code, argv) in test_cli_golden.RUNS.items():
        if "sampled" in argv:
            _write(os.path.join(test_cli_golden.GOLDEN, name), [*argv, "--json"], (code,))


if __name__ == "__main__":
    main()
