"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.patched`` wraps the public functions listed in ``TRACED`` and puts
each wrapper under every name that held the original in any ``nuqc`` module,
because modules such as ``circuit`` and ``measure`` import functions like
``apply_embedded`` by name.  Spans stay in memory until ``write_spans``.  A
span's self time is its duration minus the durations of its child spans;
calls are single-threaded, so children never overlap.

Process-pool workers inherit the wrappers but their spans stay in the worker,
so pool time shows up as ``circuit.run_ensemble`` self time.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from collections import defaultdict

TRACED = {
    "qstate": ("apply_embedded", "normalize", "norm_sq", "embedded_matrix", "dump_state"),
    "measure": ("build_pair", "build_reversal", "analytic_success", "run_with_reversal",
                "sample", "sample_reversal"),
    "circuit": ("parse_file", "run_branch", "run_sampled", "run_ensemble", "trial_rng"),
    "synth": ("synthesize", "reconstruction_residual", "write_netlist"),
    "gates": ("x", "h", "cnot", "ckx", "n1", "cn1", "cu1", "diagonal", "from_matrix",
              "normalize_gate", "parse_label"),
    "linops": ("svd", "sqrtm_psd", "read_matrix", "format_matrix"),
    "apps": ("search_program", "qubit_bit", "compile_nand", "parse_nand_netlist"),
    "cli": ("main",),
}

# the gate factories are reported together under one span name
SPAN_NAME = {("gates", fn): "gates.factory" for fn in TRACED["gates"]}

_COMPLEX_BYTES = 16


def span_names() -> list[str]:
    names = []
    for module, functions in TRACED.items():
        for fn in functions:
            name = SPAN_NAME.get((module, fn), f"{module}.{fn}")
            if name not in names:
                names.append(name)
    return names


class Tracer:
    """Collects spans and a few counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)

    def _observe(self, name: str, args, kwargs, result) -> None:
        counts = self.counts
        if name == "qstate.apply_embedded":
            state = args[0] if args else kwargs["state"]
            # computed traffic: read the input state once, write the result once
            counts["apply_bytes"] += 2 * _COMPLEX_BYTES * (1 << state.n_qubits)
        elif name == "measure.sample":
            counts["attempts"] += 1
            counts["attempt_successes"] += result[0] == "success"
        elif name == "measure.sample_reversal":
            counts["reversals"] += 1
            counts["reversal_successes"] += result[0] == "success"
        elif name == "synth.synthesize":
            counts["gates_emitted"] += result.gate_count
            counts["max_log10_scale"] = max(counts["max_log10_scale"],
                                            math.log10(result.scale))

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observe = self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)
            observe(name, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, package):
        """Install the wrappers in every loaded module of ``package``."""
        prefix = package.__name__ + "."
        modules = [package] + [m for n, m in list(sys.modules.items()) if n.startswith(prefix)]
        replaced = []
        try:
            for module_name, functions in TRACED.items():
                home = sys.modules[prefix + module_name]
                for fn_name in functions:
                    original = getattr(home, fn_name)
                    name = SPAN_NAME.get((module_name, fn_name), f"{module_name}.{fn_name}")
                    wrapper = self._wrap(name, original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                replaced.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` for every traced span name."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = dict.fromkeys(span_names(), 0)
        self_ns: dict[str, int] = dict.fromkeys(span_names(), 0)
        for (name, parent, start, end), children in zip(self.spans, child_ns):
            calls[name] += 1
            self_ns[name] += end - start - children
        return {name: (calls[name], self_ns[name] / 1e9) for name in calls}

    def write_spans(self, path: str) -> None:
        """One ``index parent name start_ns end_ns`` line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{index} {parent} {name} {start} {end}\n")


def layer_metrics(tracer: Tracer, copy_gbps: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    metrics: dict[str, tuple[float, str]] = {}
    totals = tracer.layer_totals()
    for name, (calls, self_s) in totals.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        if name == "qstate.apply_embedded":
            moved = tracer.counts["apply_bytes"]
            metrics[f"{name}.computed_bytes"] = (moved, "B")
            metrics[f"{name}.computed_gbps"] = (moved / self_s / 1e9 if self_s else 0.0,
                                                "GB/s")
            metrics["qstate.copy_gbps"] = (copy_gbps, "GB/s")
    counts = tracer.counts
    for ratio, hits, base in (("measure.success_per_attempt", "attempt_successes", "attempts"),
                              ("measure.reversal_restore_ratio", "reversal_successes",
                               "reversals")):
        metrics[ratio] = (counts[hits] / counts[base] if counts[base] else 0.0, "ratio")
        metrics[f"{ratio}.base"] = (counts[base], "count")
    metrics["synth.gates_emitted"] = (counts["gates_emitted"], "count")
    metrics["synth.max_log10_scale"] = (counts["max_log10_scale"], "log10")
    return metrics
