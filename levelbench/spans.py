"""Spans around the calls into each qdosc layer, recorded from outside.

The modules import names from each other directly (`from .simulator import
probe_expectation`), so a wrapper only sees a call if it replaces the name
in the module that makes the call.  WRAPPED lists those lookup sites.  A
name that no longer exists is skipped, and a layer that is never called
reports zero, so a refactor that removes per-sample calls still traces.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter

#: (module making the call, name it looks up, span name, count of the result)
WRAPPED = (
    ("qdosc.cli", "main", "cli.main", None),
    ("qdosc.cli", "model_coefficients", "spinmap.model_coefficients", None),
    ("qdosc.cli", "build_hamiltonian", "qops.build_hamiltonian", None),
    ("qdosc.cli", "exact_diag", "analytic.reference", None),
    ("qdosc.cli", "spectrum_h0", "analytic.reference", None),
    ("qdosc.cli", "spectrum_hho_paper", "analytic.reference", None),
    ("qdosc.cli", "sample_series", "spectral.sample_series",
     lambda ts: len(ts.samples)),
    ("qdosc.spectral", "probe_expectation", "simulator.probe_expectation", None),
    ("qdosc.simulator", "build_protocol_circuit", "circuit.build_protocol_circuit",
     lambda circ: len(circ.gates)),
    ("qdosc.simulator", "run_circuit", "simulator.run_circuit", None),
    ("qdosc.cli", "dft_real", "spectral.dft_real", lambda spec: len(spec.values)),
    ("qdosc.spectral", "dft_real", "spectral.dft_real", lambda spec: len(spec.values)),
    ("qdosc.cli", "detect_levels", "spectral.detect_levels", None),
    ("qdosc.spectral", "detect_levels", "spectral.detect_levels", None),
)

#: per-layer metric -> (span name, what to sum: self seconds, calls or counts)
LAYER_METRICS = {
    "simulator.run_s": ("simulator.run_circuit", "self"),
    "simulator.run_calls": ("simulator.run_circuit", "calls"),
    "circuit.compile_s": ("circuit.build_protocol_circuit", "self"),
    "circuit.compile_calls": ("circuit.build_protocol_circuit", "calls"),
    "circuit.gates": ("circuit.build_protocol_circuit", "count"),
    "simulator.probe_self_s": ("simulator.probe_expectation", "self"),
    "simulator.probe_calls": ("simulator.probe_expectation", "calls"),
    "spectral.sample_self_s": ("spectral.sample_series", "self"),
    "spectral.samples": ("spectral.sample_series", "count"),
    "spectral.dft_s": ("spectral.dft_real", "self"),
    "spectral.bins": ("spectral.dft_real", "count"),
    "spectral.detect_s": ("spectral.detect_levels", "self"),
    "cli.self_s": ("cli.main", "self"),
    "spinmap.coeffs_s": ("spinmap.model_coefficients", "self"),
    "qops.hamiltonian_s": ("qops.build_hamiltonian", "self"),
    "analytic.reference_s": ("analytic.reference", "self"),
}

FIELDS = ("name", "op", "parent", "start", "end", "count")
NAME, OP, PARENT, START, END, COUNT = range(len(FIELDS))


class Tracer:
    """Records spans in memory while installed; nothing is written until dump()."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._first = 0

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            rec = [name, self._op, parent, perf_counter(), 0.0, 0]
            self.spans.append(rec)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                self._stack.pop()
            if count is not None:
                rec[COUNT] = count(result)
            return result
        return traced

    @contextmanager
    def installed(self, op: int):
        """Trace operation number `op`; the original names return on exit."""
        saved = []
        self._op, self._first = op, len(self.spans)
        try:
            for mod_name, attr, name, count in WRAPPED:
                try:
                    mod = importlib.import_module(mod_name)
                except ImportError:
                    continue
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, count))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
            self._op = -1

    def count(self, name: str) -> int | None:
        """Sum of the counts of `name` spans since the tracer was last
        installed, None if there is no such span."""
        found = [rec[COUNT] for rec in self.spans[self._first:] if rec[NAME] == name]
        return sum(found) if found else None

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Every LAYER_METRICS value, summed over all spans, per operation."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        totals = {}
        for i, rec in enumerate(self.spans):
            t = totals.setdefault(rec[NAME], {"self": 0.0, "calls": 0, "count": 0})
            t["self"] += rec[END] - rec[START] - child[i]
            t["calls"] += 1
            t["count"] += rec[COUNT]
        empty = {"self": 0.0, "calls": 0, "count": 0}
        return {metric: totals.get(span, empty)[what] / n_ops
                for metric, (span, what) in LAYER_METRICS.items()}

    def dump(self, path) -> None:
        """Write the field names, then one JSON array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(FIELDS) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
