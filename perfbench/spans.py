"""Span tracer applied to subfbsde from outside the package.

`install()` replaces module-level names at each module boundary with a
wrapper that records one span per call: name, start, end and the index of
the enclosing span.  Spans stay in memory; `layer_metrics()` folds them into
per-layer self times and call counts once the traced call has returned.
Nothing here touches the package's files.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# (module, attribute, span name).  The attribute is patched in the module that
# *calls* it, because `from x import f` binds a private name per caller.
TRACED = (
    ("subfbsde.cli", "build_ensemble", "build_ensemble"),
    ("subfbsde.subdiffusion", "sample_clock_ensemble", "sample_clock_ensemble"),
    ("subfbsde.cli", "check_hypothesis", "check_hypothesis"),
    # solve_fbsde is wrapped too, so that the continuation solver's own
    # time is not booked to the CLI's artifact writing
    ("subfbsde.cli", "solve_fbsde", "solve_fbsde"),
    ("subfbsde.fbsde_solver", "solve_linear", "solve_linear"),
    ("subfbsde.fbsde_solver", "picard_forcings", "picard_forcings"),
    ("subfbsde.fbsde_solver", "m_norm", "m_norm"),
    ("subfbsde.fbsde_solver", "apriori_ratio", "apriori_ratio"),
    ("subfbsde.linear_solver", "fit_condexp", "fit_condexp"),
    ("subfbsde.linear_solver", "extract_z", "extract_z"),
    ("subfbsde.regression", "fit_condexp", "fit_condexp"),
    ("subfbsde.regression", "polynomial_features", "polynomial_features"),
)

ROOT = "cli.run"

# spans whose return value is kept for inspection after the traced call
KEEP_RESULT = ("build_ensemble",)

# Layer -> span names whose self time it owns.  Every span name appears in
# exactly one layer, so the self times partition the root span.
SELF_TIME_LAYERS = {
    "cli.self_s": (ROOT,),
    "subdiffusion.build_s": ("build_ensemble",),
    "clock.sample_s": ("sample_clock_ensemble",),
    "coefficients.check_hypothesis_s": ("check_hypothesis",),
    "fbsde_solver.self_s": ("solve_fbsde", "picard_forcings"),
    "linear_solver.self_s": ("solve_linear",),
    "regression.fit_s": ("fit_condexp", "polynomial_features"),
    "regression.extract_z_s": ("extract_z",),
    "diagnostics.m_norm_s": ("m_norm",),
    "diagnostics.apriori_s": ("apriori_ratio",),
}

CALL_COUNTS = {
    "regression.fit_calls": "fit_condexp",
    "regression.feature_builds": "polynomial_features",
    "linear_solver.solves": "solve_linear",
    "fbsde_solver.picard_iterates": "picard_forcings",
    "diagnostics.m_norm_calls": "m_norm",
}


class Tracer:
    """In-memory span recorder.  `spans` holds [name, start, end, parent]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.results: dict[str, object] = {}

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if name in KEEP_RESULT:
                self.results[name] = out
            return out

        return traced

    def install(self) -> None:
        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the children's durations."""
        own = {}
        for name, start, end, _ in self.spans:
            own[name] = own.get(name, 0.0) + (end - start)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                pname = self.spans[parent][0]
                own[pname] -= end - start
        return own

    def layer_metrics(self, run_s: float) -> dict[str, float]:
        own = self.self_times()
        out = {
            layer: sum(own.get(n, 0.0) for n in names)
            for layer, names in SELF_TIME_LAYERS.items()
        }
        counts = {}
        for name, *_ in self.spans:
            counts[name] = counts.get(name, 0) + 1
        out.update({metric: counts.get(n, 0) for metric, n in CALL_COUNTS.items()})
        solves = [end - start for name, start, end, _ in self.spans if name == "solve_linear"]
        out["linear_solver.solve_s"] = statistics.median(solves) if solves else 0.0
        root = sum(end - start for name, start, end, _ in self.spans if name == ROOT)
        out["trace.run_s"] = run_s
        out["trace.unattributed_s"] = run_s - root
        return out
