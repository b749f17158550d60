"""Span tracing of peskin2d by wrapping its public functions from outside.

`Tracer` replaces each function in `LAYERS` at *every* module binding that
holds it (``spectral.to_Y``, ``evolution.to_Y`` and ``peskin2d.to_Y`` are
one function bound three times), so calls are seen whichever module looks
the name up.  Each call records a span ``[name, start, end, parent]`` in
memory; leaving the ``with`` block puts every original back and checks that
it is back.  The package itself is not modified.
"""

import functools
import sys
import time

import numpy as np

# (layer name, module, attribute); an attribute "Class.method" patches the
# class, which covers every module because they share the class object.
LAYERS = (
    ("cli.main", "peskin2d.cli", "main"),
    ("cli.load_config", "peskin2d.cli", "load_config"),
    ("evolution.run", "peskin2d.evolution", "run"),
    ("evolution.step", "peskin2d.evolution", "step"),
    ("evolution.rhs_nonlinear", "peskin2d.evolution", "rhs_nonlinear"),
    ("evolution.velocity_on_curve", "peskin2d.evolution", "velocity_on_curve"),
    ("evolution.TrajectoryRecord.to_csv", "peskin2d.evolution",
     "TrajectoryRecord.to_csv"),
    ("evolution.write_final_state", "peskin2d.evolution", "write_final_state"),
    ("kernels.log_convolve", "peskin2d.kernels", "log_convolve"),
    ("force.solve_force", "peskin2d.force", "solve_force"),
    ("force.s_operator_matrix", "peskin2d.force", "s_operator_matrix"),
    ("spectral.to_Y", "peskin2d.spectral", "to_Y"),
    ("spectral.from_Y", "peskin2d.spectral", "from_Y"),
    ("spectral.circle_decompose", "peskin2d.spectral", "circle_decompose"),
    ("spectral.geometry_diagnostics", "peskin2d.spectral",
     "geometry_diagnostics"),
    ("spectral.arc_chord_constant", "peskin2d.spectral", "arc_chord_constant"),
    # construction count: dataclass __init__ calls __post_init__ every time
    ("spectral.FourierCurve", "peskin2d.spectral", "FourierCurve.__post_init__"),
    ("constants.k_threshold", "peskin2d.constants", "k_threshold"),
    ("constants.margin", "peskin2d.constants", "margin"),
    ("constants.energy_certificate", "peskin2d.constants", "energy_certificate"),
    ("multipliers.integral_In", "peskin2d.multipliers", "integral_In"),
    ("multipliers.integral_Sn_exact", "peskin2d.multipliers",
     "integral_Sn_exact"),
    ("multipliers.integral_Sn_quadrature", "peskin2d.multipliers",
     "integral_Sn_quadrature"),
)


def _bindings(module, attr):
    """Every (namespace, name) that holds the object `module.attr`."""
    owner = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        return vars(cls)[meth], [(cls, meth)]
    fn = getattr(owner, attr)
    found = []
    for name, mod in sorted(sys.modules.items()):
        if name == "peskin2d" or name.startswith("peskin2d."):
            found += [(mod, a) for a, v in vars(mod).items() if v is fn]
    return fn, found


class Tracer:
    """Context manager that records spans for every layer in `LAYERS`.

    It may be entered again after it exits: spans accumulate, and
    `restored` stays True only if every exit put every original back.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []   # (namespace, name, original)
        self.restored = True

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def __enter__(self):
        self._saved = []
        for name, module, attr in LAYERS:
            fn, where = _bindings(module, attr)
            wrapped = self._wrap(name, fn)
            for ns, a in where:
                self._saved.append((ns, a, fn))
                setattr(ns, a, wrapped)
        return self

    def __exit__(self, *exc):
        for ns, a, fn in reversed(self._saved):
            setattr(ns, a, fn)
        self.restored &= all(getattr(ns, a) is fn for ns, a, fn in self._saved)
        return False


def summarize(spans):
    """Per layer: calls, total and self milliseconds, and durations.

    Self time is a span's duration minus the durations of its direct
    children; spans nest because the program runs on one thread.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "durations": []}
           for name, _, _ in LAYERS}
    for i, (name, start, end, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_ms"] += 1e3 * (end - start)
        row["self_ms"] += 1e3 * (end - start - child[i])
        row["durations"].append(1e3 * (end - start))
    return out


def parents_of(spans, child_name, parent_name):
    """Index of the parent of each `child_name` span called directly from a
    `parent_name` span."""
    return [s[3] for s in spans
            if s[0] == child_name and s[3] >= 0 and spans[s[3]][0] == parent_name]


def median_and_high(durations):
    """Median, and the value with ten samples above it (the highest
    percentile that still has ten samples beyond it); (0, 0) if empty."""
    if not durations:
        return 0.0, 0.0
    d = np.sort(np.asarray(durations))
    high = d[-11] if d.size > 10 else d[-1]
    return float(np.median(d)), float(high)
