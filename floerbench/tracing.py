"""Spans and counters recorded from outside the program.

`install` wraps the public functions of each floermini layer (and the
NovikovScalar operators) in place: on the defining module or class, and on
every floermini module that imported the function under any name, such as
`from .spectral import rho` in continuation, hofer, morse and cli.  A span
records its name, start, end and parent; spans stay in memory in flat
arrays and are written out once, when the run ends.  Self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (module, attribute, span name, call counter) for every traced function;
# several functions may share one span name, whose self times then add up
SPANS = (
    ("action", "NovikovScalar.__add__", "action.scalar_op", "action.scalar_ops"),
    ("action", "NovikovScalar.__sub__", "action.scalar_op", "action.scalar_ops"),
    ("action", "NovikovScalar.__mul__", "action.scalar_op", "action.scalar_ops"),
    ("action", "NovikovScalar.__truediv__", "action.scalar_op", "action.scalar_ops"),
    ("reduction", "orthogonalize", "reduction.orthogonalize", "reduction.orthogonalize_calls"),
    ("reduction", "reduce_vector", "reduction.reduce_vector", "reduction.reduce_vector_calls"),
    ("complexes", "FilteredComplex.from_json", "complexes.from_json", None),
    ("complexes", "FilteredComplex.homology_basis", "complexes.homology_basis", None),
    ("spectral", "rho", "spectral.rho", "spectral.rho_calls"),
    ("spectral", "check_spectrality", "spectral.rho", None),
    ("spectral", "bounded_boundary_solve", "spectral.solve", None),
    ("spectral", "boundary_overhead_constant", "spectral.solve", None),
    ("morse", "MorseFunction1D.closed_form", "morse.closed_form", "morse.closed_form_calls"),
    ("morse", "MorseFunction1D.negated", "morse.closed_form", None),
    ("morse", "MorseFunction1D.added", "morse.closed_form", None),
    ("morse", "MorseFunction1D.critical_points", "morse.critical_points",
     "morse.critical_points_calls"),
    ("_kernels", "critical_cells", "kernels.critical_cells", None),
    ("morse", "build_s1_morse", "morse.build_s1_morse", None),
    ("cerf", "bifurcation_diagram", "cerf.bifurcation_diagram", "cerf.bifurcation_diagram_calls"),
    ("continuation", "step_maps", "continuation.step_maps", "continuation.step_maps_calls"),
    ("continuation", "continuation_map", "continuation.step_maps", None),
    ("continuation", "variation_bounds", "continuation.variation_bounds", None),
    ("continuation", "dichotomy_constant", "continuation.variation_bounds", None),
    ("continuation", "rho_curve", "continuation.rho_curve", None),
    ("hofer", "gamma", "hofer.gamma", None),
    ("hofer", "rho_unit", "hofer.gamma", "hofer.rho_unit_calls"),
    ("hofer", "hofer_quantities", "hofer.gamma", None),
    ("render", "render_diagram_svg", "render.svg", None),
    ("render", "render_curve_svg", "render.svg", None),
)

# counted without a span: cheap, very frequent calls
COUNTS = (
    ("action", "PeriodGroup.omega", "action.omega_calls"),
    ("cerf", "MorseCerfFamily.function_at", "cerf.function_at_calls"),
)

OP = "op"

# per-layer metric -> (unit, source): ("self", span), ("count", key) or a
# special value computed in `layer_metrics`
LAYER_METRICS = {
    "action.scalar_ops": ("count", ("count", "action.scalar_ops")),
    "action.scalar_ops_s": ("s", ("self", "action.scalar_op")),
    "action.omega_calls": ("count", ("count", "action.omega_calls")),
    "action.max_scalar_terms": ("count", ("max_terms", None)),
    "reduction.orthogonalize_calls": ("count", ("count", "reduction.orthogonalize_calls")),
    "reduction.orthogonalize_s": ("s", ("self", "reduction.orthogonalize")),
    "reduction.reduce_vector_calls": ("count", ("count", "reduction.reduce_vector_calls")),
    "reduction.reduce_vector_s": ("s", ("self", "reduction.reduce_vector")),
    "complexes.from_json_s": ("s", ("self", "complexes.from_json")),
    "complexes.homology_basis_s": ("s", ("self", "complexes.homology_basis")),
    "spectral.rho_calls": ("count", ("count", "spectral.rho_calls")),
    "spectral.rho_s": ("s", ("self", "spectral.rho")),
    "spectral.solve_s": ("s", ("self", "spectral.solve")),
    "morse.closed_form_calls": ("count", ("count", "morse.closed_form_calls")),
    "morse.closed_form_s": ("s", ("self", "morse.closed_form")),
    "morse.critical_points_calls": ("count", ("count", "morse.critical_points_calls")),
    "morse.critical_points_s": ("s", ("self", "morse.critical_points")),
    "kernels.critical_cells_s": ("s", ("self", "kernels.critical_cells")),
    "morse.build_s1_morse_s": ("s", ("self", "morse.build_s1_morse")),
    "cerf.bifurcation_diagram_calls": ("count", ("count", "cerf.bifurcation_diagram_calls")),
    "cerf.bifurcation_diagram_s": ("s", ("self", "cerf.bifurcation_diagram")),
    "cerf.slices_per_grid_point": ("ratio", ("slices", None)),
    "continuation.step_maps_calls": ("count", ("count", "continuation.step_maps_calls")),
    "continuation.step_maps_s": ("s", ("self", "continuation.step_maps")),
    "continuation.variation_bounds_s": ("s", ("self", "continuation.variation_bounds")),
    "continuation.rho_curve_s": ("s", ("self", "continuation.rho_curve")),
    "hofer.gamma_s": ("s", ("self", "hofer.gamma")),
    "hofer.rho_unit_calls": ("count", ("count", "hofer.rho_unit_calls")),
    "render.svg_s": ("s", ("self", "render.svg")),
    "op.untraced_s": ("s", ("untraced", None)),
    "op.other_s": ("s", ("self", OP)),
    "trace.overhead_s": ("s", ("overhead", None)),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: dict = {}
        self.max_terms = 0
        self.active = False

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span: str, count_key=None, post=None):
        name_id = self._intern(span)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, counts = self.span_start, self.span_end, self.stack, self.counts
        if count_key:
            counts.setdefault(count_key, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count_key:
                counts[count_key] += 1
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
            if post is not None:
                post(result)
            return result

        return traced

    def count_only(self, fn, key: str):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _scalar_terms(self, result):
        n = len(result.num) + len(result.den)
        if n > self.max_terms:
            self.max_terms = n

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict:
        n = len(self.span_start)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: 0.0 for name in self.names}
        for i in range(n):
            out[self.names[self.span_name[i]]] += ends[i] - starts[i] - child[i]
        return out

    def write_spans(self, path: Path) -> None:
        """Every span as one JSON line: id, op, name, parent, start, end."""
        op_of = array("i", [0]) * len(self.span_start)
        with path.open("w") as fh:
            for i in range(len(self.span_start)):
                p = self.span_parent[i]
                op_of[i] = i if p < 0 else op_of[p]
                fh.write(json.dumps([i, op_of[i], self.names[self.span_name[i]], p,
                                     round(self.span_start[i], 9),
                                     round(self.span_end[i], 9)]) + "\n")


def _replace_everywhere(old, new) -> None:
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("floermini"):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def install(tracer: Tracer, fm) -> None:
    """Wrap every function in SPANS and COUNTS on the imported package `fm`."""
    def patch(modname, path, make):
        mod = getattr(fm, modname)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        raw = owner.__dict__[attr] if owner_name else getattr(mod, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        if not owner_name:
            _replace_everywhere(raw, new)

    for modname, path, span, key in SPANS:
        post = tracer._scalar_terms if span == "action.scalar_op" else None
        patch(modname, path, lambda f, s=span, k=key, p=post: tracer.wrap(f, s, k, p))
    for modname, path, key in COUNTS:
        patch(modname, path, lambda f, k=key: tracer.count_only(f, k))


def layer_metrics(tracer: Tracer, ops: int, grid_points: int,
                  untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics, per op: totals over the traced ops / ops."""
    selfs = tracer.self_times()
    out = {}
    for name, (unit, (kind, key)) in LAYER_METRICS.items():
        if kind == "self":
            value = selfs.get(key, 0.0) / ops
        elif kind == "count":
            value = tracer.counts.get(key, 0) / ops
        elif kind == "max_terms":
            value = tracer.max_terms
        elif kind == "slices":
            calls = tracer.counts.get("cerf.function_at_calls", 0)
            value = calls / grid_points if grid_points else 0.0
        elif kind == "untraced":
            value = untraced_s / ops
        else:  # overhead
            value = (traced_s - untraced_s) / ops
        out[name] = {"value": value, "unit": unit}
    return out
