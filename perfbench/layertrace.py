"""In-memory spans and counts around the public functions of each layer.

A layer is a module of ``conesum``.  ``Tracer.install`` wraps the functions
in ``TARGETS`` and rebinds each wrapper in every ``conesum`` module namespace
that holds the original, because many are imported with ``from . import``.
Each call records a span (name, start, end, parent) in flat arrays, counts
itself and any exception raised through it, and may feed a named counter.
``Fraction`` constructions are counted by wrapping ``Fraction.__new__``
(a profile hook sees every call and return, which tripled run time and
shifted self time toward the pure-Python layers).  Nothing is
written while the operation runs; ``summary`` reduces the spans at exit.

Self time of a span is its duration minus the durations of its direct child
spans; a layer's self time is the sum over its spans.  Operations are
sequential, so no layer waits on another and there is no waiting time.
"""

from __future__ import annotations

import fractions
import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

# "module.function" or "module.Class.method"; a span is named
# "<module>.<function or method>" and the module is its layer
TARGETS = [
    "config.load_config",
    "config.build_config",
    "field.make_field",
    "field.det_scaled",
    "field.fundamental_unit_quadratic",
    "field.TotallyRealField.sign_at",
    "field.TotallyRealField.embed_at",
    "linalg.to_matrix",
    "linalg.identity",
    "linalg.mat_mul",
    "linalg.mat_vec",
    "linalg.rref",
    "linalg.rank",
    "linalg.det",
    "linalg.solve",
    "linalg.kernel",
    "linalg.inverse",
    "linalg.solve_unique",
    "geometry.solve_in_basis",
    "geometry.primitive_generator",
    "geometry.dual_cone",
    "geometry.Cone.facets",
    "geometry.Cone.proper_faces",
    "geometry.Cone.intersection",
    "geometry.ProjPolyhedron.faces_by_dim",
    "geometry.ProjPolyhedron.dual",
    "cycles.boundary_cycle",
    "cycles.dual_cycle",
    "cycles.decompose_cycle",
    "fan.build_quadratic_fan",
    "fan.truncate",
    "fan.validate_good_fan",
    "fan.refine_insert_ray",
    "fan.TruncatedFan.group_singular_terms",
    "summation.cocycle_value",
    "summation.dual_cocycle_value",
    "summation.dual_basis",
    "summation.cone_term",
    "summation.evaluate_cycle",
    "summation.partial_sum",
    "summation.sum_via_dual_cycle",
    "summation.converge",
    "unitsearch.compare_places",
    "unitsearch.unit_region_conditions",
    "unitsearch.check_admissible_bounds",
    "unitsearch.check_admissible",
    "unitsearch.search_admissible",
    "unitsearch.hull_chart",
    "unitsearch.verify_vertices",
    "unitsearch.exhaustion_contains",
    "arith.bernoulli",
    "arith.quadratic_intersections",
    "arith.satake_rhs",
    "arith.satake_report",
    "arith.lvalue_numeric",
    "arith._QuadraticEnumerator.slice_masks",
    "arith._QuadraticEnumerator.norm_scaled",
    "cli.cmd_converge",
    "cli.cmd_unitsearch",
]

# spans whose inclusive time (outermost calls only) is reported as "<key>_s"
INCLUSIVE = {
    "config.load": ("config.load_config", "config.build_config"),
    "field.make_field": ("field.make_field",),
    "fan.build": ("fan.build_quadratic_fan",),
    "unitsearch.hull_chart": ("unitsearch.hull_chart",),
    "unitsearch.verify_vertices": ("unitsearch.verify_vertices",),
    "arith.slice_masks": ("arith.slice_masks",),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.counters: Counter = Counter()
        self.last_truncate_cones = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- hooks on individual functions -------------------------------------

    def _on_return(self, name: str, args, kwargs, result) -> None:
        c = self.counters
        if name == "field.embed_at":
            bits = args[3] if len(args) > 3 else kwargs["prec_bits"]
            c["field.embed_at.max_bits"] = max(c["field.embed_at.max_bits"], bits)
        elif name == "fan.truncate":
            c["fan.cones_truncated"] += len(result.top_cones)
            self.last_truncate_cones = len(result.top_cones)
        elif name == "fan.group_singular_terms":
            c["fan.star_groups"] += sum(1 for g in result if not g.is_singleton)
        elif name == "unitsearch.unit_region_conditions":
            c["unitsearch.region_accepted"] += all(result)
        elif name == "unitsearch.search_admissible":
            c["unitsearch.found"] += result is not None
        elif name == "arith.slice_masks":
            c["arith.candidates"] += len(args[2])
        elif name == "arith.norm_scaled":
            c["arith.kept"] += len(args[1])

    def _on_raise(self, name: str, exc: BaseException) -> None:
        self.raised[f"{name}:{type(exc).__name__}"] += 1
        if name == "unitsearch.unit_region_conditions" and (
            type(exc).__name__ == "PrecisionExhausted"
        ):
            self.counters["unitsearch.region_undecided"] += 1

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            calls[name] += 1
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span_end[idx] = perf_counter()
                stack.pop()
                self._on_raise(name, exc)
                raise
            span_end[idx] = perf_counter()
            stack.pop()
            self._on_return(name, args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "conesum" or key.startswith("conesum."))
        ]
        for target in TARGETS:
            modname, *owner, attr = target.split(".")
            module = sys.modules[f"conesum.{modname}"]
            name = f"{modname}.{attr}"
            if owner:
                cls = getattr(module, owner[0])
                original = cls.__dict__[attr]
                setattr(cls, attr, self.wrap(name, original))
                self._restore.append((cls, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, original))
        original_new = fractions.Fraction.__new__
        counters = self.counters

        def counted_new(cls, *args, **kwargs):
            counters["field.fraction_new.calls"] += 1
            return original_new(cls, *args, **kwargs)

        fractions.Fraction.__new__ = counted_new
        self._restore.append((fractions.Fraction, "__new__", original_new))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- reduction at exit --------------------------------------------------

    def summary(self) -> dict:
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                covered[p] += dur[i]
        layer_self: Counter = Counter()
        for i in range(n):
            layer = self.names[self.span_name[i]].split(".", 1)[0]
            layer_self[layer] += dur[i] - covered[i]

        inclusive = {}
        for key, span_names in INCLUSIVE.items():
            ids = {k for k, nm in enumerate(self.names) if nm in span_names}
            total = 0.0
            for i in range(n):
                if self.span_name[i] not in ids:
                    continue
                p = self.span_parent[i]
                while p >= 0 and self.span_name[p] not in ids:
                    p = self.span_parent[p]
                if p < 0:
                    total += dur[i]
            inclusive[key] = total

        return {
            "calls": dict(self.calls),
            "raised": dict(self.raised),
            "counters": dict(self.counters),
            "self_s": dict(layer_self),
            "inclusive_s": inclusive,
            "last_truncate_cones": self.last_truncate_cones,
            "spans": n,
        }
