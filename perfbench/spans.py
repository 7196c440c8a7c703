"""In-memory spans around troplog's public functions, and the per-layer
metrics computed from them.

A span is [name, start, end, parent index]. The wrappers are installed from
the benchmark's side, in every troplog namespace that holds the function,
so calls made inside the library are recorded too. Counts are taken at the
same boundaries, from the arguments and results of the wrapped calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

Span = list  # [name, start, end, parent index or -1]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.max_constraints = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(tracer, args, result)``
        takes counts from the call once the span is closed."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def count_calls(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_name, start, end, _parent) in enumerate(spans):
        covered, run_start, run_end = 0.0, None, None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------


def _types_out(tracer, args, result):
    tracer.counts["tree.types_out"] += len(result)


def _face_maps_out(tracer, args, result):
    tracer.counts["moduli.face_maps_out"] += len(result.face_maps)


def _feasible(tracer, args, result):
    tracer.counts["feasibility.feasible"] += bool(result.feasible)
    tracer.max_constraints = max(tracer.max_constraints, len(args[0]))


def _assignments(tracer, args, result):
    _cone, functionals, fan = args
    vertices = {v for v, _ in functionals}
    tracer.counts["subdivision.assignments_tried"] += len(fan.maximal_cones()) ** len(vertices)
    tracer.counts["subdivision.cells_kept"] += len(result)


def _faces(tracer, args, result):
    tracer.counts["subdivision.faces_kept"] += sum(result.values())


# (module, function, hook) for every traced public function.
FUNCTIONS = [
    ("tree", "canonicalize", None),
    ("tree", "contract_edge", None),
    ("tree", "enumerate_tree_types", _types_out),
    ("plfunction", "extend_from_leg_slopes", None),
    ("plfunction", "vertex_values", None),
    ("plfunction", "plfunction_to_json", None),
    ("moduli", "build_moduli_complex", _face_maps_out),
    ("moduli", "build_map_moduli", None),
    ("moduli", "product_decomposition", None),
    ("feasibility", "check_feasible", _feasible),
    ("feasibility", "prune_redundant", None),
    ("subdivision", "subdivide_cone", _assignments),
    ("subdivision", "face_census", _faces),
    ("subdivision", "validate_fan", None),
] + [
    ("cli", f"cmd_{c}", None)
    for c in ("validate", "extend", "multidegree", "moduli", "subdivide", "validate_fan", "selfmap")
]

# to_json of every payload the CLI prints; their self time is serialization.
PAYLOAD_CLASSES = [
    ("moduli", "ConeComplex"),
    ("moduli", "IsomorphismReport"),
    ("moduli", "SelfMapNormalForm"),
    ("subdivision", "SubdividedComplex"),
    ("tree", "ValidationReport"),
]

AFFINE_OPS = ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__", "substitute")

SERIALIZE = {"plfunction.plfunction_to_json", "json.dump"} | {
    f"{cls}.to_json" for _mod, cls in PAYLOAD_CLASSES
}


def install(tracer: Tracer) -> None:
    """Wrap the traced functions in every loaded troplog module."""
    import troplog.cli  # noqa: F401  (loads every submodule)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "troplog"]
    for mod_name, fn_name, hook in FUNCTIONS:
        original = getattr(sys.modules[f"troplog.{mod_name}"], fn_name)
        wrapped = tracer.wrap(f"{mod_name}.{fn_name}", original, hook)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    tracer.replace(module, attr, wrapped)
    for mod_name, cls_name in PAYLOAD_CLASSES:
        cls = getattr(sys.modules[f"troplog.{mod_name}"], cls_name)
        tracer.replace(cls, "to_json", tracer.wrap(f"{cls_name}.to_json", cls.to_json))
    affine = sys.modules["troplog.affine"].AffineExpr
    for op in AFFINE_OPS:
        tracer.replace(affine, op, tracer.count_calls("affine.expr_ops", vars(affine)[op]))
    tracer.replace(json, "dump", tracer.wrap("json.dump", json.dump))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    calls, self_s = Counter(), defaultdict(float)
    for span, t in zip(spans, own):
        calls[span[0]] += 1
        self_s[span[0]] += t
    counts = tracer.counts
    patterns = sum(
        1
        for name, _s, _e, parent in spans
        if name == "feasibility.check_feasible"
        and parent >= 0
        and spans[parent][0] == "subdivision.face_census"
    )
    handler_s = sum(e - s for name, s, e, _p in spans if name.startswith("cli.cmd_"))

    def share(num, den):
        return num / den if den else 0.0

    out = {
        "tree.canonicalize.calls": calls["tree.canonicalize"],
        "tree.canonicalize.self_s": self_s["tree.canonicalize"],
        "tree.contract_edge.calls": calls["tree.contract_edge"],
        "tree.enumerate_tree_types.self_s": self_s["tree.enumerate_tree_types"],
        "tree.types_out": counts["tree.types_out"],
    }
    for name in (
        "plfunction.extend_from_leg_slopes",
        "plfunction.vertex_values",
        "moduli.build_moduli_complex",
        "moduli.build_map_moduli",
    ):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["moduli.product_decomposition.self_s"] = self_s["moduli.product_decomposition"]
    out["moduli.face_maps_out"] = counts["moduli.face_maps_out"]
    out["affine.expr_ops"] = counts["affine.expr_ops"]
    feasible_calls = calls["feasibility.check_feasible"]
    out.update(
        {
            "feasibility.check_feasible.calls": feasible_calls,
            "feasibility.check_feasible.self_s": self_s["feasibility.check_feasible"],
            "feasibility.check_feasible.feasible_share": share(
                counts["feasibility.feasible"], feasible_calls
            ),
            "feasibility.check_feasible.constraints_in_max": tracer.max_constraints,
            "feasibility.prune_redundant.calls": calls["feasibility.prune_redundant"],
            "feasibility.prune_redundant.self_s": self_s["feasibility.prune_redundant"],
            "subdivision.subdivide_cone.calls": calls["subdivision.subdivide_cone"],
            "subdivision.subdivide_cone.self_s": self_s["subdivision.subdivide_cone"],
            "subdivision.assignments_tried": counts["subdivision.assignments_tried"],
            "subdivision.cells_kept": counts["subdivision.cells_kept"],
            "subdivision.cells_per_assignment": share(
                counts["subdivision.cells_kept"], counts["subdivision.assignments_tried"]
            ),
            "subdivision.face_census.self_s": self_s["subdivision.face_census"],
            "subdivision.sign_patterns_tried": patterns,
            "subdivision.faces_kept": counts["subdivision.faces_kept"],
            "subdivision.faces_per_pattern": share(counts["subdivision.faces_kept"], patterns),
            "subdivision.validate_fan.self_s": self_s["subdivision.validate_fan"],
            "cli.handler_s": handler_s,
            "cli.serialize_s": sum(self_s[name] for name in SERIALIZE),
        }
    )
    return out
