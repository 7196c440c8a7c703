"""Exact combinatorics of rational tropical curves mapping to the log torus.

``import troplog`` runs none of the submodules. Each is registered in
``sys.modules`` and as a package attribute through ``importlib.util.LazyLoader``,
and its body runs on the first attribute access. The public names below
resolve through their submodule when they are first read.
"""

import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"

_PUBLIC = {
    "affine": ("AffineExpr", "as_fraction"),
    "errors": (
        "IncompleteFan",
        "LengthMismatch",
        "NonZeroSum",
        "NoSuchEdge",
        "NoSuchLeg",
        "ParseError",
        "TroplogError",
        "UnstableRange",
        "UnsupportedDimension",
    ),
    "moduli": (
        "Cone",
        "ConeComplex",
        "FaceMap",
        "IsomorphismReport",
        "TropicalMapPoint",
        "build_map_moduli",
        "build_moduli_complex",
        "product_decomposition",
        "splitting_at_leg",
        "splitting_expr",
        "stabilize",
    ),
    "plfunction": (
        "ContactOrder",
        "Multidegree",
        "PLFunction",
        "extend_from_leg_slopes",
        "is_balanced",
        "multidegree",
        "plfunction_from_json",
        "plfunction_to_json",
        "vertex_values",
    ),
    "feasibility": ("check_feasible", "prune_redundant"),
    "selfmap": ("SelfMapNormalForm", "classify_self_map"),
    "subdivision": (
        "Fan",
        "FanCone",
        "SubdividedCell",
        "SubdividedComplex",
        "face_census",
        "subdivide_cone",
        "subdivide_map_moduli",
        "validate_fan",
    ),
    "tree": (
        "CombinatorialType",
        "Edge",
        "Leg",
        "Tree",
        "ValidationReport",
        "canonicalize",
        "contract_edge",
        "enumerate_tree_types",
        "tree_from_json",
        "tree_to_json",
        "validate_tree",
    ),
}

# Public name -> the submodule that defines it.
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_PUBLIC, *_HOME]


def _lazy_submodule(name: str):
    spec = _util.find_spec(f"{__name__}.{name}")
    loader = _util.LazyLoader(spec.loader)
    spec.loader = loader
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _name in _PUBLIC:
    globals()[_name] = _lazy_submodule(_name)
del _name


def __getattr__(name: str):
    # Not cached here: a name replaced in its submodule (a monkeypatch, a
    # tracer) is seen through the package too.
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[home], name)


def __dir__():
    return sorted({*globals(), *_HOME})
