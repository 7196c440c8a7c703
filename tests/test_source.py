import ast
import copy
import dataclasses
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest

import troplog

SOURCES = sorted(Path(troplog.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # Checks must survive ``python -O``, which strips assert statements.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found


def _is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass"
    )


def test_no_dataclass_field_left_out_of_equality():
    # Builds are cached by value.  A field declared ``compare=False``, or an
    # ``__eq__`` or ``__hash__`` written by hand, lets a value equal to
    # another carry different data into a cache key, and be served the
    # other's build.  No call in the package passes ``compare``, and every
    # dataclass compares and hashes by all its fields.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.keyword) and node.arg == "compare":
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass_decorator, node.decorator_list)):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        names = [item.name]
                    else:  # ``__hash__ = ...``
                        names = [t.id for t in getattr(item, "targets", ()) if isinstance(t, ast.Name)]
                    found += [f"{path.name}:{item.lineno} {node.name}.{name}" for name in names if name in ("__eq__", "__hash__")]
    assert SOURCES and not found


def test_oracles_import_no_private_names():
    # An oracle that borrows the library's private helpers checks the
    # library against itself.
    path = Path(__file__).with_name("oracles.py")
    found = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "troplog"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not found


def test_no_unused_imports():
    # Catches an import left behind by a deleted code path.  An import kept
    # on purpose says why after ``# noqa: F401`` on its line.
    found = []
    for path in SOURCES:
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text, str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and not re.search(r"# noqa: F401\s+\S", lines[alias.lineno - 1]):
                        found.append(f"{path.name}:{alias.lineno} {name}")
    assert SOURCES and not found


# Each private name that one troplog module imports from another, as
# (importing module, defining module, name).  A new one is a reviewed edit
# of this list; the CLI's attribute reads (``moduli._check_contacts``) are
# not imports and are not listed.
PRIVATE_IMPORTS = {
    ("subdivision", "feasibility", "_reduced"),
    ("subdivision", "moduli", "_map_cones"),
    ("plfunction", "tree", "_vertex_id"),
    # The JSON of one edge, leg, edge slope and leg-slope map, which
    # ``moduli._json_pieces`` encodes once per distinct value.
    ("moduli", "tree", "_edge_json"),
    ("moduli", "tree", "_leg_json"),
    ("moduli", "plfunction", "_edge_slope_json"),
    ("moduli", "plfunction", "_leg_slopes_json"),
    # The subdivision writer prints its ``complex`` with the complex writer.
    ("subdivision", "moduli", "_json_pieces"),
}


def test_cross_module_private_imports_are_listed():
    found = {
        (path.stem, (node.module or "").rpartition(".")[2], alias.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "troplog")
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert SOURCES and found == PRIVATE_IMPORTS


def _subdivided_cell():
    cx = troplog.subdivide_map_moduli(4, troplog.ContactOrder.of([1, 1, 1, -3]), troplog.Fan.projective_line())
    return next(cell for cells in cx.cells.values() for cell in cells)


def _plfunction():
    t = troplog.Tree.build(["a", "b"], [("a", "b", 2)], [(1, "a"), (2, "a"), (3, "b"), (4, "b")])
    return troplog.extend_from_leg_slopes(t, troplog.ContactOrder.of([1, 2, -1, -2]), "a", troplog.AffineExpr.parse("c + 1/2"))


# One value of each record that the builds make by the thousand.
SLOTTED = {
    "Edge": lambda: troplog.Edge(("a", "b"), Fraction(3, 2)),
    "Leg": lambda: troplog.Leg(2, "a"),
    "CanonicalForm": lambda: troplog.canonicalize(_plfunction().tree),
    "CombinatorialType": lambda: troplog.enumerate_tree_types(5)[-1],
    "ValidationReport": lambda: troplog.validate_tree(troplog.Tree((), (), ())),
    "Coord": lambda: troplog.moduli.Coord("l_e0", "nonneg"),
    "Cone": lambda: max(troplog.build_moduli_complex(5).cones.values(), key=lambda c: c.name),
    "FaceMap": lambda: troplog.build_moduli_complex(5).face_maps[-1],
    "ContactOrder": lambda: troplog.ContactOrder.of([1, 2, -3]),
    "PLFunction": _plfunction,
    "Multidegree": lambda: troplog.multidegree(_plfunction()),
    "AffineExpr": lambda: troplog.AffineExpr.parse("c - 3/4*l_e0 + 2"),
    "SubdividedCell": _subdivided_cell,
    "FanCone": lambda: troplog.Fan.projective_line().cones[0],
}


@pytest.mark.parametrize("name", sorted(SLOTTED))
def test_value_records_are_slotted(name):
    # Their instances carry no ``__dict__``; copying and pickling still
    # give a value equal to the original in every field.
    x = SLOTTED[name]()
    assert type(x).__name__ == name and not hasattr(x, "__dict__")

    def state(y):
        return type(y), [getattr(y, f.name) for f in dataclasses.fields(y)]

    for y in (dataclasses.replace(x), copy.copy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and state(y) == state(x)
