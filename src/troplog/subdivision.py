"""Complete fans and the pullback subdivision of map-moduli cones.

A complete fan in the target line (or plane) pulls back, through the
per-vertex value functionals of the symbolic balanced function, to a
subdivision of every moduli cone: one maximal cell per feasible
full-dimensional assignment of vertex images to fan cones.  All geometry
runs through the exact feasibility kernel.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .affine import AffineExpr, as_integer, fraction_str
from .errors import IncompleteFan, LengthMismatch, ParseError, UnsupportedDimension
from .feasibility import (
    Constraint,
    canonical_system,
    decode,
    encode,
    holds_at,
    prune_rows,
    rows_point,
    rows_scaled_point,
)
from .moduli import Cone, ConeComplex, _map_cones
from .plfunction import ContactOrder, vertex_values
from .tree import ValidationReport, VertexId

Vector = tuple[int, ...]
System = tuple[tuple[Vector, str], ...]  # (normal, relation) pairs


def _items(xs, what: str) -> list:
    if not isinstance(xs, (list, tuple)):
        raise ParseError(f"{what} {xs!r} is not a list")
    return list(xs)


def _check_dim(dim: int) -> None:
    if dim not in (1, 2):
        raise UnsupportedDimension(f"fans are supported in dimension 1 or 2 only, got {dim}")


def _primitive(v: Vector) -> Vector:
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v) if g else v


@dataclass(frozen=True)
class FanCone:
    """A rational cone given by integer ray generators.

    The halfspace description (normal, relation) with relation 'ge' or 'eq'
    is derived on construction; only ambient dimensions 1 and 2 are handled.
    """

    gens: tuple[Vector, ...]
    halfspaces: System = field(default=(), compare=False)
    dim: int = field(default=0, compare=False)

    @staticmethod
    def of(gens, ambient: int) -> "FanCone":
        _check_dim(ambient)
        rays = []
        for g in _items(gens, "generators"):
            v = tuple(as_integer(x, "coordinate") for x in _items(g, "generator"))
            if len(v) != ambient:
                raise ParseError(f"generator {g} has wrong dimension")
            if any(v):
                p = _primitive(v)
                if p not in rays:
                    rays.append(p)
        halfspaces, dim = _derive_halfspaces(tuple(rays), ambient)
        return FanCone(tuple(rays), halfspaces, dim)


def _angle_cmp(a: Vector, b: Vector) -> int:
    """Exact counterclockwise angle comparison of 2D integer vectors."""

    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    ha, hb = half(a), half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    cross = a[0] * b[1] - a[1] * b[0]
    return 0 if cross == 0 else (-1 if cross > 0 else 1)


def _derive_halfspaces(rays: tuple[Vector, ...], ambient: int):
    """Halfspaces and dimension of the cone of ``rays`` (ambient 1 or 2)."""
    if ambient == 1:
        signs = {1 if r[0] > 0 else -1 for r in rays}
        if not signs:
            return (((1,), "eq"),), 0
        if signs == {1}:
            return (((1,), "ge"),), 1
        if signs == {-1}:
            return (((-1,), "ge"),), 1
        return (), 1
    if not rays:
        return (((1, 0), "eq"), ((0, 1), "eq")), 0
    if len(rays) == 1:
        (gx, gy) = rays[0]
        return (((-gy, gx), "eq"), ((gx, gy), "ge")), 1
    # Candidate facet normals: rotations of the rays that see every ray
    # on their nonnegative side.
    candidates = []
    for gx, gy in rays:
        for n in ((-gy, gx), (gy, -gx)):
            if all(n[0] * rx + n[1] * ry >= 0 for rx, ry in rays):
                if n not in candidates:
                    candidates.append(_primitive(n))
    pos = [n for n in candidates if tuple(-x for x in n) not in candidates]
    eqs = sorted({max(n, tuple(-x for x in n)) for n in candidates if tuple(-x for x in n) in candidates})
    if eqs:
        # All rays on one line.
        return tuple((n, "eq") for n in eqs), 1
    if not pos:
        return (), 2  # positively spanning: the whole plane
    return tuple((n, "ge") for n in sorted(pos)), 2


@dataclass(frozen=True)
class Fan:
    dim: int
    cones: tuple[FanCone, ...]
    complete: bool = True

    @staticmethod
    def of(gens_list, dim: int, complete: bool = True) -> "Fan":
        _check_dim(dim)
        return Fan(dim, tuple(FanCone.of(g, dim) for g in gens_list), complete)

    @staticmethod
    def projective_line() -> "Fan":
        """The fan of P^1: both rays and the origin."""
        return Fan.of([[(1,)], [(-1,)], []], 1)

    @staticmethod
    def trivial(dim: int = 1) -> "Fan":
        """Single non-strictly convex cone equal to the whole space."""
        if dim == 1:
            return Fan.of([[(1,), (-1,)]], 1)
        _check_dim(dim)
        return Fan.of([[(1, 0), (-1, 0), (0, 1), (0, -1)]], 2)

    def maximal_cones(self) -> list[tuple[int, FanCone]]:
        return [(i, c) for i, c in enumerate(self.cones) if c.dim == self.dim]

    @functools.cached_property
    def rays(self) -> tuple[Vector, ...]:
        """The ray generators of all listed cones, sorted."""
        return tuple(sorted({r for c in self.cones for r in c.gens}))

    @functools.cached_property
    def open_faces(self) -> tuple[System, ...]:
        """The relatively open faces of the fan, read from the maximal
        cones; a face shared by two cones is listed once."""
        faces = {}
        for _, cone in self.maximal_cones():
            for key, face in _open_faces(cone, self.rays).items():
                faces.setdefault(key, face)
        return tuple(faces[k] for k in sorted(faces))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "complete": self.complete,
            "cones": [{"gens": [list(g) for g in c.gens]} for c in self.cones],
        }

    @staticmethod
    def from_json(doc: dict) -> "Fan":
        try:
            dim = as_integer(doc["dim"], "dim")
            gens_list = [c["gens"] for c in doc["cones"]]
            complete = doc.get("complete", True)
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed fan document: {exc}") from exc
        if not isinstance(complete, bool):
            raise ParseError(f"complete {complete!r} is not a boolean")
        return Fan.of(gens_list, dim, complete)


_XVARS = ("x0", "x1")
_XSYMS = tuple(AffineExpr.symbol(x) for x in _XVARS)
_XINDEX = {x: k for k, x in enumerate(_XVARS, 1)}


def _pullback(system: System, image: tuple[AffineExpr, ...]) -> list[Constraint]:
    """Pull target constraints (normal, rel) back along an image vector.

    ``image[j]`` is the j-th coordinate of the image as an affine expression
    in the source coordinates; the pulled-back constraint of ``normal`` is
    ``sum_j normal[j] * image[j]`` with the same relation.
    """
    out = []
    for normal, rel in system:
        expr = AffineExpr()
        for a, f in zip(normal, image):
            expr = expr + f * a
        out.append((expr, rel))
    return out


def _in_closure(system: System, point: Vector) -> bool:
    """Does ``point`` satisfy ``system`` with each strict relation relaxed?"""
    for normal, rel in system:
        val = sum(n * p for n, p in zip(normal, point))
        if rel == "eq" and val != 0:
            return False
        if rel != "eq" and val < 0:
            return False
    return True


def _open_faces(cone: FanCone, rays: tuple[Vector, ...]) -> dict[tuple[Vector, ...], System]:
    """The relatively open faces of one cone, each a system of
    (normal, 'eq' | 'gt') keyed by the ``rays`` on its closure.

    A face makes each 'ge' halfspace strict or tight; in dimension <= 2
    every such choice is a nonempty face.  A face is the cone spanned by the
    rays on its closure, so two faces are equal iff their keys are.
    """
    choices = [("gt", "eq") if rel == "ge" else (rel,) for _, rel in cone.halfspaces]
    faces = {}
    for rels in itertools.product(*choices):
        face = tuple((normal, r) for (normal, _), r in zip(cone.halfspaces, rels))
        faces[tuple(r for r in rays if _in_closure(face, r))] = face
    return faces


def validate_fan(fan: Fan) -> ValidationReport:
    """Check that the cones meet in common faces, and coverage when
    completeness is claimed.

    Two cones meet in a common face iff each open face of one is equal to
    or disjoint from each open face of the other; so every pair of open
    faces with different keys must have no common point.
    """
    _check_dim(fan.dim)
    faces = [
        [(key, encode(_pullback(face, _XSYMS), _XINDEX)) for key, face in _open_faces(c, fan.rays).items()]
        for c in fan.cones
    ]
    order = list(_XINDEX.values())
    problems = [
        f"intersection of cones {i} and {j} is not a face of both"
        for (i, fi), (j, fj) in itertools.combinations(enumerate(faces), 2)
        if any(a != b and rows_point(sa + sb, order) is not None for a, sa in fi for b, sb in fj)
    ]
    if fan.complete:
        problems.extend(_coverage_problems(fan))
    return ValidationReport(tuple(problems))


def _coverage_problems(fan: Fan) -> list[str]:
    if fan.dim == 1:
        probes = [(1,), (-1,)]
    else:
        rays = sorted(fan.rays, key=functools.cmp_to_key(_angle_cmp))
        if not rays:
            probes = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        elif len(rays) == 1:
            g = rays[0]
            probes = [g, (-g[0], -g[1]), (-g[1], g[0]), (g[1], -g[0])]
        else:
            probes = list(rays)
            for a, b in zip(rays, rays[1:] + rays[:1]):
                cross = a[0] * b[1] - a[1] * b[0]
                if a == b or cross > 0:
                    mid = (a[0] + b[0], a[1] + b[1])
                elif cross == 0:
                    mid = (-a[1], a[0])  # opposite rays: probe one side of the gap
                else:
                    # gap wider than a half-plane: the antipode of the short
                    # bisector lies inside it
                    mid = (-a[0] - b[0], -a[1] - b[1])
                    if mid == (0, 0):
                        mid = (a[1], -a[0])
                probes.append(mid)
    out = []
    for p in probes:
        if not any(_in_closure(c.halfspaces, p) for c in fan.cones):
            out.append(f"claimed complete, but direction {list(p)} is not covered")
    return out


# ---------------------------------------------------------------------------
# Subdivision
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubdividedCell:
    parent: str
    assignment: tuple[tuple[str, int], ...]  # vertex -> fan cone index
    halfspaces: tuple[AffineExpr, ...]  # each >= 0
    witness: tuple[tuple[str, Fraction], ...]
    dim: int

    @property
    def key(self):
        return canonical_system([(h, "ge") for h in self.halfspaces])

    def contains(self, point: dict[str, Fraction]) -> bool:
        return all(h.evaluate(point) >= 0 for h in self.halfspaces)

    def strictly_contains(self, point: dict[str, Fraction]) -> bool:
        return all(h.evaluate(point) > 0 for h in self.halfspaces)

    def to_json(self) -> dict:
        return {
            "parent": self.parent,
            "assignment": {v: i for v, i in self.assignment},
            "halfspaces": [str(h) for h in self.halfspaces],
            "witness": {k: fraction_str(v) for k, v in self.witness},
            "dim": self.dim,
        }


def _images(
    functionals: dict[tuple[VertexId, int], AffineExpr], dim: int
) -> dict[VertexId, tuple[AffineExpr, ...]]:
    """Each vertex's image vector of values, in sorted vertex order."""
    out = {}
    for v in sorted({v for v, _ in functionals}, key=str):
        for j in range(dim):
            if (v, j) not in functionals:
                raise LengthMismatch(f"missing functional for vertex {v!r}, coordinate {j}")
        out[v] = tuple(functionals[(v, j)] for j in range(dim))
    return out


def _search(slots: list[list], order: list[int], carry: bool = False):
    """Yield (option indices, rows, certified point) for each feasible choice
    of one option (a list of rows, or None) per slot, depth first, dropping
    every prefix the kernel rejects.

    With ``carry`` only the verdicts are read, and each point is scaled to
    integers (see ``rows_scaled_point``): a child keeps its parent's point
    when that point satisfies the child's new rows, and the kernel runs
    only when it does not.  The root, which has no rows, starts from the
    point with every coordinate 1.
    """
    kernel = rows_scaled_point if carry else rows_point

    def visit(depth: int, picks: tuple[int, ...], rows: list, point):
        if depth == len(slots):
            yield picks, rows, point
            return
        for i, option in enumerate(slots[depth]):
            if option is None:
                continue
            extended = rows + option
            child = point if carry and holds_at(option, point) else kernel(extended, order)
            if child is not None:
                yield from visit(depth + 1, (*picks, i), extended, child)

    return visit(0, (), [], [1] * (len(order) + 1) if carry else rows_point([], order))


def _coordinates(K: Cone) -> tuple[list[str], dict[str, int], list[int]]:
    """K's coordinates, their columns (sorted) and the elimination order."""
    coords = [c.name for c in K.coords]
    index = {name: k for k, name in enumerate(sorted(coords), 1)}
    return coords, index, [index[c] for c in coords]


def _strict_walls(rows: list) -> list | None:
    """The non-constant rows made strict; None if a constant row fails."""
    if any(not any(row[1:]) and row[0] < 0 for row, _ in rows):
        return None
    return [(row, "gt") for row, _ in rows if any(row[1:])]


def subdivide_cone(
    K: Cone,
    vertex_functionals: dict[tuple[VertexId, int], AffineExpr],
    fan: Fan,
) -> list[SubdividedCell]:
    """Maximal cells of the pullback subdivision of K along the fan.

    Each cell fixes, for every vertex, the fan cone containing its image
    vector of values; a cell survives iff it meets the interior of K, and
    identical cells arising from different assignments are merged.  The
    search has one strict slot per nonnegative coordinate of K, then one
    slot per distinct image, with one option per maximal fan cone.
    """
    if not fan.complete:
        raise IncompleteFan("subdivision requires a complete target fan")
    images = _images(vertex_functionals, fan.dim)
    distinct = list(dict.fromkeys(images.values()))
    maximal = fan.maximal_cones()
    coords, index, order = _coordinates(K)
    names = sorted(coords)
    slots = [[encode([(h, "gt")], index)] for h in K.inequalities]
    for image in distinct:
        slots.append([_strict_walls(encode(_pullback(fc.halfspaces, image), index)) for _, fc in maximal])

    cells: dict[tuple, SubdividedCell] = {}
    for picks, rows, point in _search(slots, order):
        cone_of = dict(zip(distinct, picks[len(K.inequalities) :]))
        facets = prune_rows([(row, "ge") for row, _ in rows], order)
        cell = SubdividedCell(
            parent=K.name,
            assignment=tuple((str(v), maximal[cone_of[image]][0]) for v, image in images.items()),
            halfspaces=tuple(sorted((decode(row, names, rel)[0] for row, rel in facets), key=str)),
            witness=tuple(sorted((c, point[index[c]]) for c in coords)),
            dim=K.dim,
        )
        cells.setdefault(cell.key, cell)
    return [cells[k] for k in sorted(cells)]


def _rank(rows: list[tuple[int, ...]]) -> int:
    """Rank of an integer matrix, by fraction-free elimination."""
    m = [r for r in rows if any(r)]
    rank = 0
    while m:
        pivot = m.pop()
        col = next(k for k, a in enumerate(pivot) if a)
        a = pivot[col]
        m = [r if not r[col] else [a * x - r[col] * y for x, y in zip(r, pivot)] for r in m]
        m = [r for r in m if any(r)]
        rank += 1
    return rank


def _census(
    K: Cone,
    functionals: dict[tuple[VertexId, int], AffineExpr],
    fan: Fan,
    rels: tuple[str, ...],
    carry: bool,
) -> dict[int, int]:
    """Faces of the pullback subdivision of K along the fan, by dimension,
    inside the faces of K on which each nonnegative coordinate has one of
    the relations ``rels`` to zero.

    The faces are the leaves of the search over one slot per nonnegative
    coordinate of K (an option per relation), then one per distinct image
    vector (an option per relatively open fan face), each choice encoded as
    integer rows once, over K's coordinates.  A face has dimension
    #coords - rank of its equalities.
    """
    coords, index, order = _coordinates(K)
    slots = [[encode([(h, rel)], index) for rel in rels] for h in K.inequalities]
    for image in dict.fromkeys(_images(functionals, fan.dim).values()):
        slots.append([encode(_pullback(face, image), index) for face in fan.open_faces])
    counts: dict[int, int] = {}
    for _, rows, _ in _search(slots, order, carry):
        d = len(coords) - _rank([row[1:] for row, rel in rows if rel == "eq"])
        counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items()))


def face_census(
    K: Cone, functionals: dict[tuple[VertexId, int], AffineExpr], fan: Fan
) -> dict[int, int]:
    """f-vector of the pullback subdivision of K along the fan.

    A relatively open face of the subdivision is a relatively open face of
    K together with one relatively open face of the fan for each vertex
    image: the census runs over every face of K, each nonnegative
    coordinate zero or positive.
    """
    return _census(K, functionals, fan, ("eq", "gt"), carry=False)


def _interior_census(
    K: Cone, functionals: dict[tuple[VertexId, int], AffineExpr], fan: Fan
) -> dict[int, int]:
    """The faces of the pullback subdivision of K along the fan that lie in
    the relative interior of K, by dimension: every nonnegative coordinate
    positive.  Only verdicts are read, so the search carries points."""
    return _census(K, functionals, fan, ("gt",), carry=True)


@dataclass
class SubdividedComplex:
    complex: ConeComplex
    fan: Fan
    cells: dict[str, list[SubdividedCell]]
    functionals: dict[str, dict[tuple[VertexId, int], AffineExpr]]  # cone key -> its functionals

    def stats(self) -> dict:
        """Cell counts and the f-vector of each cone's subdivision.

        Every face of a map cone is the map cone of the contracted type, and
        the subdivision restricts to it as that cone's own subdivision.  So
        the f-vector of K is the sum of ``_interior_census`` over K and the
        cones reached from it through ``CombinatorialType.facets``, each
        searched once; distinct contracted split sets are distinct keys.
        """

        @functools.cache
        def census(key: str) -> dict[int, int]:
            return _interior_census(self.complex.cones[key], self.functionals[key], self.fan)

        @functools.cache
        def closure(key: str) -> frozenset[str]:
            return frozenset({key}).union(*(closure(face) for face, _ in self.complex.types[key].facets))

        def f_vector(key: str) -> dict[int, int]:
            counts: dict[int, int] = {}
            for face in closure(key):
                for d, c in census(face).items():
                    counts[d] = counts.get(d, 0) + c
            return dict(sorted(counts.items()))

        per_cone = {
            key: {"max_cells": len(cs), "dim": self.complex.cones[key].dim, "f_vector": f_vector(key)}
            for key, cs in self.cells.items()
        }
        return {
            "total_max_cells": sum(len(cs) for cs in self.cells.values()),
            "per_cone": dict(sorted(per_cone.items())),
        }

    def to_json(self) -> dict:
        stats = self.stats()
        stats["per_cone"] = {
            k: {**v, "f_vector": {str(d): c for d, c in v["f_vector"].items()}}
            for k, v in stats["per_cone"].items()
        }
        return {
            "complex": self.complex.to_json(),
            "fan": self.fan.to_json(),
            "cells": {
                key: [c.to_json() for c in cs] for key, cs in sorted(self.cells.items())
            },
            "statistics": stats,
        }


def cone_functionals(cx: ConeComplex, key: str) -> dict[tuple[VertexId, int], AffineExpr]:
    """Per-vertex value functionals of the symbolic function(s) on one cone."""
    fs = cx.functions[key]
    if not isinstance(fs, tuple):
        fs = (fs,)
    out: dict[tuple[VertexId, int], AffineExpr] = {}
    for j, f in enumerate(fs):
        for v, val in vertex_values(f).items():
            out[(v, j)] = val
    return out


def subdivide_map_moduli(n: int, sigmas, fan: Fan) -> SubdividedComplex:
    """Subdivide every cone of the map moduli by the pullback of the fan.

    ``sigmas`` is one ContactOrder (target dimension 1) or a list of m of
    them (target dimension m, desk scale m <= 2); the fan dimension must
    match.
    """
    if isinstance(sigmas, ContactOrder):
        sigmas = [sigmas]
    if fan.dim != len(sigmas):
        raise LengthMismatch(
            f"fan dimension {fan.dim} does not match {len(sigmas)} contact orders"
        )
    if not fan.complete:
        raise IncompleteFan("subdivision requires a complete target fan")
    cx = _map_cones(n, list(sigmas))
    functionals = {key: cone_functionals(cx, key) for key in cx.cones}
    cells = {key: subdivide_cone(cx.cones[key], functionals[key], fan) for key in cx.cones}
    return SubdividedComplex(cx, fan, cells, functionals)
