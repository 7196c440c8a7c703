"""Complete fans and the pullback subdivision of map-moduli cones.

A complete fan in the target line (or plane) pulls back, through the
per-vertex value functionals of the symbolic balanced function (on a map
cone, read from its type's splits), to a subdivision of every moduli cone:
one maximal cell per feasible full-dimensional assignment of vertex images
to fan cones.  A cone's images are encoded as integer rows for its cells,
and again by ``stats()``.  Apart from the cone's name and the vertex names
of its assignments, the cells and the interior face counts of a cone are a
function of that encoding and the fan, and many map cones share one
encoding: each is computed once per distinct encoding and shared.  On the
fan of P^1, when the images are tree potentials (as on every map cone),
the cells and the interior face counts are read from the order that the
slopes put on the vertices, with one kernel call per cell of a distinct
encoding, for its witness, and none for the counts.  Everything else runs
through the exact feasibility kernel.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul, ne

from .affine import AffineExpr, as_integer, fraction_str
from .errors import IncompleteFan, LengthMismatch, ParseError, UnsupportedDimension
from .feasibility import (
    Row,
    _reduced,
    decode,
    holds_at,
    prune_rows,
    rows_scaled_point,
)
from .moduli import Cone, ConeComplex, _json_pieces as _complex_pieces, _map_cones, cone_functionals
from .plfunction import ContactOrder
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


@dataclass(frozen=True, slots=True)
class FanCone:
    """A rational cone given by integer ray generators.

    The halfspace description (normal, relation) with relation 'ge' or 'eq'
    and the dimension are derived by ``of``, the one builder; only ambient
    dimensions 1 and 2 are handled.
    """

    gens: tuple[Vector, ...]
    halfspaces: System
    dim: int

    @staticmethod
    def of(gens, ambient: int) -> "FanCone":
        _check_dim(as_integer(ambient, "dim"))
        rays = []
        for g in _items(gens, "generators"):
            v = tuple(as_integer(x, "coordinate") for x in _items(g, "generator"))
            if len(v) != ambient:
                raise ParseError(f"generator {g} has wrong dimension")
            if any(v):
                p = _reduced(v)
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
                    candidates.append(_reduced(n))
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

    def __post_init__(self):
        _check_dim(as_integer(self.dim, "dim"))
        for i, c in enumerate(self.cones):
            if any(len(v) != self.dim for v in (*c.gens, *(normal for normal, _ in c.halfspaces))):
                raise ParseError(f"cone {i} does not lie in dimension {self.dim}")
            # Cells are cached by fan and read each cone's halfspaces: a fan
            # must be fixed by its dimension, its generators and ``complete``.
            if c != FanCone.of(c.gens, self.dim):
                raise ParseError(f"cone {i} is not the cone of its generators")

    @staticmethod
    def of(gens_list, dim: int, complete: bool = True) -> "Fan":
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
    faces = [
        [(key, [((0, *normal), rel) for normal, rel in face]) for key, face in _open_faces(c, fan.rays).items()]
        for c in fan.cones
    ]
    order = list(range(1, fan.dim + 1))
    problems = [
        f"intersection of cones {i} and {j} is not a face of both"
        for (i, fi), (j, fj) in itertools.combinations(enumerate(faces), 2)
        if any(a != b and rows_scaled_point(sa + sb, order) is not None for a, sa in fi for b, sb in fj)
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
                if cross > 0:
                    mid = (a[0] + b[0], a[1] + b[1])
                elif cross == 0:
                    mid = (-a[1], a[0])  # opposite rays: probe one side of the gap
                else:
                    # gap wider than a half-plane: the antipode of the short
                    # bisector lies inside it
                    mid = (-a[0] - b[0], -a[1] - b[1])
                probes.append(mid)
    out = []
    for p in probes:
        if not any(_in_closure(c.halfspaces, p) for c in fan.cones):
            out.append(f"claimed complete, but direction {list(p)} is not covered")
    return out


# ---------------------------------------------------------------------------
# Subdivision
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SubdividedCell:
    parent: str
    assignment: tuple[tuple[str, int], ...]  # vertex -> fan cone index
    halfspaces: tuple[AffineExpr, ...]  # each >= 0
    witness: tuple[tuple[str, Fraction], ...]
    dim: int

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


Image = tuple[Row, ...]  # one integer row per fan coordinate


def _encoded(K: Cone, functionals: dict[tuple[VertexId, int], AffineExpr], dim: int):
    """``(names, order, units, distinct, image_of)``: what the cells and
    the census of K read, encoded once.

    Column k of a row is K's coordinate ``names[k - 1]`` (sorted), column
    0 the constant; ``order`` eliminates the columns in K's coordinate
    order, and ``units`` pairs the column of each nonnegative coordinate,
    in K's order, with its unit row.  An image is ``dim`` integer rows,
    one per fan coordinate; ``distinct`` lists the distinct images in
    sorted vertex order, and ``image_of`` maps each vertex to its image's
    index there.  Every image of K is scaled by one positive integer, the
    lcm of the denominators of all the functionals: so equal rows are
    equal images, and no image has its coordinates scaled apart (which
    would tilt a 2-D pullback).  The first four are tuples, the encoding
    that the cells and the interior census are computed once for.
    """
    names = tuple(sorted(c.name for c in K.coords))
    index = {name: k for k, name in enumerate(names, 1)}
    nonneg = [index[c.name] for c in K.coords if c.sign == "nonneg"]
    units = tuple((col, tuple(int(k == col) for k in range(len(names) + 1))) for col in nonneg)
    for v, j in functionals:
        if j not in range(dim):
            raise LengthMismatch(f"functional for vertex {v!r}, coordinate {j}, in a fan of dimension {dim}")
    den = lcm(*(q.denominator for f in functionals.values() for q in (f.const, *(c for _, c in f.terms))))
    distinct: dict[Image, int] = {}
    image_of: dict[VertexId, int] = {}
    for v in sorted({v for v, _ in functionals}, key=str):
        rows = []
        for j in range(dim):
            if (v, j) not in functionals:
                raise LengthMismatch(f"missing functional for vertex {v!r}, coordinate {j}")
            f = functionals[(v, j)]
            row = [f.const.numerator * (den // f.const.denominator)] + [0] * len(names)
            for name, q in f.terms:
                if name not in index:
                    raise LengthMismatch(f"functional for vertex {v!r}, coordinate {j}, names unknown {name!r}")
                row[index[name]] = q.numerator * (den // q.denominator)
            rows.append(tuple(row))
        image_of[v] = distinct.setdefault(tuple(rows), len(distinct))
    return names, tuple(index[c.name] for c in K.coords), units, tuple(distinct), image_of


def _pullbacks(image: Image, systems: tuple[System, ...]) -> list[list[tuple[Row, str]]]:
    """Each target system of (normal, rel) pulled back along an image: the
    row of ``normal`` is sum_j normal[j] * image[j], reduced."""
    columns = list(zip(*image))
    return [
        [(_reduced(tuple(sum(map(mul, normal, col)) for col in columns)), rel) for normal, rel in system]
        for system in systems
    ]


def _search(slots: list[list], order: tuple[int, ...]):
    """Yield (option indices, rows, point, fresh) for each feasible choice
    of one option (a list of rows, or None) per slot, depth first, dropping
    every prefix the kernel rejects.

    Each point is certified and scaled to integers (see
    ``rows_scaled_point``): a child keeps its parent's point when that point
    satisfies the child's new rows, and the kernel runs only when it does
    not.  The root, which has no rows, starts from the point with every
    coordinate 1.  ``fresh`` says that the kernel found the point for the
    leaf's own rows, so that it is their ``rows_scaled_point``.
    """
    return _visit(slots, order, 0, (), [], [1] * (len(order) + 1), False)


def _visit(
    slots: list[list], order: tuple[int, ...], depth: int, picks: tuple[int, ...], rows: list, point: list[int], fresh: bool
):
    """The leaves of ``_search`` below the node that ``picks`` chose in
    the first ``depth`` slots, whose ``rows`` hold at ``point``."""
    if depth == len(slots):
        yield picks, rows, point, fresh
        return
    for i, option in enumerate(slots[depth]):
        if option is None:
            continue
        extended = rows + option
        kept = holds_at(option, point)
        child = point if kept else rows_scaled_point(extended, order)
        if child is not None:
            yield from _visit(slots, order, depth + 1, (*picks, i), extended, child, not kept)


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
    vector of values; a cell survives iff it meets the interior of K.
    Cells are merged and ordered on their integer facet rows: a cell's key
    is its rows as ``(row[0], ((k, row[k]) for each nonzero column k))``,
    sorted, and the first assignment of a key is kept.  Columns follow
    K's sorted coordinate names, so the keys sort as the halfspaces'
    ``(const, terms)`` would.  On P^1 with tree potentials for images (see
    ``_slope_order``) the cells are read from the slope order, one per
    up-set (``_ordered_cells``);
    otherwise a search finds them (``_searched_cells``).  Either way a
    cell's witness is the kernel's point of the leaf's rows: K's strict
    rows, then one strict wall row per distinct image, in image order.
    The cells are computed once per distinct encoding of the images (see
    ``_encoded``) and fan, and shared (``_encoded_cells``): each cone
    takes the halfspaces and witnesses of its encoding as they are and
    adds its own name, dimension and vertices.
    """
    if not fan.complete:
        raise IncompleteFan("subdivision requires a complete target fan")
    names, order, units, distinct, image_of = _encoded(K, vertex_functionals, fan.dim)
    vertex_slots = [(str(v), i) for v, i in image_of.items()]
    return [
        SubdividedCell(K.name, tuple((v, picks[i]) for v, i in vertex_slots), halfspaces, witness, K.dim)
        for picks, halfspaces, witness in _encoded_cells(names, order, units, distinct, fan)
    ]


# Distinct encodings held at once; P^1 at n = 8 with σ = (1, ..., 1, -7)
# has 461 of them over its 39 208 map cones.
_CELLS_CACHE_SIZE = 2048


@functools.lru_cache(maxsize=_CELLS_CACHE_SIZE)
def _encoded_cells(names: tuple, order: tuple, units: tuple, distinct: tuple, fan: Fan) -> tuple:
    """The cells of every cone with this encoding (see ``_encoded``) under
    the fan, in key order, as (fan cone per distinct image, halfspaces,
    witness) tuples; see ``subdivide_cone``.

    A fan's cones are derived from their generators (``Fan`` checks it),
    so equal fans hold equal halfspaces.
    Each facet row is decoded once per encoding: reduced, its coefficients
    are already coprime integers.
    """
    units = dict(units)
    line = _slope_order(distinct, units, fan)
    if line is None:
        found = _searched_cells(distinct, fan, units, order)
    else:
        found = _ordered_cells(distinct, line, units, order)
    decoded: dict[Row, tuple[str, AffineExpr]] = {}

    def halfspace(row: Row) -> tuple[str, AffineExpr]:
        if row not in decoded:
            h = decode(row, names, "ge")[0]
            decoded[row] = (str(h), h)
        return decoded[row]

    cells: dict[tuple, tuple] = {}
    for picks, facets, point in found:
        key = tuple(sorted((row[0], tuple((k, x) for k, x in enumerate(row) if k and x)) for row in facets))
        if key not in cells:
            hs = sorted(map(halfspace, facets), key=lambda entry: entry[0])
            witness = tuple((c, Fraction(point[k], point[0])) for k, c in enumerate(names, 1))
            cells[key] = (tuple(picks), tuple(h for _, h in hs), witness)
    return tuple(cells[key] for key in sorted(cells))


def _searched_cells(distinct: tuple[Image, ...], fan: Fan, units: dict[int, Row], order: tuple[int, ...]):
    """Yield (fan cone per distinct image, facet rows, witness) per leaf of
    the search over one slot per nonnegative coordinate, its strict unit
    row, then one slot per distinct image, with one option per maximal fan
    cone.  A leaf's facets come from ``prune_rows``, which gets the
    search's point, strictly inside every row of the leaf, to shoot rays
    from; its witness is the kernel's point of its rows, which the search
    often found already."""
    maximal = fan.maximal_cones()
    walls = tuple(fc.halfspaces for _, fc in maximal)
    slots = [[[(row, "gt")]] for row in units.values()]
    for image in distinct:
        slots.append([_strict_walls(rows) for rows in _pullbacks(image, walls)])
    for picks, rows, point, fresh in _search(slots, order):
        facets = prune_rows([(row, "ge") for row, _ in rows], order, point)
        if not fresh:
            point = rows_scaled_point(rows, order)
        yield [maximal[p][0] for p in picks[len(units) :]], [row for row, _ in facets], point


# ---------------------------------------------------------------------------
# P^1: the cells and faces from the slope order
# ---------------------------------------------------------------------------
#
# On a map cone for one contact order, vertex v takes the value c + g(v),
# where c is the free translation and g(v) sums slope * length along the
# path from the root.  Each edge of nonzero slope orders its ends' classes
# of equal image; since c is free and any potential that increases along
# the edges is reached by positive lengths, the P^1 pullback depends on
# this order alone (Stanley, Enumerative Combinatorics I, section 3.4).


def _slope_order(distinct: tuple[Image, ...], units: dict[int, Row], fan: Fan):
    """``(up, down, edges)`` when the fan is P^1 and the distinct images
    are tree potentials, else None.

    The fan must be 1-D with maximal cones exactly the rays (1) and (-1),
    at fan indices ``up`` and ``down``; the origin is the only other cone
    a 1-D fan can list, and no subdivision reads it.  Each image is one
    integer row, all of them under the cone's one scale (see
    ``_encoded``), so two images differ by a nonzero multiple of one
    coordinate iff their rows differ in exactly that column.  The images
    are tree potentials when the pairs of rows that differ in exactly one
    column, the column of a nonnegative coordinate (in ``units``), each
    use their own column and number one less than the images, and a free
    coordinate's column is nonzero in the first row.  Such pairs make no
    cycle (the distinct coordinates around one could not cancel), so they
    span the images as a tree, and every image shares the first one's
    free coefficients.  ``edges`` holds (lower, upper, column) per pair,
    as indices into ``distinct``: the upper row is the larger in the
    column.
    """
    maximal = fan.maximal_cones()
    rays = {cone.gens: i for i, cone in maximal}
    if fan.dim != 1 or len(maximal) != 2 or set(rays) != {((1,),), ((-1,),)} or not distinct:
        return None
    rows = [row for (row,) in distinct]
    if not any(x for k, x in enumerate(rows[0]) if k and k not in units):
        return None
    edges, used = [], set()
    for i, j in itertools.combinations(range(len(rows)), 2):
        differs = list(map(ne, rows[i], rows[j]))
        if differs.count(True) == 1 and (k := differs.index(True)) in units:
            if k in used:
                return None
            used.add(k)
            edges.append((i, j, k) if rows[j][k] > rows[i][k] else (j, i, k))
    if len(edges) != len(rows) - 1:
        return None
    return rays[((1,),)], rays[((-1,),)], edges


def _up_sets(above: list[list[int]], below: list[list[int]]) -> list[int]:
    """The up-sets of the order whose covering pairs ``above`` and
    ``below`` list per class, as bitmasks: the classes are taken from the
    top down, each one joining every up-set found so far that holds all
    the classes above it."""
    waiting = [len(a) for a in above]
    ready = [v for v, n in enumerate(waiting) if not n]
    sets = [0]
    while ready:
        v = ready.pop()
        sets += [s | 1 << v for s in sets if all(s >> w & 1 for w in above[v])]
        for w in below[v]:
            waiting[w] -= 1
            if not waiting[w]:
                ready.append(w)
    return sets


def _ordered_cells(distinct: tuple[Image, ...], line, units: dict[int, Row], order: tuple[int, ...]):
    """Yield (fan cone per distinct image, facet rows, witness) per up-set
    U of the slope order: the classes in U go to the ray (1), the rest to
    (-1).  The facets are l >= 0 for each nonnegative coordinate that is
    no order edge or whose edge has both ends on one side, the wall of
    each minimal class of U and the wall of each maximal class outside U.
    The witness is the one kernel call per cell, on the leaf's rows."""
    up, down, edges = line
    k = len(distinct)
    walls = [_reduced(row) for (row,) in distinct]
    negated = [tuple(-x for x in w) for w in walls]
    strict = [(row, "gt") for row in units.values()]
    always = [row for col, row in units.items() if col not in {col for _, _, col in edges}]
    below = [[lo for lo, hi, _ in edges if hi == v] for v in range(k)]
    above = [[hi for lo, hi, _ in edges if lo == v] for v in range(k)]
    for u in _up_sets(above, below):
        inside = [bool(u >> v & 1) for v in range(k)]
        rows = strict + [(walls[v] if inside[v] else negated[v], "gt") for v in range(k)]
        facets = always + [units[col] for lo, hi, col in edges if inside[lo] == inside[hi]]
        facets += [walls[v] for v in range(k) if inside[v] and not any(inside[w] for w in below[v])]
        facets += [negated[v] for v in range(k) if not inside[v] and all(inside[w] for w in above[v])]
        yield [up if side else down for side in inside], facets, rows_scaled_point(rows, order)


def _ordered_census(dim: int, k: int, edges: list) -> dict[int, int]:
    """The faces of a P^1 pullback in the relative interior of a cone of
    dimension ``dim``, by dimension, from the slope order on its k classes.

    Such a face labels each class -1, 0 or +1 by the side of the origin
    its image takes; the labels never decrease from the lower end of an
    edge to the upper end, and no edge has 0 at both ends, since its
    length is positive.  A face with z zeros has dimension dim - z, the
    zero images being independent.  One dynamic program over the class
    tree, rooted at class 0, counts the labelings by z.
    """
    near = [[] for _ in range(k)]
    for lo, hi, _ in edges:
        near[lo].append((hi, True))
        near[hi].append((lo, False))
    walk, parent = [0], {0: None}
    for v in walk:
        for w, _ in near[v]:
            if w not in parent:
                parent[w] = v
                walk.append(w)
    # counts[v]: the labelings of v's subtree with v labelled -1, 0 and +1,
    # each as a list of counts by the number of zeros.
    counts: list = [None] * k
    for v in reversed(walk):
        minus, zero, plus = [1], [0, 1], [1]
        for w, w_above in near[v]:
            if w == parent[v]:
                continue
            m, z, p = counts[w]
            every = _plus((m, z, p))
            if w_above:
                minus, zero, plus = _times(minus, every), _times(zero, p), _times(plus, p)
            else:
                minus, zero, plus = _times(minus, m), _times(zero, m), _times(plus, every)
        counts[v] = minus, zero, plus
    total = _plus(counts[0])
    return dict(sorted((dim - z, c) for z, c in enumerate(total) if c))


def _plus(polys) -> list[int]:
    """The sum of polynomials given as coefficient lists."""
    out: list[int] = []
    for p in polys:
        out += [0] * (len(p) - len(out))
        for z, c in enumerate(p):
            out[z] += c
    return out


def _times(p: list[int], q: list[int]) -> list[int]:
    """The product of two polynomials given as coefficient lists."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


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


def _encoded_census(
    names: tuple, order: tuple, units: tuple, distinct: tuple, fan: Fan, rels: tuple[str, ...]
) -> dict[int, int]:
    """Faces of the pullback subdivision along the fan, by dimension, of
    every cone with this encoding (see ``_encoded``), inside the faces of
    the cone on which each nonnegative coordinate has one of the relations
    ``rels`` to zero.

    The faces are the leaves of the search over one slot per nonnegative
    coordinate of the cone (an option per relation), then one per distinct
    image vector (an option per relatively open fan face), each choice
    pulled back once to integer rows over the cone's columns.  A face has
    dimension #coords - rank of its equalities.  The faces in the relative
    interior of the cone (``rels`` is ("gt",)) on P^1 with tree potentials
    for images are counted from the slope order instead, with no kernel
    call (``_ordered_census``).
    """
    units = dict(units)
    if rels == ("gt",) and (line := _slope_order(distinct, units, fan)) is not None:
        return _ordered_census(len(names), len(distinct), line[2])
    slots = [[[(row, rel)] for rel in rels] for row in units.values()]
    for image in distinct:
        slots.append(_pullbacks(image, fan.open_faces))
    counts: dict[int, int] = {}
    for _, rows, _, _ in _search(slots, order):
        d = len(names) - _rank([row[1:] for row, rel in rows if rel == "eq"])
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
    return _encoded_census(*_encoded(K, functionals, fan.dim)[:4], fan, ("eq", "gt"))


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
        the f-vector of K is the sum, over K and the cones reached from it
        through ``CombinatorialType.facets``, of the census of the faces in
        the cone's relative interior (every nonnegative coordinate positive),
        each counted once; distinct contracted split sets are distinct keys.
        On P^1 each count comes from the slope order of the cone's vertex
        values, one dynamic program over the tree with no kernel call;
        other fans search the cone's interior faces.  Each count is made
        once per distinct encoding of the vertex images (see ``_encoded``)
        and the fan, and shared by the cones of that encoding, within this
        call.
        """
        types = self.complex.types
        closure: dict[str, frozenset[str]] = {}  # each cone and the faces reached from it
        for key in sorted(types, key=lambda k: len(types[k].splits)):
            closure[key] = frozenset({key}).union(*(closure[face] for face, _ in types[key].facets))
        interior: dict[tuple, dict[int, int]] = {}  # census by encoding
        census: dict[str, dict[int, int]] = {}  # census by cone, shared with its encoding
        per_cone = {}
        for key, cs in self.cells.items():
            counts: dict[int, int] = {}
            for face in closure[key]:
                if face not in census:
                    encoding = _encoded(self.complex.cones[face], self.functionals[face], self.fan.dim)[:4]
                    if encoding not in interior:
                        interior[encoding] = _encoded_census(*encoding, self.fan, ("gt",))
                    census[face] = interior[encoding]
                for d, c in census[face].items():
                    counts[d] = counts.get(d, 0) + c
            f_vector = dict(sorted(counts.items()))
            per_cone[key] = {"max_cells": len(cs), "dim": self.complex.cones[key].dim, "f_vector": f_vector}
        return {
            "total_max_cells": sum(len(cs) for cs in self.cells.values()),
            "per_cone": dict(sorted(per_cone.items())),
        }

    def to_json(self) -> dict:
        return json.loads("".join(_json_pieces(self)))


def _json_pieces(sub: SubdividedComplex) -> list[str]:
    """The JSON text of a subdivided complex, in pieces, with sorted keys:
    the one writer of its layout, which ``to_json`` parses and the CLI
    prints; the ``complex`` is ``moduli._json_pieces``'s, and the
    ``statistics`` are one ``json.dumps`` of ``stats()``.  The cones of one
    encoding share their cells' halfspace and witness tuples (see
    ``_encoded_cells``), so each tuple's text is rendered once, keyed by its
    identity, since hashing every cell's tuples by value doubles the write
    on P¹ at n = 7; the cells keep the tuples alive until it is done."""
    dumps = functools.partial(json.dumps, sort_keys=True)
    quoted = functools.cache(json.dumps)  # names and dimensions
    assignments = functools.cache(lambda assignment: dumps(dict(assignment)))
    halfspaces, witnesses = {}, {}  # text by the id of a shared tuple

    def cell(c: SubdividedCell) -> str:
        if id(c.halfspaces) not in halfspaces:
            halfspaces[id(c.halfspaces)] = dumps([str(h) for h in c.halfspaces])
        if id(c.witness) not in witnesses:
            witnesses[id(c.witness)] = dumps({k: fraction_str(v) for k, v in c.witness})
        return (
            f'{{"assignment": {assignments(c.assignment)}, "dim": {quoted(c.dim)}, "halfspaces": '
            f'{halfspaces[id(c.halfspaces)]}, "parent": {quoted(c.parent)}, "witness": {witnesses[id(c.witness)]}}}'
        )

    out = ['{"cells": {']
    for i, (key, cells) in enumerate(sorted(sub.cells.items())):
        out.append(f"{', ' if i else ''}{quoted(key)}: [{', '.join([cell(c) for c in cells])}]")
    out += ['}, "complex": ', *_complex_pieces(sub.complex), f', "fan": {dumps(sub.fan.to_json())}']
    stats = sub.stats()
    for entry in stats["per_cone"].values():
        entry["f_vector"] = {str(d): c for d, c in entry["f_vector"].items()}
    out.append(f', "statistics": {dumps(stats)}}}')
    return out


def _check_target(fan: Fan, m: int) -> None:
    """The fan checks that cost nothing: its dimension is the number m of
    contact orders, and it claims to be complete."""
    if fan.dim != m:
        raise LengthMismatch(f"fan dimension {fan.dim} does not match {m} contact orders")
    if not fan.complete:
        raise IncompleteFan("subdivision requires a complete target fan")


def subdivide_map_moduli(n: int, sigmas, fan: Fan) -> SubdividedComplex:
    """Subdivide every cone of the map moduli by the pullback of the fan.

    ``sigmas`` is one ContactOrder (target dimension 1) or a list of m of
    them (target dimension m ≤ 2); the fan dimension must match.
    """
    if isinstance(sigmas, ContactOrder):
        sigmas = [sigmas]
    _check_target(fan, len(sigmas))
    cx = _map_cones(n, list(sigmas))
    functionals = {key: cone_functionals(cx, key) for key in cx.cones}
    cells = {key: subdivide_cone(cx.cones[key], functionals[key], fan) for key in cx.cones}
    return SubdividedComplex(cx, fan, cells, functionals)
