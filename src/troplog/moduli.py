"""Moduli cone complexes of tropical curves and of maps to the log torus.

One cone per combinatorial type: edge-length coordinates for the curve
moduli, plus one free translation coordinate for map moduli (the
tropicalization of the log torus is the whole real line).  Face maps are
induced by edge contraction.  The product decomposition is certified
per-cone by an explicit unimodular affine change of coordinates.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .affine import AffineExpr, as_integer
from .errors import LengthMismatch, NonZeroSum, NoSuchLeg, UnstableRange
from .plfunction import (
    ContactOrder,
    PLFunction,
    _edge_slope_json,
    _leg_slopes_json,
    extend_from_leg_slopes,
    is_balanced,
    vertex_values,
)
from .tree import (
    CombinatorialType,
    Edge,
    Leg,
    Tree,
    VertexId,
    _edge_json,
    _leg_json,
    canonicalize,  # noqa: F401  (perfbench/test_perfbench.py traces it through this module)
    enumerate_tree_types,
    validate_tree,
)

TRANSLATION_COORD = "c"


def __getattr__(name: str):
    # The self-map names live in ``selfmap``; they stay importable from
    # here, and reading one is what loads that module.
    if name in ("SelfMapNormalForm", "classify_self_map"):
        from . import selfmap

        return getattr(selfmap, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True, slots=True)
class Coord:
    name: str
    sign: str  # "nonneg" | "free"


@dataclass(frozen=True, slots=True)
class Cone:
    """A rational cone chart with named coordinates.

    Nonnegative coordinates contribute their coordinate functionals as
    inequalities; free coordinates span lineality directions.
    """

    name: str
    coords: tuple[Coord, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def inequalities(self) -> tuple[AffineExpr, ...]:
        return tuple(AffineExpr.symbol(c.name) for c in self.coords if c.sign == "nonneg")

    def to_json(self) -> dict:
        return {
            "type_key": self.name,
            "coords": [{"name": c.name, "sign": c.sign} for c in self.coords],
            "facets": [c.name for c in self.coords if c.sign == "nonneg"],
            "dim": self.dim,
        }


@dataclass(frozen=True, slots=True)
class FaceMap:
    """Inclusion of the contracted type's cone as a facet of a larger cone."""

    face_key: str
    cone_key: str
    coord_map: tuple[tuple[str, str], ...]  # face coordinate -> cone coordinate
    zeroed: tuple[str, ...]  # cone coordinates set to 0 on the face

    def to_json(self) -> dict:
        return {
            "face": self.face_key,
            "cone": self.cone_key,
            "coord_map": {a: b for a, b in self.coord_map},
            "zeroed": list(self.zeroed),
        }


@dataclass
class ConeComplex:
    n: int
    cones: dict[str, Cone]
    types: dict[str, CombinatorialType]
    face_maps: list[FaceMap]
    sigma: ContactOrder | None = None
    # One PLFunction per cone, or a tuple of them for a target of dimension > 1.
    functions: dict[str, PLFunction | tuple[PLFunction, ...]] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not self.cones

    def maximal_keys(self) -> list[str]:
        faces = {fm.face_key for fm in self.face_maps}
        return sorted(k for k in self.cones if k not in faces)

    def to_json(self) -> dict:
        return json.loads("".join(_json_pieces(self)))


@functools.lru_cache(maxsize=None)
def _lengths(n: int) -> tuple[tuple[str, ...], tuple[Coord, ...]]:
    """The edge-length coordinate names ``l_e0, l_e1, ...`` that an n-leg
    type can have, and their nonnegative ``Coord``s."""
    names = tuple(f"l_e{i}" for i in range(n - 3))
    return names, tuple(Coord(name, "nonneg") for name in names)


@functools.lru_cache(maxsize=1)
def _curve_parts(n: int, enumerate_types) -> tuple[tuple, tuple, tuple]:
    """The curve complex for n as frozen parts: its ``(key, Cone)`` items,
    its ``(key, CombinatorialType)`` items and its sorted face maps.

    Built once per n and shared.  The key also holds the type enumerator
    that this module sees at call time, so a wrapped or substituted
    enumerator gets its own build instead of one made without it.
    """
    types = enumerate_types(n)
    names, coords = _lengths(n)
    cone_coords = [coords[:k] for k in range(len(coords) + 1)]
    # Types come sorted by key, so listing each cone's face maps by their
    # zeroed coordinate, the name of the contracted edge, sorts them all by
    # (cone, zeroed).  That order of k edges is the same for every type.
    edge_orders = [sorted(range(k), key=names.__getitem__) for k in range(len(names) + 1)]
    zeroed = [(name,) for name in names]
    # A face map's coordinate map depends only on the contracted edge and
    # the facet's edge index map, so each pattern's is built once and shared.
    coord_maps: dict[tuple[int, tuple[int, ...]], tuple[tuple[str, str], ...]] = {}
    cones = []
    face_maps = []
    for ct in types:
        edges = range(len(ct.tree.edges))
        cones.append((ct.key, Cone(ct.key, cone_coords[len(edges)])))
        for i in edge_orders[len(edges)]:
            face_key, face_index = ct.facets[i]
            coord_map = coord_maps.get((i, face_index))
            if coord_map is None:
                others = (j for j in edges if j != i)
                coord_map = tuple(sorted((names[k], names[j]) for j, k in zip(others, face_index)))
                coord_maps[i, face_index] = coord_map
            face_maps.append(FaceMap(face_key, ct.key, coord_map, zeroed[i]))
    return tuple(cones), tuple((ct.key, ct) for ct in types), tuple(face_maps)


def build_moduli_complex(n: int) -> ConeComplex:
    """Cone complex of stable genus-0 tropical curves with n legs.

    The face maps come from the facets that type enumeration records.  The
    complex is built once per n; each call returns its own containers, so
    changing one complex changes no other.  ``n`` must be an int: the
    build cache would take a float or a bool equal to n for n.
    """
    n = as_integer(n, "n")
    if n < 3:
        raise UnstableRange(f"curve moduli need n >= 3, got {n}")
    cones, types, face_maps = _curve_parts(n, enumerate_tree_types)
    return ConeComplex(n, dict(cones), dict(types), list(face_maps))


def _check_contacts(n: int, sigmas: list[ContactOrder]) -> None:
    for s in sigmas:
        if s.n != n:
            raise LengthMismatch(f"contact order has {s.n} entries for n={n}")
        if not s.is_balanced:
            raise NonZeroSum(f"leg slopes sum to {s.total}, not 0")


def _map_cones(n: int, sigmas: list[ContactOrder]) -> ConeComplex:
    """Map cones over the curve complex: each cone gains one free
    translation coordinate and one symbolic function per target coordinate
    (a single PLFunction for m = 1, else a tuple of m)."""
    n = as_integer(n, "n")
    _check_contacts(n, sigmas)
    sigma = sigmas[0] if len(sigmas) == 1 else None
    if n <= 1:
        # No nonconstant balanced functions, and constant maps are unstable.
        return ConeComplex(n, {}, {}, [], sigma=sigma)
    if n == 2:
        raise UnstableRange(
            "n = 2 maps are nonseparated as stable maps; use classify_self_map"
        )
    curve = build_moduli_complex(n)
    cones, functions = _map_parts(n, tuple(sigmas), enumerate_tree_types)
    return ConeComplex(n, dict(cones), curve.types, curve.face_maps, sigma, dict(functions))


def _leg_sums(slopes: tuple[int, ...]) -> list[int]:
    """The sum of ``slopes`` over every set of legs, indexed by its bitmask."""
    sums = [0]
    for s in slopes:
        sums += [x + s for x in sums]
    return sums


@functools.lru_cache(maxsize=1)
def _map_parts(n: int, sigmas: tuple[ContactOrder, ...], enumerate_types) -> tuple[tuple, tuple]:
    """The map cones over the curve types of ``_curve_parts(n,
    enumerate_types)`` as frozen parts: their ``(key, Cone)`` items and
    ``(key, function)`` items.

    Built once per n, tuple of contact orders and enumerator, and shared.
    By the cut rule the slope of edge j, read parent -> child, is the sum
    of sigma over the legs of the type's ``splits[j]``, so no tree is
    walked.
    """
    m = len(sigmas)
    c_names = [TRANSLATION_COORD] if m == 1 else [f"c{j+1}" for j in range(m)]
    free = tuple(Coord(cn, "free") for cn in c_names)
    bases = [AffineExpr.symbol(cn) for cn in c_names]
    sums = [_leg_sums(s.slopes) for s in sigmas]
    coords = _lengths(n)[1]
    cone_coords = [coords[:k] + free for k in range(len(coords) + 1)]
    cones, functions = [], []
    for _, ct in _curve_parts(n, enumerate_types)[1]:
        t = ct.tree
        fs = tuple(
            PLFunction(t, t.root, base, tuple(leg_sums[s] for s in ct.splits), s.slopes)
            for s, base, leg_sums in zip(sigmas, bases, sums)
        )
        cones.append((ct.key, Cone(ct.key, cone_coords[len(ct.splits)])))
        functions.append((ct.key, fs[0] if m == 1 else fs))
    return tuple(cones), tuple(functions)


def build_map_moduli(n: int, sigma: ContactOrder) -> ConeComplex:
    """Moduli of stable genus-0 tropical maps to the 1-dimensional log torus.

    Each cone carries the symbolic balanced function with the given leg
    slopes, base value the free translation coordinate.
    """
    return _map_cones(n, [sigma])


# ---------------------------------------------------------------------------
# Map points, splittings, product decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TropicalMapPoint:
    """A concrete tree together with one balanced function per target coordinate."""

    tree: Tree
    functions: tuple[PLFunction, ...]

    def __post_init__(self):
        report = validate_tree(self.tree)
        if not report.ok:
            raise LengthMismatch(f"invalid tree: {'; '.join(report.problems)}")
        if not self.tree.is_concrete:
            raise LengthMismatch("map points require concrete edge lengths")
        for f in self.functions:
            if f.tree != self.tree:
                raise LengthMismatch("function lives on a different tree")
            if not is_balanced(f):
                raise NonZeroSum("function is not balanced")

    @property
    def contacts(self) -> tuple[ContactOrder, ...]:
        return tuple(f.contact_order for f in self.functions)

    @staticmethod
    def of(tree: Tree, functions) -> "TropicalMapPoint":
        return TropicalMapPoint(tree, tuple(functions))


def splitting_at_leg(p: TropicalMapPoint, label: int) -> Fraction:
    """Value of the (1-dimensional target) function at the leg's attachment vertex."""
    if len(p.functions) != 1:
        raise LengthMismatch("splitting_at_leg requires a 1-dimensional target")
    if label not in p.tree.leg_labels:
        raise NoSuchLeg(f"no leg labeled {label}")
    value = vertex_values(p.functions[0])[p.tree.leg(label).at]
    if not value.is_constant:
        raise LengthMismatch("map point has symbolic values")
    return value.const


def splitting_expr(complex_: ConeComplex, key: str, label: int) -> AffineExpr:
    """Symbolic splitting on one cone: the function's value at leg ``label``."""
    f = complex_.functions[key]
    if isinstance(f, tuple):
        raise LengthMismatch("splitting_expr requires a 1-dimensional target")
    ct = complex_.types[key]
    if label not in ct.tree.leg_labels:
        raise NoSuchLeg(f"no leg labeled {label}")
    path = _path_coefficients(_lengths(complex_.n)[0], ct.splits, f.edge_slopes, 1 << (label - 1))
    return f.base_value + AffineExpr.make(0, path)


@dataclass
class IsomorphismReport:
    """Constructive certificate that map moduli = curve moduli x free line.

    The fields are the payload's keys (see ``_report_json``)."""

    certified: bool
    n: int
    sigma: ContactOrder
    leg: int
    cones_checked: int
    cone_maps: dict[str, str]
    face_checks: int
    failures: list[str]
    distinct_splittings: dict[int, dict | None]

    def to_json(self) -> dict:
        return json.loads(_report_json(self))


def _report_json(report: IsomorphismReport) -> str:
    """The JSON text of a certificate report, which ``to_json`` parses and
    the CLI prints: one ``json.dumps`` of its fields with sorted keys,
    ``sigma`` as its list of slopes and ``distinct_splittings`` keyed by
    ``str(j)``."""
    distinct = {str(j): w for j, w in report.distinct_splittings.items()}
    doc = {**vars(report), "sigma": list(report.sigma.slopes), "distinct_splittings": distinct}
    return json.dumps(doc, sort_keys=True)


def _json_pieces(x: ConeComplex) -> list[str]:
    """The JSON text of a complex, in pieces, with sorted keys: the one
    writer of its layout, which ``to_json`` parses and the CLI prints.

    There is one piece per cone, face map and function, and no payload
    dict.  Each part that entries share is encoded once: a cone's
    ``coords``, ``dim`` and ``facets`` per coordinate tuple, a face map's
    ``coord_map`` per tuple, a function's vertex list and leg slopes per
    value, and its edges, legs, edge-slope records and base value per
    shared object.  Each entry writes only its own keys, in sorted order,
    around these fragments.
    """
    dumps = functools.partial(json.dumps, sort_keys=True)
    quoted = functools.cache(json.dumps)

    def cone_head(coords: tuple[Coord, ...]) -> str:
        doc = Cone("", coords).to_json()
        del doc["type_key"]  # the last key in sorted order
        return dumps(doc)[:-1] + ', "type_key": '

    heads = functools.cache(cone_head)
    coord_maps = functools.cache(lambda coord_map: dumps(dict(coord_map)))
    name_list = functools.cache(lambda names: dumps(list(names)))  # a face map's zeroed, a tree's vertices
    leg_slopes = functools.cache(lambda labels, slopes: dumps(_leg_slopes_json(labels, slopes)))
    # A base value, edge, leg or edge-slope record is memoized by the
    # identity of the shared object, so none is hashed: ``x`` holds each
    # one, so no id is reused while these memos live.
    values: dict[int, str] = {}
    edges: dict[int, str] = {}
    legs: dict[int, str] = {}
    edge_slopes: dict[tuple[int, int], str] = {}

    def function(f: PLFunction) -> str:
        t, base = f.tree, f.base_value
        value = values.get(id(base)) or values.setdefault(id(base), dumps(base.to_json()))
        slope_texts = [
            edge_slopes.get((id(e), s)) or edge_slopes.setdefault((id(e), s), dumps(_edge_slope_json(e, s)))
            for e, s in zip(t.edges, f.edge_slopes)
        ]
        edge_texts = [edges.get(id(e)) or edges.setdefault(id(e), dumps(_edge_json(e))) for e in t.edges]
        leg_texts = [legs.get(id(leg)) or legs.setdefault(id(leg), dumps(_leg_json(leg))) for leg in t.legs]
        return (
            f'{{"base_value": {value}, "basepoint": {quoted(f.basepoint)}, '
            f'"edge_slopes": [{", ".join(slope_texts)}], '
            f'"edges": [{", ".join(edge_texts)}], '
            f'"leg_slopes": {leg_slopes(t.leg_labels, f.leg_slopes)}, '
            f'"legs": [{", ".join(leg_texts)}], "vertices": {name_list(t.vertices)}}}'
        )

    out = ['{"cones": [']
    sep = ""
    for key in sorted(x.cones):
        out.append(f"{sep}{heads(x.cones[key].coords)}{quoted(key)}}}")
        sep = ", "
    out.append('], "face_maps": [')
    sep = ""
    for fm in sorted(x.face_maps, key=operator.attrgetter("cone_key", "zeroed", "face_key")):
        out.append(
            f'{sep}{{"cone": {quoted(fm.cone_key)}, "coord_map": {coord_maps(fm.coord_map)}, '
            f'"face": {quoted(fm.face_key)}, "zeroed": {name_list(fm.zeroed)}}}'
        )
        sep = ", "
    out.append("], ")
    if x.functions:
        out.append('"functions": {')
        sep = ""
        for key, fs in sorted(x.functions.items()):
            text = f"[{', '.join([function(f) for f in fs])}]" if isinstance(fs, tuple) else function(fs)
            out.append(f"{sep}{quoted(key)}: {text}")
            sep = ", "
        out.append("}, ")
    out.append(f'"n": {dumps(x.n)}')
    if x.sigma is not None:
        out.append(f', "sigma": {dumps(list(x.sigma.slopes))}')
    out.append("}")
    return out


def product_decomposition(n: int, sigma: ContactOrder, leg: int) -> IsomorphismReport:
    """Certify the isomorphism between map moduli and curve moduli x line.

    Per cone: the coordinate change (lengths..., c) -> (lengths..., value at
    leg ``leg``) is affine with unit coefficient on c and integer length
    coefficients, hence unimodular; it commutes with every face map.  A
    witness point separating the splittings at ``leg`` and every other leg
    is exhibited when one exists (for the single-vertex type none can).
    """
    return _certified_map_moduli(n, sigma, leg)[1]


def _check_product_args(n: int, sigma: ContactOrder, leg: int) -> None:
    if as_integer(n, "n") < 3:
        raise UnstableRange(f"product decomposition needs n >= 3, got {n}")
    _check_contacts(n, [sigma])
    if as_integer(leg, "leg") not in range(1, n + 1):
        raise NoSuchLeg(f"no leg labeled {leg}")


def _path_coefficients(
    names: tuple[str, ...], splits: tuple[int, ...], slopes: tuple[int, ...], legs: int
) -> dict[str, int]:
    """A vertex's value minus the base value on a map cone: ``{l_e{j}:
    slope}`` over the edges j whose split (``CombinatorialType.splits``)
    holds every leg of the bitmask ``legs``, in edge order, zero slopes left
    out.  These edges are the vertex's path from the root when ``legs`` is
    leg l's bit at its vertex, or ``splits[j]`` at the child of edge j."""
    return {names[j]: s for j, (split, s) in enumerate(zip(splits, slopes)) if s and split & legs == legs}


def cone_functionals(cx: ConeComplex, key: str) -> dict[tuple[VertexId, int], AffineExpr]:
    """Per-vertex value functionals of the symbolic function(s) on one cone:
    the base value plus the vertex's ``_path_coefficients``, whose mask is
    all legs at the root and ``splits[j]`` at the child of edge j."""
    fs, ct, names = cx.functions[key], cx.types[key], _lengths(cx.n)[0]
    masks = [(ct.tree.root, (1 << cx.n) - 1)] + [(e.ends[1], s) for e, s in zip(ct.tree.edges, ct.splits)]
    out: dict[tuple[VertexId, int], AffineExpr] = {}
    for j, f in enumerate(fs if isinstance(fs, tuple) else (fs,)):
        base = dict(f.base_value.terms)  # names no length, so one ``make`` adds a path to it
        for v, legs in masks:
            path = _path_coefficients(names, ct.splits, f.edge_slopes, legs)
            out[(v, j)] = AffineExpr.make(f.base_value.const, {**base, **path})
    return out


def _certified_map_moduli(
    n: int, sigma: ContactOrder, leg: int
) -> tuple[ConeComplex, IsomorphismReport]:
    """``build_map_moduli(n, sigma)`` and ``product_decomposition(n, sigma,
    leg)`` from one build of the curve complex and of the map cones; the
    arguments are checked before it.

    A cone's splitting at a leg is its base value, the translation
    coordinate of every map cone, plus the integer path coefficients of
    the leg's vertex, read from the splits of the cone's type.  The face
    checks and the search for distinct splittings compare these integer
    maps; one ``AffineExpr`` per cone serves the printed cone map and the
    unimodularity checks.
    """
    _check_product_args(n, sigma, leg)
    mapc = _map_cones(n, [sigma])
    names = _lengths(n)[0]

    def path(key: str, label: int) -> dict[str, int]:
        return _path_coefficients(names, mapc.types[key].splits, mapc.functions[key].edge_slopes, 1 << (label - 1))

    failures: list[str] = []
    cone_maps: dict[str, str] = {}
    at_leg: dict[str, dict[str, int]] = {}  # cone -> path coefficients of ``leg``
    # Many cones share a cone map, and every cone with k edges shares one
    # coordinate tuple, so each distinct one is rendered and checked once.
    # The memos key the shared objects by identity: ``mapc`` holds them all.
    rendered: dict[tuple, tuple[str, bool, list[str]]] = {}
    coords_match: dict[tuple[int, int], bool] = {}
    for key, f in mapc.functions.items():
        at_leg[key] = coeffs = path(key, leg)
        memo = (id(f.base_value), tuple(coeffs.items()))
        if memo not in rendered:
            # The base value names no length, so one ``make`` adds the path to it.
            s = AffineExpr.make(f.base_value.const, {**dict(f.base_value.terms), **coeffs})
            fractional = [name for name, coeff in s.terms if name != TRANSLATION_COORD and coeff.denominator != 1]
            rendered[memo] = (str(s), s.coeff(TRANSLATION_COORD) == 1, fractional)
        cone_maps[key], unit, fractional = rendered[memo]
        if not unit:
            failures.append(f"cone {key}: translation coefficient is not 1")
        for name in fractional:
            failures.append(f"cone {key}: non-integer coefficient on {name}")
        # The curve cone of a type has one length coordinate per edge.
        k, coords = len(mapc.types[key].tree.edges), mapc.cones[key].coords
        if (k, id(coords)) not in coords_match:
            coords_match[k, id(coords)] = {c.name for c in coords} == set(names[:k]) | {TRANSLATION_COORD}
        if not coords_match[k, id(coords)]:
            failures.append(f"cone {key}: coordinates do not match curve cone plus free line")

    # Face-map compatibility: restricting the splitting to a facet agrees
    # with the splitting computed on the contracted type.  The restriction
    # drops the zeroed terms and renames the rest to face coordinates.
    # Face maps share their coordinate maps, and so their rename dicts.
    renames: dict[tuple[tuple[str, str], ...], dict[str, str]] = {}
    for fm in mapc.face_maps:
        rename = renames.get(fm.coord_map)
        if rename is None:
            rename = renames[fm.coord_map] = {cone_coord: face_coord for face_coord, cone_coord in fm.coord_map}
        coeffs: dict[str, int] = {}
        for name, coeff in at_leg[fm.cone_key].items():
            if name not in fm.zeroed:
                name = rename.get(name, name)
                coeffs[name] = coeffs.get(name, 0) + coeff
        if {name: coeff for name, coeff in coeffs.items() if coeff} != at_leg[fm.face_key]:
            failures.append(
                f"face map {fm.cone_key} -> {fm.face_key}: splitting not compatible"
            )

    # A witness sets every length to 1 and the translation to 0, so a
    # splitting's value there is the sum of its path coefficients.
    distinct: dict[int, dict | None] = {}
    keys = sorted(mapc.cones)
    for other in range(1, n + 1):
        if other == leg:
            continue
        witness = None
        for key in keys:
            mine, theirs = at_leg[key], path(key, other)
            if mine == theirs:
                continue
            vi, vj = sum(mine.values()), sum(theirs.values())
            if vi != vj:
                witness = {
                    "cone": key,
                    "lengths": {name: "1" for name in names[: len(mapc.types[key].tree.edges)]},
                    TRANSLATION_COORD: "0",
                    f"splitting_{leg}": str(vi),
                    f"splitting_{other}": str(vj),
                }
                break
        distinct[other] = witness  # None e.g. for n=3: all legs share one vertex

    return mapc, IsomorphismReport(
        certified=not failures,
        n=n,
        sigma=sigma,
        leg=leg,
        cones_checked=len(mapc.cones),
        cone_maps=cone_maps,
        face_checks=len(mapc.face_maps),
        failures=failures,
        distinct_splittings=distinct,
    )


# ---------------------------------------------------------------------------
# Stabilization
# ---------------------------------------------------------------------------


def _rebuild(point: TropicalMapPoint, tree: Tree, values: list[dict[VertexId, AffineExpr]]) -> TropicalMapPoint:
    bp = tree.root
    fs = [
        extend_from_leg_slopes(tree, sigma, bp, vals[bp])
        for sigma, vals in zip(point.contacts, values)
    ]
    return TropicalMapPoint(tree, tuple(fs))


def stabilize(p: TropicalMapPoint) -> TropicalMapPoint:
    """Contract away vertices where the map is constant and valence < 3.

    A removed 2-valent vertex merges its two edges, adding lengths; a
    1-valent constant vertex drops its sprout edge.  2-valent vertices with
    nonzero through-slope are kept: the map is nonconstant there.
    """
    current = p
    while True:
        t = current.tree
        values = [vertex_values(f) for f in current.functions]
        adj = t.adjacency()
        target = None
        for v in t.vertices:
            incident = adj[v]
            legs_here = t.legs_at(v)
            if len(incident) + len(legs_here) >= 3:
                continue
            slopes_zero = all(
                f.slope(v, w, i) == 0 for f in current.functions for w, i in incident
            ) and all(
                f.leg_slope(l.label) == 0 for f in current.functions for l in legs_here
            )
            if not slopes_zero:
                continue
            if len(incident) == 2 and not legs_here:
                target = ("merge", v, incident)
                break
            if len(incident) == 1:
                target = ("contract", v, incident)
                break
        if target is None:
            return current

        kind, v, incident = target
        if kind == "merge":
            (w1, i1), (w2, i2) = incident
            total = t.edges[i1].length + t.edges[i2].length
            edges = tuple(
                e for i, e in enumerate(t.edges) if i not in (i1, i2)
            ) + (Edge((w1, w2), total),)
            vertices = tuple(x for x in t.vertices if x != v)
            legs = t.legs  # none at v by construction
            new_tree = Tree(vertices, edges, legs)
        else:
            (w, i) = incident[0]
            # Merge v into its neighbor; legs at v re-attach to w.
            vertices = tuple(x for x in t.vertices if x != v)
            edges = tuple(e for j, e in enumerate(t.edges) if j != i)
            legs = tuple(Leg(l.label, w if l.at == v else l.at) for l in t.legs)
            new_tree = Tree(vertices, edges, legs)
        current = _rebuild(current, new_tree, values)
