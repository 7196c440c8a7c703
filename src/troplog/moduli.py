"""Moduli cone complexes of tropical curves and of maps to the log torus.

One cone per combinatorial type: edge-length coordinates for the curve
moduli, plus one free translation coordinate for map moduli (the
tropicalization of the log torus is the whole real line).  Face maps are
induced by edge contraction.  The product decomposition is certified
per-cone by an explicit unimodular affine change of coordinates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .affine import AffineExpr
from .errors import LengthMismatch, NonZeroSum, NoSuchLeg, UnstableRange
from .plfunction import (
    ContactOrder,
    PLFunction,
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


@dataclass(frozen=True)
class Coord:
    name: str
    sign: str  # "nonneg" | "free"


@dataclass(frozen=True)
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
            "facets": [str(f) for f in self.inequalities],
            "dim": self.dim,
        }


@dataclass(frozen=True)
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
        doc = {
            "n": self.n,
            "cones": [self.cones[k].to_json() for k in sorted(self.cones)],
            "face_maps": [fm.to_json() for fm in sorted(self.face_maps, key=lambda f: (f.cone_key, f.zeroed, f.face_key))],
        }
        if self.sigma is not None:
            doc["sigma"] = list(self.sigma.slopes)
        if self.functions:
            from .plfunction import plfunction_to_json

            doc["functions"] = {
                k: [plfunction_to_json(f) for f in fs] if isinstance(fs, tuple) else plfunction_to_json(fs)
                for k, fs in sorted(self.functions.items())
            }
        return doc


@functools.lru_cache(maxsize=1)
def _curve_parts(n: int, enumerate_types) -> tuple[tuple, tuple, tuple]:
    """The curve complex for n as frozen parts: its ``(key, Cone)`` items,
    its ``(key, CombinatorialType)`` items and its sorted face maps.

    Built once per n and shared.  The key also holds the type enumerator
    that this module sees at call time, so a wrapped or substituted
    enumerator gets its own build instead of one made without it.
    """
    types = enumerate_types(n)
    cones = []
    face_maps = []
    for ct in types:
        edges = range(len(ct.tree.edges))
        cones.append((ct.key, Cone(ct.key, tuple(Coord(f"l_e{i}", "nonneg") for i in edges))))
        for i, (face_key, face_index) in enumerate(ct.facets):
            others = (j for j in edges if j != i)
            coord_map = tuple(sorted((f"l_e{k}", f"l_e{j}") for j, k in zip(others, face_index)))
            face_maps.append(FaceMap(face_key, ct.key, coord_map, (f"l_e{i}",)))
    face_maps.sort(key=lambda f: (f.cone_key, f.zeroed, f.face_key))
    return tuple(cones), tuple((ct.key, ct) for ct in types), tuple(face_maps)


def build_moduli_complex(n: int) -> ConeComplex:
    """Cone complex of stable genus-0 tropical curves with n legs.

    The face maps come from the facets that type enumeration records.  The
    complex is built once per n; each call returns its own containers, so
    changing one complex changes no other.
    """
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
    _check_contacts(n, sigmas)
    if n <= 1:
        # No nonconstant balanced functions, and constant maps are unstable.
        return ConeComplex(n, {}, {}, [], sigma=sigmas[0] if len(sigmas) == 1 else None)
    if n == 2:
        raise UnstableRange(
            "n = 2 maps are nonseparated as stable maps; use classify_self_map"
        )
    return _map_cones_over(build_moduli_complex(n), sigmas)


def _map_cones_over(curve: ConeComplex, sigmas: list[ContactOrder]) -> ConeComplex:
    """Map cones over an already built curve complex: each cone gains one
    free translation coordinate and one symbolic function per target
    coordinate (a single PLFunction for m = 1, else a tuple of m)."""
    m = len(sigmas)
    c_names = [TRANSLATION_COORD] if m == 1 else [f"c{j+1}" for j in range(m)]
    cones = {}
    functions: dict[str, PLFunction | tuple[PLFunction, ...]] = {}
    for key, ct in curve.types.items():
        coords = curve.cones[key].coords + tuple(Coord(cn, "free") for cn in c_names)
        cones[key] = Cone(key, coords)
        fs = tuple(
            extend_from_leg_slopes(ct.tree, s, ct.tree.root, AffineExpr.symbol(cn))
            for s, cn in zip(sigmas, c_names)
        )
        functions[key] = fs[0] if m == 1 else fs
    sigma = sigmas[0] if m == 1 else None
    return ConeComplex(curve.n, cones, curve.types, curve.face_maps, sigma, functions)


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
    contacts: tuple[ContactOrder, ...]

    def __post_init__(self):
        report = validate_tree(self.tree)
        if not report.ok:
            raise LengthMismatch(f"invalid tree: {'; '.join(report.problems)}")
        if not self.tree.is_concrete:
            raise LengthMismatch("map points require concrete edge lengths")
        if len(self.functions) != len(self.contacts):
            raise LengthMismatch("one contact order per target coordinate")
        for f, sigma in zip(self.functions, self.contacts):
            if f.tree != self.tree:
                raise LengthMismatch("function lives on a different tree")
            if f.leg_slopes != sigma.slopes:
                raise LengthMismatch("leg slopes do not match contact data")
            if not is_balanced(f):
                raise NonZeroSum("function is not balanced")

    @staticmethod
    def of(tree: Tree, functions) -> "TropicalMapPoint":
        fs = tuple(functions)
        return TropicalMapPoint(tree, fs, tuple(f.contact_order for f in fs))


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
    return vertex_values(f)[ct.tree.leg(label).at]


@dataclass
class IsomorphismReport:
    """Constructive certificate that map moduli = curve moduli x free line."""

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
        return {
            "certified": self.certified,
            "n": self.n,
            "sigma": list(self.sigma.slopes),
            "leg": self.leg,
            "cones_checked": self.cones_checked,
            "cone_maps": dict(sorted(self.cone_maps.items())),
            "face_checks": self.face_checks,
            "failures": list(self.failures),
            "distinct_splittings": {str(j): w for j, w in sorted(self.distinct_splittings.items())},
        }


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
    if n < 3:
        raise UnstableRange(f"product decomposition needs n >= 3, got {n}")
    _check_contacts(n, [sigma])
    if leg not in range(1, n + 1):
        raise NoSuchLeg(f"no leg labeled {leg}")


def _path_coefficients(f: PLFunction) -> dict[VertexId, dict[str, int]]:
    """Each vertex's value minus the base value, from one walk of ``f``'s
    symbolic tree: ``{l_e{i}: slope}`` along the path from the basepoint,
    zero slopes left out."""
    t = f.tree
    adj = t.adjacency()
    paths: dict[VertexId, dict[str, int]] = {f.basepoint: {}}
    stack = [f.basepoint]
    while stack:
        v = stack.pop()
        for w, i in adj[v]:
            if w not in paths:
                slope = f.slope(v, w, i)
                paths[w] = {**paths[v], t.length_symbol(i): slope} if slope else paths[v]
                stack.append(w)
    return paths


def _certified_map_moduli(
    n: int, sigma: ContactOrder, leg: int
) -> tuple[ConeComplex, IsomorphismReport]:
    """``build_map_moduli(n, sigma)`` and ``product_decomposition(n, sigma,
    leg)`` from one build of the curve complex; the arguments are checked
    before it.

    A cone's splitting at a leg is its base value, the translation
    coordinate of every map cone, plus the integer path coefficients of
    the leg's vertex.  The face checks and the search for distinct
    splittings compare these integer maps; one ``AffineExpr`` per cone
    serves the printed cone map and the unimodularity checks.
    """
    _check_product_args(n, sigma, leg)
    curve = build_moduli_complex(n)
    mapc = _map_cones_over(curve, [sigma])

    failures: list[str] = []
    cone_maps: dict[str, str] = {}
    at_leg: dict[str, dict[int, dict[str, int]]] = {}  # cone -> leg -> path coefficients
    for key, f in mapc.functions.items():
        paths = _path_coefficients(f)
        at_leg[key] = {l.label: paths[l.at] for l in f.tree.legs}
        s = f.base_value + AffineExpr.make(0, at_leg[key][leg])
        cone_maps[key] = str(s)
        if s.coeff(TRANSLATION_COORD) != 1:
            failures.append(f"cone {key}: translation coefficient is not 1")
        for name, coeff in s.terms:
            if name != TRANSLATION_COORD and coeff.denominator != 1:
                failures.append(f"cone {key}: non-integer coefficient on {name}")
        curve_coords = {c.name for c in curve.cones[key].coords}
        map_coords = {c.name for c in mapc.cones[key].coords}
        if map_coords != curve_coords | {TRANSLATION_COORD}:
            failures.append(f"cone {key}: coordinates do not match curve cone plus free line")

    # Face-map compatibility: restricting the splitting to a facet agrees
    # with the splitting computed on the contracted type.  The restriction
    # drops the zeroed terms and renames the rest to face coordinates.
    face_checks = 0
    for fm in mapc.face_maps:
        face_checks += 1
        rename = {cone_coord: face_coord for face_coord, cone_coord in fm.coord_map}
        coeffs: dict[str, int] = {}
        for name, coeff in at_leg[fm.cone_key][leg].items():
            if name not in fm.zeroed:
                name = rename.get(name, name)
                coeffs[name] = coeffs.get(name, 0) + coeff
        if {name: coeff for name, coeff in coeffs.items() if coeff} != at_leg[fm.face_key][leg]:
            failures.append(
                f"face map {fm.cone_key} -> {fm.face_key}: splitting not compatible"
            )

    # A witness sets every length to 1 and the translation to 0, so a
    # splitting's value there is the sum of its path coefficients.
    distinct: dict[int, dict | None] = {}
    for other in range(1, n + 1):
        if other == leg:
            continue
        witness = None
        for key in sorted(mapc.cones):
            mine, theirs = at_leg[key][leg], at_leg[key][other]
            if mine == theirs:
                continue
            vi, vj = sum(mine.values()), sum(theirs.values())
            if vi != vj:
                witness = {
                    "cone": key,
                    "lengths": {f"l_e{i}": "1" for i in range(len(mapc.types[key].tree.edges))},
                    "c": "0",
                    f"splitting_{leg}": str(vi),
                    f"splitting_{other}": str(vj),
                }
                break
        distinct[other] = witness  # None e.g. for n=3: all legs share one vertex

    certified = not failures
    return mapc, IsomorphismReport(
        certified=certified,
        n=n,
        sigma=sigma,
        leg=leg,
        cones_checked=len(mapc.cones),
        cone_maps=cone_maps,
        face_checks=face_checks,
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
    return TropicalMapPoint(tree, tuple(fs), point.contacts)


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
