"""Independent oracles and random generators used by the test suite.

Everything here deliberately avoids the library's own algorithms: slopes
come from solving the vertex balancing equations by Gaussian elimination,
trivalent counts from compatible-split enumeration, and feasibility from
grid search.  Nineteen former library functions are the exception, kept
so that their replacements can be required to give the same results:
``recursive_canonicalize``, the canonical form computed by recursion,
``home_scan_split_tree``, the tree of a split set that finds each
vertex's parent by scanning the splits before it,
``contraction_tree_types``, the type enumeration by leg insertion and
edge contraction, ``fraction_check_feasible``, the rational
Fourier-Motzkin kernel, ``fraction_back_substitute``, the integer-row
kernel's back-substitution in ``Fraction`` arithmetic, ``wall_face_census``, the f-vector census over
the walls of the cells, which is right for a 1-D target fan only,
``pairwise_face_problems``,
the fan check that compares each pairwise intersection with the smallest
face of each cone containing it, and ``witness_face_census`` and
``witness_prune_redundant``, the census and the pruning that made one
``check_feasible`` call (a witness, from a fresh encoding of the
``AffineExpr`` constraints) per test, and ``affine_product_decomposition``,
the product certificate that computed every splitting with
``vertex_values`` and checked the face maps with ``AffineExpr`` arithmetic,
and ``assignment_subdivide_cone``, the cell search over all
|maximal cones|^|V| assignments of vertices to fan cones, and
``plain_search``, the pullback search that runs the kernel at every node
instead of carrying points, ``walk_path_coefficients``, the splitting's
integer path coefficients summed over a walk of the tree,
``index_multidegree``, the multidegree that looked up each leg's slope
with ``list.index``, and ``backward_split_masks``, the splits of a
canonical tree's edges from one backward pass over them, and
``pairwise_shot_facets``, the ray-shooting facet test that computed the
rate of each ordered pair of rows.  ``cone_complex_json``,
``isomorphism_report_json`` and ``subdivided_complex_json`` are the
payload dicts that the ``to_json`` methods built before the JSON text
writers became the only encoders of these payloads.  The oracles
pull fans back through their own ``AffineExpr`` arithmetic, not the
library's integer rows.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd
from operator import mul

from troplog import (
    AffineExpr,
    CombinatorialType,
    ConeComplex,
    ContactOrder,
    IsomorphismReport,
    SubdividedComplex,
    Tree,
    TropicalMapPoint,
    build_map_moduli,
    build_moduli_complex,
    contract_edge,
    extend_from_leg_slopes,
    plfunction_to_json,
    splitting_at_leg,
    vertex_values,
)
from troplog.errors import IncompleteFan, LengthMismatch
from troplog.feasibility import (
    Constraint,
    Feasibility,
    check_feasible,
    prune_redundant,
    rows_scaled_point,
)
from troplog.moduli import TRANSLATION_COORD, Cone
from troplog.subdivision import Fan, SubdividedCell, System
from troplog.plfunction import Multidegree, PLFunction
from troplog.tree import CanonicalForm, Edge, Leg, VertexId

_XSYMS = (AffineExpr.symbol("x0"), AffineExpr.symbol("x1"))


def _images(
    functionals: dict[tuple[VertexId, int], AffineExpr], dim: int
) -> dict[VertexId, tuple[AffineExpr, ...]]:
    """Each vertex's image vector of values, in sorted vertex order."""
    if any(j not in range(dim) for _, j in functionals):
        raise LengthMismatch(f"a functional has a coordinate outside the fan dimension {dim}")
    vertices = sorted({v for v, _ in functionals}, key=str)
    if any((v, j) not in functionals for v in vertices for j in range(dim)):
        raise LengthMismatch("a vertex is missing a functional")
    return {v: tuple(functionals[(v, j)] for j in range(dim)) for v in vertices}


def _pullback(system: System, image: tuple[AffineExpr, ...]) -> list[Constraint]:
    """Pull target constraints (normal, rel) back along an image vector of
    affine expressions: the constraint of ``normal`` is
    ``sum_j normal[j] * image[j]`` with the same relation."""
    out = []
    for normal, rel in system:
        expr = AffineExpr()
        for a, f in zip(normal, image):
            expr = expr + f * a
        out.append((expr, rel))
    return out


def solve_balancing_system(t: Tree, sigma: ContactOrder) -> list[Fraction] | None:
    """Unique slope assignment making the function balanced, by exact
    linear algebra on the per-vertex balancing equations.

    Unknown i is the slope along ``t.edges[i].ends`` read first-to-second.
    Returns None when the (overdetermined) system is inconsistent.
    """
    vs = list(t.vertices)
    ne = len(t.edges)
    labels = t.leg_labels
    rows = []
    for v in vs:
        row = [Fraction(0)] * (ne + 1)
        for i, e in enumerate(t.edges):
            if e.ends[0] == v:
                row[i] += 1
            if e.ends[1] == v:
                row[i] -= 1
        rhs = Fraction(0)
        for l in t.legs:
            if l.at == v:
                rhs -= sigma.slopes[labels.index(l.label)]
        row[ne] = rhs
        rows.append(row)

    # Gaussian elimination with exact rationals.
    rank = 0
    for col in range(ne):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / pr[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], pr)]
        rank += 1
    for r in range(rank, len(rows)):
        if rows[r][ne] != 0:
            return None
    if rank < ne:
        return None  # not unique; cannot happen on a connected tree
    sol = [Fraction(0)] * ne
    rank = 0
    for col in range(ne):
        row = next((r for r in rows if r[col] != 0 and all(r[c] == 0 for c in range(col))), None)
        if row is not None:
            sol[col] = row[ne] / row[col]
    return sol


def count_trivalent_by_splits(n: int) -> int:
    """Number of trivalent n-leg trees = number of (n-3)-element pairwise
    compatible families of proper splits, enumerated exhaustively."""
    ground = list(range(2, n + 1))
    splits = []
    for size in range(2, n - 1):
        for combo in itertools.combinations(ground, size):
            mask = 0
            for x in combo:
                mask |= 1 << x
            splits.append(mask)

    def compatible(a: int, b: int) -> bool:
        return (a & b) == 0 or (a & b) == a or (a & b) == b

    if n == 3:
        return 1
    count = 0
    for family in itertools.combinations(splits, n - 3):
        if all(compatible(a, b) for a, b in itertools.combinations(family, 2)):
            count += 1
    return count


def count_stable_by_splits(n: int) -> int:
    """Number of stable n-leg trees = number of pairwise compatible split
    families of any size (including the empty family)."""
    ground = list(range(2, n + 1))
    splits = []
    for size in range(2, n - 1):
        for combo in itertools.combinations(ground, size):
            mask = 0
            for x in combo:
                mask |= 1 << x
            splits.append(mask)

    def compatible(a, b):
        return (a & b) == 0 or (a & b) == a or (a & b) == b

    count = 0
    for size in range(0, n - 2):
        for family in itertools.combinations(splits, size):
            if all(compatible(a, b) for a, b in itertools.combinations(family, 2)):
                count += 1
    return count


def recursive_canonicalize(t: Tree) -> CanonicalForm:
    """The former ``canonicalize``: signatures and numbering by recursion
    from the root, which limits the depth of the trees it takes.

    Rooted at the attachment vertex of the minimal leg label; subtrees are
    ordered by their recursive signature, so leg-label-preserving isomorphic
    trees get identical keys and canonical coordinate orders.
    """
    adj = t.adjacency()
    legs_at: dict[VertexId, list[int]] = {v: [] for v in t.vertices}
    for l in t.legs:
        legs_at[l.at].append(l.label)
    root = t.root

    sigs: dict[tuple[VertexId, VertexId | None], str] = {}

    def sig(v: VertexId, parent: VertexId | None) -> str:
        key = (v, parent)
        if key not in sigs:
            child_sigs = sorted(sig(w, v) for w, _ in adj[v] if w != parent)
            own = ",".join(str(x) for x in sorted(legs_at[v]))
            sigs[key] = f"({own};{''.join(child_sigs)})"
        return sigs[key]

    key = sig(root, None)

    vertex_map: dict[VertexId, str] = {}
    edge_map: dict[int, int] = {}

    def assign(v: VertexId, parent: VertexId | None) -> None:
        vertex_map[v] = f"v{len(vertex_map)}"
        children = sorted(
            ((w, i) for w, i in adj[v] if w != parent),
            key=lambda wi: sig(wi[0], v),
        )
        for w, i in children:
            edge_map[i] = len(edge_map)
            assign(w, v)

    assign(root, None)

    canon_edges: list[Edge | None] = [None] * len(t.edges)
    for orig, canon in edge_map.items():
        a, b = t.edges[orig].ends
        # Orient the canonical edge parent -> child.
        pa, pb = vertex_map[a], vertex_map[b]
        if int(pa[1:]) > int(pb[1:]):
            pa, pb = pb, pa
        canon_edges[canon] = Edge((pa, pb), None)
    canon_tree = Tree(
        tuple(f"v{i}" for i in range(len(t.vertices))),
        tuple(canon_edges),  # type: ignore[arg-type]
        tuple(sorted((Leg(l.label, vertex_map[l.at]) for l in t.legs), key=lambda x: x.label)),
    )
    return CanonicalForm(
        key=key,
        tree=canon_tree,
        edge_map=tuple(edge_map[i] for i in range(len(t.edges))),
    )


def home_scan_split_tree(n: int, splits: tuple[int, ...]) -> Tree:
    """The former ``tree._split_tree``: the stable tree whose bounded edges
    are the given compatible splits, listed in decreasing order.  Vertex 0
    carries leg 1, vertex j + 1 is the far end of edge j, and everything
    hangs from the smallest split that contains it, found by a scan."""

    def home(mask: int, before: int) -> int:
        return max((j + 1 for j, s in enumerate(splits[:before]) if s & mask == mask), default=0)

    return Tree(
        tuple(range(len(splits) + 1)),
        tuple(Edge((home(s, j), j + 1)) for j, s in enumerate(splits)),
        tuple(Leg(i + 1, home(1 << i, len(splits))) for i in range(n)),
    )


def walk_path_coefficients(f: PLFunction) -> dict[VertexId, dict[str, int]]:
    """The former ``moduli._path_coefficients``: each vertex's value minus
    the base value, from one walk of ``f``'s symbolic tree, as
    ``{l_e{i}: slope}`` along the path from the basepoint, zero slopes left
    out."""
    t = f.tree
    paths: dict[VertexId, dict[str, int]] = {f.basepoint: {}}
    for v, kids in t.walk(f.basepoint).items():
        for w, i in kids:
            slope = f.slope(v, w, i)
            paths[w] = {**paths[v], t.length_symbol(i): slope} if slope else paths[v]
    return paths


def backward_split_masks(t: Tree) -> tuple[int, ...]:
    """The former ``moduli._split_masks``: the split of each edge of a
    canonical tree, bit i - 1 set when leg i lies beyond the edge, seen
    from the root v0.

    A canonical tree lists its edges parent -> child in preorder, so one
    pass over them backwards meets every child before its parent.
    """
    index = {v: i for i, v in enumerate(t.vertices)}
    beyond = [0] * len(t.vertices)  # legs at each vertex, then in its subtree
    for l in t.legs:
        beyond[index[l.at]] |= 1 << (l.label - 1)
    masks = [0] * len(t.edges)
    for j in reversed(range(len(t.edges))):
        parent, child = t.edges[j].ends
        masks[j] = beyond[index[child]]
        beyond[index[parent]] |= masks[j]
    return tuple(masks)


def index_multidegree(f: PLFunction) -> Multidegree:
    """The former ``multidegree``, which found each leg's slope with
    ``labels.index`` and so took time quadratic in the number of legs."""
    t = f.tree
    deg = {v: 0 for v in t.vertices}
    for i, e in enumerate(t.edges):
        a, b = e.ends
        deg[a] += f.edge_slopes[i]
        deg[b] -= f.edge_slopes[i]
    labels = t.leg_labels
    for l in t.legs:
        deg[l.at] += f.leg_slopes[labels.index(l.label)]
    return Multidegree(tuple((v, deg[v]) for v in t.vertices))


def _insert_leg(state, label):
    """All ways to add one labeled leg to a trivalent shape.

    ``state`` is (vertex count, edge list, leg list) over int vertex ids.
    Each insertion subdivides either a leg or an edge with a fresh vertex.
    """
    k, edges, legs = state
    out = []
    for j, (lbl, at) in enumerate(legs):
        new_legs = legs[:j] + [(lbl, k)] + legs[j + 1 :] + [(label, k)]
        out.append((k + 1, edges + [(at, k)], new_legs))
    for j, (a, b) in enumerate(edges):
        new_edges = edges[:j] + [(a, k), (k, b)] + edges[j + 1 :]
        out.append((k + 1, new_edges, legs + [(label, k)]))
    return out


def contraction_tree_types(n: int) -> list[CombinatorialType]:
    """The former ``enumerate_tree_types``: trivalent shapes by leg
    insertion, the other shapes by contracting internal edges with a
    worklist, each type's facets recorded from its contractions and its
    splits from ``backward_split_masks``."""
    states = [(1, [], [(1, 0), (2, 0), (3, 0)])]
    for label in range(4, n + 1):
        states = [s2 for s in states for s2 in _insert_leg(s, label)]
    pending: dict[str, Tree] = {}
    for k, edges, legs in states:
        cf = recursive_canonicalize(Tree.build(list(range(k)), edges, legs))
        pending[cf.key] = cf.tree
    found: dict[str, CombinatorialType] = {}
    while pending:
        key, tree = pending.popitem()
        facets = []
        for i in range(len(tree.edges)):
            cf = recursive_canonicalize(contract_edge(tree, i))
            facets.append((cf.key, cf.edge_map))
            if cf.key not in found:
                pending.setdefault(cf.key, cf.tree)
        found[key] = CombinatorialType(tree, key, tuple(facets), backward_split_masks(tree))
    return [found[k] for k in sorted(found)]


def random_tree(rng: random.Random, n: int, max_internal: int = 10, concrete: bool = True) -> Tree:
    """Random connected tree with n labeled legs."""
    nv = rng.randint(1, max(1, min(max_internal + 1, 2 * n)))
    edges = []
    for v in range(1, nv):
        u = rng.randrange(v)
        length = Fraction(rng.randint(1, 12), rng.randint(1, 4)) if concrete else None
        edges.append((u, v, length))
    legs = [(i + 1, rng.randrange(nv)) for i in range(n)]
    return Tree.build(list(range(nv)), edges, legs)


def random_zero_sum(rng: random.Random, n: int, bound: int = 9) -> ContactOrder:
    vals = [rng.randint(-bound, bound) for _ in range(n - 1)]
    return ContactOrder.of(vals + [-sum(vals)])


def random_stable_tree(rng: random.Random, n: int, concrete: bool = True) -> Tree:
    """Random stable tree sampled by random leg insertion, then random
    contraction of some internal edges."""
    state_vertices = [0]
    edges: list[tuple[int, int]] = []
    legs = [(1, 0), (2, 0), (3, 0)]
    for label in range(4, n + 1):
        k = len(state_vertices)
        spots = len(legs) + len(edges)
        pick = rng.randrange(spots)
        if pick < len(legs):
            lbl, at = legs[pick]
            legs[pick] = (lbl, k)
            edges.append((at, k))
            legs.append((label, k))
        else:
            a, b = edges[pick - len(legs)]
            edges[pick - len(legs)] = (a, k)
            edges.append((k, b))
            legs.append((label, k))
        state_vertices.append(k)
    t = Tree.build(state_vertices, edges, legs)
    for _ in range(rng.randint(0, len(t.edges))):
        if not t.edges:
            break
        if rng.random() < 0.5:
            t = contract_edge(t, rng.randrange(len(t.edges)))
    if concrete:
        t = t.with_lengths([Fraction(rng.randint(1, 9)) for _ in t.edges])
    return t


def grid_points(variables: list[str], bound: int = 3):
    """All points with half-integer coordinates in [-bound, bound]."""
    ticks = [Fraction(i, 2) for i in range(-2 * bound, 2 * bound + 1)]
    for combo in itertools.product(ticks, repeat=len(variables)):
        yield dict(zip(variables, combo))


_RELS = {"ge", "gt", "eq"}


def _fraction_normalize(c: Constraint) -> Constraint:
    """Scale by a positive rational so coefficients are coprime integers."""
    expr, rel = c
    nums = [expr.const] + [q for _, q in expr.terms]
    denom_lcm = 1
    for q in nums:
        denom_lcm = denom_lcm * q.denominator // gcd(denom_lcm, q.denominator)
    ints = [q * denom_lcm for q in nums]
    g = 0
    for q in ints:
        g = gcd(g, int(q))
    scale = Fraction(denom_lcm, g) if g else Fraction(1)
    return (expr * scale, rel)


def _fraction_key(c: Constraint):
    expr, rel = c
    return (rel, expr.const, expr.terms)


def canonical_system(constraints: list[Constraint]) -> tuple[tuple, ...]:
    """Deterministic hashable key for a pruned constraint system."""
    return tuple(sorted(_fraction_key(_fraction_normalize(c)) for c in constraints))


def fraction_check_feasible(
    constraints: list[Constraint], variables: list[str] | None = None
) -> Feasibility:
    """The Fraction Fourier-Motzkin kernel that ``check_feasible`` replaced:
    the same elimination order and witness rule, with every row an
    ``AffineExpr`` rebuilt and normalized in rational arithmetic."""
    for _, rel in constraints:
        if rel not in _RELS:
            raise ValueError(f"unknown relation {rel!r}")
    if variables is None:
        names = set()
        for expr, _ in constraints:
            names.update(expr.variables)
        variables = sorted(names)

    work = [_fraction_normalize(c) for c in constraints]
    substitutions: list[tuple[str, AffineExpr]] = []

    # Phase 1: eliminate equalities by exact substitution.
    while True:
        for e, r in work:
            if r == "eq" and e.is_constant and e.const != 0:
                return Feasibility(False)
        work = [(e, r) for e, r in work if not (r == "eq" and e.is_zero)]
        idx = next((k for k, (e, r) in enumerate(work) if r == "eq"), None)
        if idx is None:
            break
        expr, _rel = work.pop(idx)
        var, coeff = expr.terms[0]
        solved = (expr - AffineExpr.symbol(var) * coeff) * Fraction(-1, coeff)
        substitutions.append((var, solved))
        work = [_fraction_normalize((e.substitute({var: solved}), r)) for e, r in work]

    remaining = [v for v in variables if v not in {s for s, _ in substitutions}]
    stages: list[tuple[str, list[tuple[AffineExpr, bool]], list[tuple[AffineExpr, bool]]]] = []
    ineqs = [(e, r) for e, r in work if r != "eq"]

    # Phase 2: Fourier-Motzkin on the inequalities.
    for var in remaining:
        lowers: list[tuple[AffineExpr, bool]] = []  # var >= bound (strict flag)
        uppers: list[tuple[AffineExpr, bool]] = []
        passthrough: list[Constraint] = []
        for expr, rel in ineqs:
            a = expr.coeff(var)
            strict = rel == "gt"
            if a == 0:
                passthrough.append((expr, rel))
                continue
            bound = (expr - AffineExpr.symbol(var) * a) * Fraction(-1, a)
            if a > 0:
                lowers.append((bound, strict))
            else:
                uppers.append((bound, strict))
        stages.append((var, lowers, uppers))
        combined: dict[tuple, Constraint] = {}
        for c in passthrough:
            combined.setdefault(_fraction_key(_fraction_normalize(c)), c)
        for lo, ls in lowers:
            for up, us in uppers:
                c = _fraction_normalize((up - lo, "gt" if (ls or us) else "ge"))
                combined.setdefault(_fraction_key(c), c)
        ineqs = list(combined.values())

    for expr, rel in ineqs:
        # Only constants remain.
        if rel == "ge" and expr.const < 0:
            return Feasibility(False)
        if rel == "gt" and expr.const <= 0:
            return Feasibility(False)

    # Back-substitute a witness, latest-eliminated variable first.
    point: dict[str, Fraction] = {}
    for var, lowers, uppers in reversed(stages):
        lo_vals = [(b.evaluate(point), s) for b, s in lowers]
        up_vals = [(b.evaluate(point), s) for b, s in uppers]
        lo = max((v for v, _ in lo_vals), default=None)
        up = min((v for v, _ in up_vals), default=None)
        if lo is None and up is None:
            val = Fraction(0)
        elif up is None:
            strict = any(s for v, s in lo_vals if v == lo)
            val = lo + 1 if strict else lo
        elif lo is None:
            strict = any(s for v, s in up_vals if v == up)
            val = up - 1 if strict else up
        elif lo < up:
            val = (lo + up) / 2
        else:
            val = lo  # lo == up; FM guarantees the bounds are non-strict here
        point[var] = val
    for var, solved in reversed(substitutions):
        point[var] = solved.evaluate(point)
    for var in variables:
        point.setdefault(var, Fraction(0))

    for expr, rel in constraints:
        value = expr.evaluate(point)
        if not (value > 0 if rel == "gt" else value >= 0 if rel == "ge" else value == 0):
            raise RuntimeError(f"witness reconstruction failed on {expr} {rel} 0")
    return Feasibility(True, point)


def _fraction_solve_for(row: tuple[int, ...], p: int, vals: dict[int, Fraction]) -> Fraction:
    """The value of column ``p`` that makes ``row`` zero at ``vals``."""
    num, den = row[0], 1
    for j in range(1, len(row)):
        c = row[j]
        if c and j != p:
            v = vals[j]
            d = v.denominator
            num = num * d + c * v.numerator * den
            den *= d
    return Fraction(-num, den * row[p])


def fraction_back_substitute(record) -> dict[int, Fraction]:
    """The back-substitution of the integer-row kernel as it was in
    ``Fraction`` arithmetic: a point of the system that
    ``feasibility._eliminate`` returned ``record`` for, as column -> value
    in the order assigned, the latest-eliminated column first and the
    substituted columns last."""
    substitutions, stages = record
    vals: dict[int, Fraction] = {}
    for p, lowers, uppers in reversed(stages):
        lo_vals = [(_fraction_solve_for(r, p, vals), s) for r, s in lowers]
        up_vals = [(_fraction_solve_for(r, p, vals), s) for r, s in uppers]
        lo = max((v for v, _ in lo_vals), default=None)
        up = min((v for v, _ in up_vals), default=None)
        if lo is None and up is None:
            val = Fraction(0)
        elif up is None:
            strict = any(s for v, s in lo_vals if v == lo)
            val = lo + 1 if strict else lo
        elif lo is None:
            strict = any(s for v, s in up_vals if v == up)
            val = up - 1 if strict else up
        elif lo < up:
            val = (lo + up) / 2
        else:
            val = lo  # lo == up; FM guarantees the bounds are non-strict here
        vals[p] = val
    for p, row in reversed(substitutions):
        vals[p] = _fraction_solve_for(row, p, vals)
    return vals


def _fraction_rank(rows: list[tuple[Fraction, ...]]) -> int:
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pr = m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / pr[col]
                m[r] = [a - factor * b for a, b in zip(m[r], pr)]
        rank += 1
    return rank


def witness_face_census(
    K: Cone, functionals: dict[tuple[VertexId, int], AffineExpr], fan: Fan
) -> dict[int, int]:
    """f-vector of the pullback subdivision of K along the fan.

    A relatively open face of the subdivision is a relatively open face of
    K together with one relatively open face of the fan for each vertex
    image.  The choices are fixed one slot at a time, depth first, and a
    prefix the feasibility kernel rejects is dropped: first one slot per
    nonnegative coordinate of K (zero or positive), then one per distinct
    image vector.  A face has dimension #coords - rank of its equalities.
    """
    coords = [c.name for c in K.coords]
    slots = [[[(h, "eq")], [(h, "gt")]] for h in K.inequalities]
    for image in dict.fromkeys(_images(functionals, fan.dim).values()):
        slots.append([_pullback(face, image) for face in fan.open_faces])
    counts: dict[int, int] = {}

    def visit(depth: int, system: list[Constraint]) -> None:
        if depth == len(slots):
            zero_rows = [tuple(e.coeff(c) for c in coords) for e, rel in system if rel == "eq"]
            d = len(coords) - _fraction_rank(zero_rows)
            counts[d] = counts.get(d, 0) + 1
            return
        for choice in slots[depth]:
            extended = system + choice
            if check_feasible(extended, coords).feasible:
                visit(depth + 1, extended)

    visit(0, [])
    return dict(sorted(counts.items()))


def plain_search(slots: list[list], order: list[int]):
    """Yield (option indices, rows) for each feasible choice of one option
    (a list of integer rows, or None) per slot, depth first, dropping every
    prefix that ``rows_scaled_point`` rejects; the kernel runs at every node."""

    def visit(depth: int, picks: tuple[int, ...], rows: list):
        if depth == len(slots):
            yield picks, rows
            return
        for i, option in enumerate(slots[depth]):
            if option is not None and rows_scaled_point(rows + option, order) is not None:
                yield from visit(depth + 1, (*picks, i), rows + option)

    return visit(0, (), [])


def pairwise_shot_facets(rows: list[tuple[tuple[int, ...], str]], point: list[int]) -> set:
    """The rows that a ray from ``point`` certifies as facets, as the
    library's ``_shot_facets`` once found them: for each shooting row a,
    the rate s.a of every row s is computed again, so each unordered pair's
    rate is computed twice."""
    values = [sum(map(mul, row, point)) for row, _ in rows]
    if point[0] <= 0 or not all(v > 0 for v in values) or any(rel == "eq" for _, rel in rows):
        raise RuntimeError("prune_rows: the point is not strictly inside every row")
    normals = [row[1:] for row, _ in rows]
    found = set()
    for a in normals:
        hit, tie, value, rate = None, False, 0, 0
        for j, s in enumerate(normals):
            r = sum(map(mul, s, a))
            if r <= 0:
                continue
            if hit is None or values[j] * rate < value * r:
                hit, tie, value, rate = j, False, values[j], r
            elif values[j] * rate == value * r:
                tie = True
        if hit is not None and not tie:
            found.add(rows[hit])
    return found


def witness_prune_redundant(constraints: list[Constraint]) -> list[Constraint]:
    """Drop inequality constraints implied by the rest of the system.

    Intended for non-strict systems describing closed cells; the result is
    the unique irredundant (facet-defining) description of a full-dimensional
    polyhedron, up to positive scaling, which ``canonical_system`` fixes.
    """
    kept = [_fraction_normalize(c) for c in constraints]
    # Dedupe first so identical copies do not shadow each other.
    seen: dict[tuple, Constraint] = {}
    for c in kept:
        seen.setdefault(_fraction_key(c), c)
    kept = list(seen.values())
    i = 0
    while i < len(kept):
        expr, rel = kept[i]
        if rel != "ge" or expr.is_constant:
            if rel == "ge" and expr.is_constant and expr.const >= 0:
                kept.pop(i)
                continue
            i += 1
            continue
        rest = kept[:i] + kept[i + 1 :]
        if not check_feasible(rest + [(-expr, "gt")]).feasible:
            kept.pop(i)
        else:
            i += 1
    return kept


def cell_key(cell: SubdividedCell) -> tuple:
    """The former ``SubdividedCell.key``: the cell's halfspaces as
    ``canonical_system`` fixes them, so that equal cells have equal keys."""
    return canonical_system([(h, "ge") for h in cell.halfspaces])


def assignment_subdivide_cone(
    K: Cone,
    vertex_functionals: dict[tuple[VertexId, int], AffineExpr],
    fan: Fan,
) -> list[SubdividedCell]:
    """Maximal cells of the pullback subdivision of K along the fan, by
    brute force over all |maximal cones|^|V| assignments.

    Each cell fixes, for every vertex, the fan cone containing its image
    vector of values; a cell survives iff it meets the interior of K, and
    identical cells arising from different assignments are merged.
    """
    if not fan.complete:
        raise IncompleteFan("subdivision requires a complete target fan")
    images = _images(vertex_functionals, fan.dim)
    vertices = list(images)
    base: list[Constraint] = [(ineq, "ge") for ineq in K.inequalities]
    maximal = fan.maximal_cones()
    coords = [c.name for c in K.coords]

    # The constraints that put vertex v into maximal cone `pick`, built once
    # per (v, pick) instead of once per assignment.
    walls = {
        (v, pick): _pullback(fc.halfspaces, images[v])
        for v in vertices
        for pick, (_, fc) in enumerate(maximal)
    }

    cells: dict[tuple, SubdividedCell] = {}
    for choice in itertools.product(range(len(maximal)), repeat=len(vertices)):
        constraints = list(base)
        for v, pick in zip(vertices, choice):
            constraints += walls[(v, pick)]
        if any(e.is_constant and e.const < 0 for e, _ in constraints):
            continue
        # Interior test: strict versions of the nontrivial constraints;
        # identically-satisfied walls (e.g. a functional that is 0 on all
        # of K) impose nothing.
        interior = check_feasible(
            [(e, "gt") for e, _ in constraints if not e.is_constant], coords
        )
        if not interior.feasible:
            continue
        pruned = prune_redundant([(e, "ge") for e, _ in constraints if not e.is_constant])
        halfspaces = tuple(sorted((e for e, _ in pruned), key=str))
        cell = SubdividedCell(
            parent=K.name,
            assignment=tuple((str(v), maximal[pick][0]) for v, pick in zip(vertices, choice)),
            halfspaces=halfspaces,
            witness=tuple(sorted((k, interior.witness[k]) for k in coords)),
            dim=K.dim,
        )
        cells.setdefault(cell_key(cell), cell)
    return [cells[k] for k in sorted(cells)]


def wall_face_census(K: Cone, cells: list[SubdividedCell]) -> dict[int, int]:
    """f-vector of the cell complex inside K, by sign-pattern enumeration.

    The distinct normalized wall functionals (cell halfspaces plus the
    facets of K) cut K into relatively open faces; each feasible sign
    pattern is one face, of dimension (#coords - rank of its zero set).
    """
    coords = [c.name for c in K.coords]
    k_facets = {canonical_system([(f, "ge")])[0] for f in K.inequalities}
    funcs: dict[tuple, AffineExpr] = {}
    for f in K.inequalities:
        funcs.setdefault(canonical_system([(f, "ge")])[0], _fraction_normalize((f, "ge"))[0])
    for cell in cells:
        for h in cell.halfspaces:
            key = canonical_system([(h, "ge")])[0]
            neg = canonical_system([(-h, "ge")])[0]
            if neg not in funcs:
                funcs.setdefault(key, _fraction_normalize((h, "ge"))[0])
    items = sorted(funcs.items())
    counts: dict[int, int] = {}
    domains = [
        ("0", "+") if key in k_facets else ("-", "0", "+") for key, _ in items
    ]
    negated = [-expr for _, expr in items]
    for signs in itertools.product(*domains):
        system: list[Constraint] = []
        zero_rows = []
        for (key, expr), neg, s in zip(items, negated, signs):
            if s == "0":
                system.append((expr, "eq"))
                zero_rows.append(tuple(expr.coeff(c) for c in coords))
            elif s == "+":
                system.append((expr, "gt"))
            else:
                system.append((neg, "gt"))
        if not check_feasible(system, coords).feasible:
            continue
        d = len(coords) - _fraction_rank(zero_rows)
        counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items()))


def _contains(outer: list[Constraint], inner: list[Constraint]) -> bool:
    """Is every point of ``inner`` in ``outer``?"""
    for expr, rel in outer:
        if rel in ("ge", "gt"):
            if check_feasible(inner + [(-expr, "gt")]).feasible:
                return False
        else:
            if check_feasible(inner + [(expr, "gt")]).feasible:
                return False
            if check_feasible(inner + [(-expr, "gt")]).feasible:
                return False
    return True


def pairwise_face_problems(fan: Fan) -> list[str]:
    """One problem per cone pair and per cone of the pair whose
    intersection is not a face of that cone."""
    problems: list[str] = []
    systems = [_pullback(c.halfspaces, _XSYMS) for c in fan.cones]
    for i, j in itertools.combinations(range(len(fan.cones)), 2):
        # The halfspaces are homogeneous, so the intersection holds the origin.
        inter = systems[i] + systems[j]
        for k in (i, j):
            # The smallest face of cone k containing the intersection is cut
            # out by the halfspaces tight on it; require equality.
            tight: list[Constraint] = []
            for expr, rel in systems[k]:
                if rel == "ge" and not check_feasible(inter + [(expr, "gt")]).feasible:
                    tight.append((expr, "eq"))
            face = systems[k] + tight
            if not (_contains(face, inter) and _contains(inter, face)):
                problems.append(f"intersection of cones {i} and {j} is not a face of cone {k}")
    return problems


def _concrete_point(ct: CombinatorialType, sigma: ContactOrder, lengths=None) -> TropicalMapPoint:
    t = ct.tree.with_lengths(lengths or [1] * len(ct.tree.edges))
    f = extend_from_leg_slopes(t, sigma, t.root, 0)
    return TropicalMapPoint.of(t, [f])


def affine_product_decomposition(n: int, sigma: ContactOrder, leg: int) -> IsomorphismReport:
    """The product certificate with every splitting an ``AffineExpr`` from
    ``vertex_values``, once per leg pair, and the face checks done by
    ``AffineExpr`` arithmetic; witnesses come from concrete map points."""
    curve = build_moduli_complex(n)
    mapc = build_map_moduli(n, sigma)

    def splitting(key: str, label: int) -> AffineExpr:
        return vertex_values(mapc.functions[key])[mapc.types[key].tree.leg(label).at]

    failures: list[str] = []
    cone_maps: dict[str, str] = {}
    splittings: dict[str, AffineExpr] = {}
    for key in mapc.cones:
        s = splitting(key, leg)
        splittings[key] = s
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

    face_checks = 0
    for fm in mapc.face_maps:
        face_checks += 1
        big = splittings[fm.cone_key]
        rename = {cone_coord: face_coord for face_coord, cone_coord in fm.coord_map}
        coeffs: dict[str, Fraction] = {}
        for name, coeff in big.terms:
            if name not in fm.zeroed:
                name = rename.get(name, name)
                coeffs[name] = coeffs.get(name, 0) + coeff
        if AffineExpr.make(big.const, coeffs) != splittings[fm.face_key]:
            failures.append(
                f"face map {fm.cone_key} -> {fm.face_key}: splitting not compatible"
            )

    distinct: dict[int, dict | None] = {}
    for other in range(1, n + 1):
        if other == leg:
            continue
        witness = None
        for key in sorted(mapc.cones):
            diff = splittings[key] - splitting(key, other)
            if diff.is_zero:
                continue
            point = _concrete_point(mapc.types[key], sigma)
            vi = splitting_at_leg(point, leg)
            vj = splitting_at_leg(point, other)
            if vi != vj:
                witness = {
                    "cone": key,
                    "lengths": {f"l_e{i}": "1" for i in range(len(mapc.types[key].tree.edges))},
                    "c": "0",
                    f"splitting_{leg}": str(vi),
                    f"splitting_{other}": str(vj),
                }
                break
        distinct[other] = witness

    return IsomorphismReport(
        certified=not failures,
        n=n,
        sigma=sigma,
        leg=leg,
        cones_checked=len(mapc.cones),
        cone_maps=cone_maps,
        face_checks=face_checks,
        failures=failures,
        distinct_splittings=distinct,
    )


def cone_complex_json(cx: ConeComplex) -> dict:
    """A complex's payload dict, from its entries' own ``to_json``."""
    doc = {
        "n": cx.n,
        "cones": [cx.cones[k].to_json() for k in sorted(cx.cones)],
        "face_maps": [
            fm.to_json() for fm in sorted(cx.face_maps, key=lambda fm: (fm.cone_key, fm.zeroed, fm.face_key))
        ],
    }
    if cx.sigma is not None:
        doc["sigma"] = list(cx.sigma.slopes)
    if cx.functions:
        doc["functions"] = {
            k: [plfunction_to_json(f) for f in fs] if isinstance(fs, tuple) else plfunction_to_json(fs)
            for k, fs in sorted(cx.functions.items())
        }
    return doc


def isomorphism_report_json(report: IsomorphismReport) -> dict:
    """A product certificate's payload dict."""
    return {
        "certified": report.certified,
        "n": report.n,
        "sigma": list(report.sigma.slopes),
        "leg": report.leg,
        "cones_checked": report.cones_checked,
        "cone_maps": dict(sorted(report.cone_maps.items())),
        "face_checks": report.face_checks,
        "failures": list(report.failures),
        "distinct_splittings": {str(j): w for j, w in sorted(report.distinct_splittings.items())},
    }


def subdivided_complex_json(sub: SubdividedComplex) -> dict:
    """A subdivided complex's payload dict: ``stats()`` with string
    f-vector keys, and each cell's own ``to_json``."""
    stats = sub.stats()
    stats["per_cone"] = {
        k: {**v, "f_vector": {str(d): c for d, c in v["f_vector"].items()}} for k, v in stats["per_cone"].items()
    }
    return {
        "complex": cone_complex_json(sub.complex),
        "fan": sub.fan.to_json(),
        "cells": {key: [c.to_json() for c in cs] for key, cs in sorted(sub.cells.items())},
        "statistics": stats,
    }
