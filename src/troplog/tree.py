"""Genus-0 tropical curves: finite metric trees with labeled infinite legs.

A tree is "concrete" when every bounded edge carries a nonnegative rational
length, and "symbolic" when lengths are left as named coordinates (one per
edge); the same data structure serves as a metric object and as the chart
of a moduli cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import attrgetter

from .affine import Rat, as_fraction, as_integer, fraction_str
from .errors import NoSuchEdge, NoSuchLeg, ParseError, UnstableRange

VertexId = str | int


@dataclass(frozen=True, slots=True)
class Edge:
    ends: tuple[VertexId, VertexId]
    length: Fraction | None = None  # None = symbolic length coordinate


@dataclass(frozen=True, slots=True)
class Leg:
    label: int
    at: VertexId


# Canonical trees and split trees are built from few distinct edges, legs
# and vertex-name tuples, so each comes from a bounded intern table and is
# shared.  ``typed`` keeps ``True`` and ``1`` apart: they are equal, but
# print differently.
_INTERN_SIZE = 4096


@lru_cache(maxsize=_INTERN_SIZE, typed=True)
def _edge(a: VertexId, b: VertexId) -> Edge:
    """The shared symbolic edge a -> b."""
    return Edge((a, b))


@lru_cache(maxsize=_INTERN_SIZE, typed=True)
def _leg(label: int, at: VertexId) -> Leg:
    """The shared leg ``label`` at ``at``."""
    return Leg(label, at)


@lru_cache(maxsize=64)
def _vertex_names(k: int) -> tuple[str, ...]:
    """The canonical vertex names v0, ..., v{k-1}, one tuple per k."""
    return tuple(f"v{i}" for i in range(k))


@dataclass(frozen=True)
class Tree:
    vertices: tuple[VertexId, ...]
    edges: tuple[Edge, ...]
    legs: tuple[Leg, ...]

    @staticmethod
    def build(vertices, edges, legs, lengths=None) -> "Tree":
        """Convenience constructor from plain lists.

        ``edges`` is a list of (a, b) pairs or (a, b, length) triples;
        ``legs`` a list of (label, vertex) pairs.  ``lengths``, if given,
        applies one length to every edge.
        """
        es = []
        for e in edges:
            if len(e) == 3:
                a, b, ln = e
            else:
                (a, b), ln = e, lengths
            es.append(Edge((a, b), None if ln is None else as_fraction(ln)))
        return Tree(tuple(vertices), tuple(es), tuple(Leg(l, v) for l, v in legs))

    @property
    def n_legs(self) -> int:
        return len(self.legs)

    @cached_property
    def leg_labels(self) -> tuple[int, ...]:
        """The leg labels, sorted; computed once per tree, like
        ``leg_positions``.  Neither is a field, so neither takes part in
        equality or hashing."""
        return tuple(sorted(l.label for l in self.legs))

    @cached_property
    def leg_positions(self) -> dict[int, int]:
        """Each leg label's position in ``leg_labels``; the first one if a
        label repeats."""
        position: dict[int, int] = {}
        for i, label in enumerate(self.leg_labels):
            position.setdefault(label, i)
        return position

    @property
    def is_concrete(self) -> bool:
        return all(e.length is not None for e in self.edges)

    def length_symbol(self, edge_index: int) -> str:
        return f"l_e{edge_index}"

    @property
    def root(self) -> VertexId:
        """The attachment vertex of the smallest leg label, or else the first
        vertex: the root of the canonical form and the default basepoint.  A
        tree with neither has no root, which is a ParseError."""
        if self.legs:
            return min(self.legs, key=lambda l: l.label).at
        if not self.vertices:
            raise ParseError("tree has no vertices")
        return self.vertices[0]

    def leg(self, label: int) -> Leg:
        for l in self.legs:
            if l.label == label:
                return l
        raise NoSuchLeg(f"no leg labeled {label}")

    def legs_at(self, v: VertexId) -> list[Leg]:
        return [l for l in self.legs if l.at == v]

    def adjacency(self) -> dict[VertexId, list[tuple[VertexId, int]]]:
        """vertex -> list of (neighbor, edge index).

        The loop that builds it checks each edge's ends, and then each leg's
        vertex: the first edge, or else the first leg, at a vertex outside
        the vertex set is a ParseError.
        """
        adj: dict[VertexId, list[tuple[VertexId, int]]] = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            a, b = e.ends
            if a not in adj or b not in adj:
                raise ParseError(f"edge {i} has an endpoint not in the vertex set")
            adj[a].append((b, i))
            adj[b].append((a, i))
        for l in self.legs:
            if l.at not in adj:
                raise ParseError(f"leg {l.label} attached to unknown vertex {l.at!r}")
        return adj

    def walk(self, root: VertexId) -> dict[VertexId, list[tuple[VertexId, int]]]:
        """The depth-first search tree from ``root``: each vertex it reaches,
        in the order reached, mapped to its children as (child, edge index).

        A parent comes before its children, so ``reversed`` lists every child
        before its parent.  The walk reaches only the vertices connected to
        ``root``, and on a graph with a cycle it leaves out the edges that
        would close one.  An edge or leg at an unknown vertex is a
        ParseError (``adjacency``).
        """
        adj = self.adjacency()
        children: dict[VertexId, list[tuple[VertexId, int]]] = {root: []}
        stack = [root]
        while stack:
            v = stack.pop()
            kids = children[v]
            for w, i in adj[v]:
                if w not in children:
                    children[w] = []
                    kids.append((w, i))
                    stack.append(w)
        return children

    def valence(self, v: VertexId) -> int:
        deg = sum(1 for e in self.edges if v in e.ends)
        return deg + len(self.legs_at(v))

    def with_lengths(self, lengths: list[Rat]) -> "Tree":
        if len(lengths) != len(self.edges):
            raise ParseError("wrong number of edge lengths")
        es = tuple(Edge(e.ends, as_fraction(x)) for e, x in zip(self.edges, lengths))
        return Tree(self.vertices, es, self.legs)


@dataclass(frozen=True, slots=True)
class ValidationReport:
    problems: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_json(self) -> dict:
        return {"valid": self.ok, "problems": list(self.problems)}


def validate_tree(t: Tree) -> ValidationReport:
    """Collect every violated tree invariant; empty report iff valid."""
    problems: list[str] = []
    vs = set(t.vertices)
    if len(vs) != len(t.vertices):
        problems.append("duplicate vertex identifiers")
    if not t.vertices:
        problems.append("tree has no vertices")
        return ValidationReport(tuple(problems))

    for i, e in enumerate(t.edges):
        a, b = e.ends
        if a not in vs or b not in vs:
            problems.append(f"edge {i} has an endpoint not in the vertex set")
        if a == b:
            problems.append(f"edge {i} is a self-loop (cycle)")
        if e.length is not None:
            if e.length < 0:
                problems.append(f"edge {i} has negative length {fraction_str(e.length)}")
            elif e.length == 0:
                problems.append(f"edge {i} has length 0 (un-contracted degeneration)")
    for l in t.legs:
        if l.at not in vs:
            problems.append(f"leg {l.label} attached to unknown vertex {l.at!r}")

    labels = sorted(l.label for l in t.legs)
    expected = list(range(1, len(labels) + 1))
    if labels != expected:
        problems.append(f"leg labels {labels} are not exactly 1..{len(labels)}")

    # Union-find detects cycles; a final component count detects disconnection.
    parent = {v: v for v in vs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cycle = False
    for e in t.edges:
        a, b = e.ends
        if a not in vs or b not in vs or a == b:
            continue
        ra, rb = find(a), find(b)
        if ra == rb:
            cycle = True
        else:
            parent[ra] = rb
    if cycle:
        problems.append("graph contains a cycle (genus > 0)")
    if len({find(v) for v in vs}) > 1:
        problems.append("graph is disconnected")
    return ValidationReport(tuple(problems))


def check_incidence(t: Tree) -> None:
    """Raise ParseError if an edge or a leg names a vertex outside the vertex
    set: the checks of ``t.adjacency()``.

    ``validate_tree`` reports such a tree; code that walks the tree cannot
    use it at all.
    """
    t.adjacency()


def checked_walk(t: Tree, root: VertexId, what: str) -> dict[VertexId, list[tuple[VertexId, int]]]:
    """``t.walk(root)`` on a graph that is a tree: every edge and leg is at
    a vertex of ``t`` (``check_incidence``), the walk reaches every vertex
    and there is one edge fewer than vertices.  Any other graph is a
    ParseError, which names ``what`` when the graph is not a tree."""
    children = t.walk(root)
    if len(children) < len(t.vertices):
        raise ParseError(f"tree is disconnected; {what} not determined")
    if len(t.edges) != len(t.vertices) - 1:
        raise ParseError(f"graph contains a cycle (genus > 0); {what} not determined")
    return children


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CanonicalForm:
    key: str
    tree: Tree  # all lengths symbolic, vertices renamed v0, v1, ...
    edge_map: tuple[int, ...] = ()  # original edge index -> canonical index


def canonicalize(t: Tree) -> CanonicalForm:
    """Deterministic canonical labeling of a tree shape.

    Rooted at the attachment vertex of the minimal leg label; subtrees are
    ordered by their signature, so leg-label-preserving isomorphic trees
    get identical keys and canonical coordinate orders.  Vertices and edges
    are numbered in preorder, each edge oriented parent -> child.  A graph
    that ``checked_walk`` refuses is a ParseError.  The result's vertex
    names, edges and legs are shared with other canonical trees.
    """
    root = t.root
    children = checked_walk(t, root, "the canonical form is")
    legs_at: dict[VertexId, list[int]] = {v: [] for v in t.vertices}
    for l in t.legs:
        legs_at[l.at].append(l.label)

    sig: dict[VertexId, str] = {}
    for v, kids in reversed(children.items()):
        if len(kids) > 1:
            kids.sort(key=lambda wi: sig[wi[0]])
        own = legs_at[v]
        own.sort()
        sig[v] = f"({','.join(map(str, own))};{''.join([sig[w] for w, _ in kids])})"

    names = _vertex_names(len(t.vertices))
    vertex_map: dict[VertexId, str] = {}
    edge_map = [0] * len(t.edges)  # checked_walk: the walk crosses every edge once
    canon_edges: list[Edge] = []
    stack: list[tuple[VertexId, VertexId | None, int | None]] = [(root, None, None)]
    while stack:
        v, parent, via = stack.pop()
        name = vertex_map[v] = names[len(vertex_map)]
        if via is not None:
            edge_map[via] = len(canon_edges)
            canon_edges.append(_edge(vertex_map[parent], name))
        for w, i in reversed(children[v]):
            stack.append((w, v, i))
    canon_tree = Tree(
        names,
        tuple(canon_edges),
        tuple(sorted([_leg(l.label, vertex_map[l.at]) for l in t.legs], key=attrgetter("label"))),
    )
    return CanonicalForm(key=sig[root], tree=canon_tree, edge_map=tuple(edge_map))


@dataclass(frozen=True, slots=True)
class CombinatorialType:
    """A tree shape (all lengths symbolic) in canonical form.

    ``facets[i]`` describes the type reached by contracting edge i of
    ``tree``: its key, and for each other edge of ``tree`` in index order,
    that edge's index in the contracted type's canonical tree.

    ``splits[j]`` is the split of canonical edge j: bit i - 1 is set when
    leg i lies beyond the edge, seen from the root v0.  Edge j is read
    parent -> child, so the legs of its split are those beyond the child.
    """

    tree: Tree
    key: str
    facets: tuple[tuple[str, tuple[int, ...]], ...]
    splits: tuple[int, ...]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def contract_edge(t: Tree, edge_index: int) -> Tree:
    """Contract one bounded edge, merging its endpoints.

    The surviving vertex is the first endpoint; legs re-attach and all
    other lengths are unchanged.
    """
    if not 0 <= edge_index < len(t.edges):
        raise NoSuchEdge(f"no edge with index {edge_index}")
    keep, drop = t.edges[edge_index].ends

    def repl(v: VertexId) -> VertexId:
        return keep if v == drop else v

    vertices = tuple(v for v in t.vertices if v != drop)
    edges = tuple(
        Edge((repl(e.ends[0]), repl(e.ends[1])), e.length)
        for i, e in enumerate(t.edges)
        if i != edge_index
    )
    legs = tuple(Leg(l.label, repl(l.at)) for l in t.legs)
    return Tree(vertices, edges, legs)


def _split_sets(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every set of pairwise compatible splits of n legs, depth first, with
    the vertex that each split's edge hangs from.

    Bit i - 1 of a split stands for leg i; a split holds the legs on the
    side of its edge away from leg 1, so it never holds leg 1.  Each set is
    in decreasing order, so a split comes after every split that contains
    it.  Vertex 0 carries leg 1 and vertex j + 1 is the far end of the
    j-th split; a split's parent is the far end of the innermost chosen
    split that contains it, or vertex 0.
    """
    splits = [s for s in range((1 << n) - 2, 0, -2) if 2 <= s.bit_count() <= n - 2]
    sets: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    _grow(sets, (), (), [(s, 0) for s in splits])
    return sets


def _grow(sets: list, chosen: tuple[int, ...], parents: tuple[int, ...], candidates: list[tuple[int, int]]) -> None:
    """Append ``(chosen, parents)`` and, depth first, each extension by a
    ``(split, parent)`` candidate.  Candidates are smaller than every chosen
    split, so compatible means disjoint from it or contained in it."""
    sets.append((chosen, parents))
    vertex = len(chosen) + 1
    for i, (s, parent) in enumerate(candidates):
        compatible = [(t, vertex if s & t else p) for t, p in candidates[i + 1 :] if s & t in (0, t)]
        _grow(sets, chosen + (s,), parents + (parent,), compatible)


def _split_tree(n: int, splits: tuple[int, ...], parents: tuple[int, ...]) -> Tree:
    """The stable tree whose bounded edges are the given compatible splits,
    with ``splits`` and ``parents`` as ``_split_sets`` lists them: edge j
    joins ``parents[j]`` to vertex j + 1, and each leg sits at the far end
    of the innermost split that holds it, or at vertex 0.
    """
    own = [(1 << n) - 1, *splits]  # the legs at each vertex, once its children's are removed
    for s, parent in zip(splits, parents):
        own[parent] &= ~s
    home = [0] * n
    for v, legs in enumerate(own):
        while legs:
            low = legs & -legs
            home[low.bit_length() - 1] = v
            legs ^= low
    return Tree(
        tuple(range(len(splits) + 1)),
        tuple([_edge(parent, j + 1) for j, parent in enumerate(parents)]),
        tuple([_leg(i + 1, v) for i, v in enumerate(home)]),
    )


def enumerate_tree_types(n: int) -> list[CombinatorialType]:
    """Isomorphism classes of stable trees with n labeled legs, sorted by key.

    Stable means every vertex has valence (edges + legs) >= 3.  Such a
    tree is determined by the splits of its bounded edges, and a set of
    splits comes from a tree exactly when they are pairwise compatible
    (Buneman 1971).  Every compatible set is listed depth first and its
    tree canonicalized once; its edge map puts the splits in canonical
    edge order, which is the order of ``CombinatorialType.splits``.
    Contracting an edge deletes its split, so each facet is the set minus
    one split, found by lookup.
    """
    if n < 3:
        raise UnstableRange(f"stable trees need n >= 3 legs, got {n}")
    forms = {}
    for chosen, parents in _split_sets(n):
        cf = canonicalize(_split_tree(n, chosen, parents))
        forms[chosen] = (cf, dict(zip(chosen, cf.edge_map)))
    types = []
    for chosen, (cf, index) in forms.items():
        splits = tuple(sorted(chosen, key=index.__getitem__))
        facets = []
        for s in splits:
            face, face_index = forms[tuple([t for t in chosen if t != s])]
            facets.append((face.key, tuple([face_index[t] for t in splits if t != s])))
        types.append(CombinatorialType(cf.tree, cf.key, tuple(facets), splits))
    return sorted(types, key=lambda ct: ct.key)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def tree_to_json(t: Tree) -> dict:
    return {
        "vertices": list(t.vertices),
        "edges": [_edge_json(e) for e in t.edges],
        "legs": [_leg_json(l) for l in t.legs],
    }


def _edge_json(e: Edge) -> dict:
    """One entry of a tree document's ``edges``."""
    return {"ends": list(e.ends), "length": None if e.length is None else fraction_str(e.length)}


def _leg_json(l: Leg) -> dict:
    """One entry of a tree document's ``legs``."""
    return {"label": l.label, "at": l.at}


def _json_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ParseError(f"{what} must be a JSON list, got {type(x).__name__}")
    return x


def _vertex_id(v) -> VertexId:
    """A JSON string or integer.  A bool or a float is refused: ``true``
    and ``1.0`` would both match the vertex ``1``."""
    if isinstance(v, bool) or not isinstance(v, (str, int)):
        raise ParseError(f"vertex ids must be strings or integers, got {type(v).__name__}")
    return v


def _edge_from_json(e) -> Edge:
    ends = _json_list(e["ends"], "an edge's ends")
    if len(ends) != 2:
        raise ParseError(f"an edge has 2 ends, got {len(ends)}")
    length = e.get("length")
    return Edge(
        (_vertex_id(ends[0]), _vertex_id(ends[1])),
        None if length is None else as_fraction(length),
    )


def tree_from_json(doc: dict) -> Tree:
    try:
        vertices = tuple(_vertex_id(v) for v in _json_list(doc["vertices"], "vertices"))
        edges = tuple(_edge_from_json(e) for e in _json_list(doc["edges"], "edges"))
        legs = tuple(
            Leg(as_integer(l["label"], "leg label"), _vertex_id(l["at"]))
            for l in _json_list(doc["legs"], "legs")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed tree document: missing/bad field {exc}") from exc
    return Tree(vertices, edges, legs)
