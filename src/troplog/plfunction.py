"""Integer-sloped piecewise-linear functions on trees.

The core construction is ``extend_from_leg_slopes``: given outgoing slopes
on the legs summing to zero, there is a unique balanced function with a
prescribed value at a basepoint.  The slope on an internal edge is the sum
of the leg slopes on the far side of the edge (the cut rule), summed over
one depth-first walk of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .affine import AffineExpr, Rat, as_integer
from .errors import LengthMismatch, NonZeroSum, NoSuchLeg, ParseError
from .tree import Edge, Tree, VertexId, _vertex_id, check_incidence, checked_walk, tree_from_json, tree_to_json


@dataclass(frozen=True, slots=True)
class ContactOrder:
    """Vector of outgoing integer slopes on the n labeled legs."""

    slopes: tuple[int, ...]

    def __post_init__(self):
        # Builds are cached by contact order, and 1.0 == 1 == True: a slope
        # that is not an int is a ParseError, not truncated.
        for s in self.slopes:
            as_integer(s, "leg slope")

    @staticmethod
    def of(values) -> "ContactOrder":
        """The contact order with the given slopes, from any iterable."""
        return ContactOrder(tuple(values))

    @property
    def n(self) -> int:
        return len(self.slopes)

    @property
    def total(self) -> int:
        return sum(self.slopes)

    @property
    def is_balanced(self) -> bool:
        """Membership in the zero-sum subgroup of Z^n."""
        return self.total == 0

    def __add__(self, other: "ContactOrder") -> "ContactOrder":
        if self.n != other.n:
            raise LengthMismatch("cannot add contact orders of different lengths")
        return ContactOrder(tuple(a + b for a, b in zip(self.slopes, other.slopes)))


@dataclass(frozen=True, slots=True)
class Multidegree:
    degrees: tuple[tuple[VertexId, int], ...]

    def degree(self, v: VertexId) -> int:
        return dict(self.degrees)[v]

    @property
    def total(self) -> int:
        return sum(d for _, d in self.degrees)

    @property
    def is_zero(self) -> bool:
        return all(d == 0 for _, d in self.degrees)


@dataclass(frozen=True, slots=True)
class PLFunction:
    """A PL function stored as a basepoint value plus directed slopes.

    ``edge_slopes[i]`` is the slope along ``tree.edges[i].ends`` read
    first-to-second; the reverse direction is its negation.  ``leg_slopes``
    are outgoing toward infinity and are indexed by leg label order.
    """

    tree: Tree
    basepoint: VertexId
    base_value: AffineExpr
    edge_slopes: tuple[int, ...]
    leg_slopes: tuple[int, ...]

    def __post_init__(self):
        if len(self.edge_slopes) != len(self.tree.edges):
            raise LengthMismatch("one slope per edge required")
        if len(self.leg_slopes) != len(self.tree.legs):
            raise LengthMismatch("one slope per leg required")
        if self.basepoint not in self.tree.vertices:
            raise ParseError(f"basepoint {self.basepoint!r} is not a vertex")
        if len({l.label for l in self.tree.legs}) < len(self.tree.legs):
            _check_labels(self.tree)

    def slope(self, v: VertexId, w: VertexId, edge_index: int) -> int:
        a, b = self.tree.edges[edge_index].ends
        if (v, w) == (a, b):
            return self.edge_slopes[edge_index]
        if (v, w) == (b, a):
            return -self.edge_slopes[edge_index]
        raise ParseError(f"edge {edge_index} does not join {v!r} and {w!r}")

    def leg_slope(self, label: int) -> int:
        position = self.tree.leg_positions
        if label not in position:
            raise NoSuchLeg(f"no leg labeled {label}")
        return self.leg_slopes[position[label]]

    @property
    def contact_order(self) -> ContactOrder:
        """Outgoing slopes on the legs, in label order."""
        return ContactOrder(self.leg_slopes)

    def __add__(self, other: "PLFunction") -> "PLFunction":
        if self.tree != other.tree or self.basepoint != other.basepoint:
            raise LengthMismatch("can only add functions on the same tree and basepoint")
        return PLFunction(
            self.tree,
            self.basepoint,
            self.base_value + other.base_value,
            tuple(a + b for a, b in zip(self.edge_slopes, other.edge_slopes)),
            tuple(a + b for a, b in zip(self.leg_slopes, other.leg_slopes)),
        )


def vertex_values(f: PLFunction) -> dict[VertexId, AffineExpr]:
    """Propagate the basepoint value along the tree: value(w) = value(v) +
    slope * length.  A graph that ``checked_walk`` refuses is a ParseError."""
    t = f.tree
    values: dict[VertexId, AffineExpr] = {f.basepoint: f.base_value}
    for v, kids in checked_walk(t, f.basepoint, "vertex values are").items():
        for w, i in kids:
            length = t.edges[i].length
            step = (
                AffineExpr.symbol(t.length_symbol(i))
                if length is None
                else AffineExpr.constant(length)
            )
            values[w] = values[v] + step * f.slope(v, w, i)
    return values


def multidegree(f: PLFunction) -> Multidegree:
    """Per-vertex sum of outgoing slopes over incident edges and legs."""
    t = f.tree
    deg = {v: 0 for v in t.vertices}
    for i, e in enumerate(t.edges):
        a, b = e.ends
        deg[a] += f.edge_slopes[i]
        deg[b] -= f.edge_slopes[i]
    position = t.leg_positions
    for l in t.legs:
        deg[l.at] += f.leg_slopes[position[l.label]]
    return Multidegree(tuple((v, deg[v]) for v in t.vertices))


def is_balanced(f: PLFunction) -> bool:
    return multidegree(f).is_zero


def _check_labels(t: Tree) -> None:
    """A repeated leg label is a ParseError: slopes are read per label, so
    the legs that share one would share a slope."""
    labels = t.leg_labels
    for a, b in zip(labels, labels[1:]):
        if a == b:
            raise ParseError(f"leg label {a} is repeated")


def extend_from_leg_slopes(
    t: Tree,
    sigma: ContactOrder,
    basepoint: VertexId | None = None,
    base_value: AffineExpr | Rat = 0,
) -> PLFunction:
    """The unique balanced PL function with leg slopes ``sigma`` and the
    given basepoint value.

    Exists iff the slopes sum to zero; the slope directed v -> w is the sum
    of the leg slopes in the component of w after cutting the edge.  A
    graph that is disconnected or has a cycle, an edge or leg at an unknown
    vertex, or a repeated leg label, is a ParseError.
    """
    _check_labels(t)
    if sigma.n != t.n_legs:
        raise LengthMismatch(f"{sigma.n} slopes for a tree with {t.n_legs} legs")
    if not sigma.is_balanced:
        raise NonZeroSum(f"leg slopes sum to {sigma.total}, not 0")
    if basepoint is None:
        basepoint = t.root
    elif basepoint not in t.vertices:
        raise ParseError(f"basepoint {basepoint!r} is not a vertex")

    # The cut rule needs a tree.
    walk = checked_walk(t, basepoint, "the edge slopes are")
    position = t.leg_positions
    subtree = {v: 0 for v in t.vertices}  # leg slopes at v, then in v's subtree
    for l in t.legs:
        subtree[l.at] += sigma.slopes[position[l.label]]
    edge_slope = [0] * len(t.edges)
    for parent, kids in reversed(walk.items()):
        for v, via in kids:
            subtree[parent] += subtree[v]
            # Slope directed parent -> v is the leg sum beyond v.
            edge_slope[via] = subtree[v] if t.edges[via].ends[0] == parent else -subtree[v]

    if not isinstance(base_value, AffineExpr):
        base_value = AffineExpr.constant(base_value)
    return PLFunction(t, basepoint, base_value, tuple(edge_slope), tuple(sigma.slopes))


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def plfunction_to_json(f: PLFunction) -> dict:
    doc = tree_to_json(f.tree)
    doc.update(
        {
            "basepoint": f.basepoint,
            "base_value": f.base_value.to_json(),
            "edge_slopes": [_edge_slope_json(e, s) for e, s in zip(f.tree.edges, f.edge_slopes)],
            "leg_slopes": _leg_slopes_json(f.tree.leg_labels, f.leg_slopes),
        }
    )
    return doc


def _edge_slope_json(e: Edge, slope: int) -> dict:
    """One entry of a PL function document's ``edge_slopes``."""
    return {"from": e.ends[0], "to": e.ends[1], "slope": slope}


def _leg_slopes_json(labels: tuple[int, ...], slopes: tuple[int, ...]) -> dict:
    """A PL function document's ``leg_slopes``: each sorted leg label, as a
    string, to its slope."""
    return {str(lbl): s for lbl, s in zip(labels, slopes)}


def plfunction_from_json(doc: dict) -> PLFunction:
    """The PL function of a document.  Its slope records match its edges
    one to one, a record read in either direction and parallel edges
    taking their records in order: an edge without a record, a second
    record for an edge, a record that joins no edge and a leg slope for a
    label that has no leg are ParseErrors."""
    t = tree_from_json(doc)
    check_incidence(t)
    _check_labels(t)
    try:
        # Vertex ids are checked as the tree's are: ``true`` and ``1.0``
        # would both match the vertex ``1``.
        basepoint = _vertex_id(doc["basepoint"])
        base_value = AffineExpr.parse(str(doc["base_value"]))
        records: dict[frozenset, list[tuple[VertexId, VertexId, int]]] = {}  # by the pair of ends
        for rec in doc["edge_slopes"]:
            a, b = _vertex_id(rec["from"]), _vertex_id(rec["to"])
            records.setdefault(frozenset((a, b)), []).append((a, b, as_integer(rec["slope"], "slope")))
        edge_slopes = []
        for e in t.edges:
            a, b = e.ends
            pending = records.get(frozenset(e.ends))
            if not pending:
                raise ParseError(f"missing slope for edge {a!r}-{b!r}")
            start, _, slope = pending.pop(0)
            edge_slopes.append(slope if start == a else -slope)
        edges = {frozenset(e.ends) for e in t.edges}
        for pair, left in records.items():
            if left:
                a, b, _ = left[0]
                raise ParseError(
                    f"edge {a!r}-{b!r} has more than one slope record"
                    if pair in edges
                    else f"slope record {a!r}->{b!r} joins no edge"
                )
        leg_slopes = [as_integer(doc["leg_slopes"][str(lbl)], "slope") for lbl in t.leg_labels]
        if unknown := sorted(set(doc["leg_slopes"]) - {str(lbl) for lbl in t.leg_labels}):
            raise ParseError(f"leg_slopes names label {unknown[0]!r}, which has no leg")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed PL function document: {exc}") from exc
    return PLFunction(t, basepoint, base_value, tuple(edge_slopes), tuple(leg_slopes))
