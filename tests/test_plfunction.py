import itertools
import random
import re
from fractions import Fraction

import pytest

from troplog import (
    AffineExpr,
    ContactOrder,
    Tree,
    build_map_moduli,
    canonicalize,
    extend_from_leg_slopes,
    is_balanced,
    multidegree,
    plfunction_from_json,
    plfunction_to_json,
    vertex_values,
)
from troplog.errors import LengthMismatch, NonZeroSum, NoSuchLeg, ParseError
from troplog.plfunction import PLFunction

from oracles import index_multidegree, random_tree, random_zero_sum, solve_balancing_system


def star(n):
    return Tree.build(["v"], [], [(i + 1, "v") for i in range(n)])


def path3(length=3):
    return Tree.build(
        ["v1", "v2"], [("v1", "v2", length)], [(1, "v1"), (2, "v1"), (3, "v2")]
    )


class TestVertexValues:
    def test_star_constant(self):
        f = extend_from_leg_slopes(star(3), ContactOrder.of([1, -1, 0]), "v", 5)
        assert vertex_values(f) == {"v": AffineExpr.constant(5)}

    def test_path_concrete(self):
        # value(w) = value(v) + slope * length
        f = PLFunction(path3(), "v1", AffineExpr.constant(0), (2,), (0, -2, 2))
        assert vertex_values(f)["v2"] == AffineExpr.constant(6)

    def test_path_symbolic(self):
        t = Tree.build(["v1", "v2"], [("v1", "v2", None)], [(1, "v1"), (2, "v1"), (3, "v2")])
        f = PLFunction(t, "v1", AffineExpr.symbol("c"), (2,), (0, -2, 2))
        assert vertex_values(f)["v2"] == AffineExpr.symbol("c") + AffineExpr.symbol("l_e0") * 2

    def test_cycle_is_a_parse_error(self):
        # The walk would read the triangle's b -> c edge as closing a cycle
        # and take c = -5 from a, where b -> c gives 2.
        t = Tree.build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], [(1, "a"), (2, "b"), (3, "c")], 1)
        f = PLFunction(t, "a", AffineExpr.constant(0), (1, 1, 5), (0, 0, 0))
        with pytest.raises(ParseError, match="graph contains a cycle"):
            vertex_values(f)


@pytest.mark.parametrize(
    "t, message",
    [
        (Tree.build(["a", "b"], [("a", "b"), ("b", "zz")], [(1, "a"), (2, "a"), (3, "b")]), "edge 1 has an endpoint not in the vertex set"),
        (Tree.build(["a", "b"], [("a", "b")], [(1, "a"), (2, "a"), (3, "zz")]), "leg 3 attached to unknown vertex 'zz'"),
    ],
    ids=["edge", "leg"],
)
def test_unknown_vertex_is_a_parse_error(t, message):
    # Each walk of a caller's graph checks incidence first, so the vertex
    # that no walk can reach is named, not a bare KeyError.
    f = PLFunction(t, "a", AffineExpr.constant(0), (0,) * len(t.edges), (1, 1, -2))
    for call in (lambda: canonicalize(t), lambda: extend_from_leg_slopes(t, f.contact_order), lambda: vertex_values(f)):
        with pytest.raises(ParseError, match=message):
            call()


class TestMultidegree:
    def test_zero_function(self):
        f = PLFunction(path3(), "v1", AffineExpr.constant(0), (0,), (0, 0, 0))
        md = multidegree(f)
        assert md.is_zero and md.total == 0

    def test_star_summation(self):
        f = PLFunction(star(3), "v", AffineExpr.constant(0), (), (2, -1, -1))
        assert multidegree(f).degree("v") == 0

    def test_path_summation(self):
        f = PLFunction(path3(), "v1", AffineExpr.constant(0), (-1,), (2, -1, -1))
        md = multidegree(f)
        assert md.degree("v1") == 0 and md.degree("v2") == 0

    def test_total_equals_leg_sum(self):
        rng = random.Random(3)
        for _ in range(100):
            t = random_tree(rng, 5)
            f = PLFunction(
                t,
                t.vertices[0],
                AffineExpr.constant(0),
                tuple(rng.randint(-4, 4) for _ in t.edges),
                tuple(rng.randint(-4, 4) for _ in t.legs),
            )
            assert multidegree(f).total == sum(f.leg_slopes)


class TestBalanced:
    def test_zero_function(self):
        assert is_balanced(PLFunction(path3(), "v1", AffineExpr.constant(0), (0,), (0, 0, 0)))

    def test_path_balanced(self):
        assert is_balanced(PLFunction(path3(), "v1", AffineExpr.constant(0), (-1,), (2, -1, -1)))

    def test_nonzero_sum_unbalanced(self):
        assert not is_balanced(PLFunction(star(3), "v", AffineExpr.constant(0), (), (1, 0, 0)))

    def test_agrees_with_multidegree(self):
        rng = random.Random(11)
        for _ in range(200):
            t = random_tree(rng, 4)
            f = PLFunction(
                t,
                t.vertices[0],
                AffineExpr.constant(0),
                tuple(rng.randint(-3, 3) for _ in t.edges),
                tuple(rng.randint(-3, 3) for _ in t.legs),
            )
            assert is_balanced(f) == multidegree(f).is_zero


class TestContactOrder:
    @pytest.mark.parametrize("bad", [0.5, -0.5, 1.9, 2.0, True, "1", Fraction(1)])
    def test_non_integer_slope_parse_error(self, bad):
        # Truncation would read [0.5, -0.5, 1.9] as (0, 0, 1).
        with pytest.raises(ParseError):
            ContactOrder.of([bad, 0, -1])

    @pytest.mark.parametrize("bad", [1.0, True, "1", Fraction(1)])
    def test_constructor_refuses_non_integers(self, bad):
        # Map builds are cached by contact order, and 1.0 == 1 == True ==
        # Fraction(1): a build from an equal slope of another type would be
        # served to the integer contact order, and printed as it was given.
        with pytest.raises(ParseError, match=re.escape(f"leg slope {bad!r} is not an integer")):
            build_map_moduli(4, ContactOrder((bad, 1, 1, -3)))
        doc = build_map_moduli(4, ContactOrder.of((1, 1, 1, -3))).to_json()
        slopes = [s for f in doc["functions"].values() for s in [*f["leg_slopes"].values(), *(e["slope"] for e in f["edge_slopes"])]]
        assert slopes and all(type(s) is int for s in slopes)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ContactOrder.of([1, -1]) + ContactOrder.of([1, 1, -2]),
         LengthMismatch, "cannot add contact orders of different lengths"),
        (lambda: extend_from_leg_slopes(path3(), ContactOrder.of([2, -1, -1])) + extend_from_leg_slopes(path3(4), ContactOrder.of([2, -1, -1])),
         LengthMismatch, "can only add functions on the same tree and basepoint"),
        (lambda: PLFunction(path3(), "v1", AffineExpr.constant(0), (), (2, -1, -1)),
         LengthMismatch, "one slope per edge required"),
        (lambda: PLFunction(path3(), "v1", AffineExpr.constant(0), (-1,), (2, -1)),
         LengthMismatch, "one slope per leg required"),
        (lambda: PLFunction(path3(), "zz", AffineExpr.constant(0), (-1,), (2, -1, -1)),
         ParseError, "basepoint 'zz' is not a vertex"),
        (lambda: extend_from_leg_slopes(path3(), ContactOrder.of([2, -1, -1])).slope("v1", "zz", 0),
         ParseError, "edge 0 does not join 'v1' and 'zz'"),
        (lambda: extend_from_leg_slopes(path3(), ContactOrder.of([2, -1, -1])).leg_slope(9),
         NoSuchLeg, "no leg labeled 9"),
    ],
    ids=["add-contact-orders", "add-functions", "edge-slope-count", "leg-slope-count", "basepoint", "slope-off-the-edge", "leg-slope-no-leg"],
)
def test_mismatched_parts_are_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


class TestExtend:
    def test_star_no_edges(self):
        f = extend_from_leg_slopes(star(2), ContactOrder.of([1, -1]), "v", 0)
        assert f.leg_slopes == (1, -1) and f.edge_slopes == ()
        assert is_balanced(f)

    def test_path_cut_rule(self):
        f = extend_from_leg_slopes(path3(), ContactOrder.of([2, -1, -1]), "v1", 0)
        # slope v1->v2 is the leg sum on the v2 side
        assert f.slope("v1", "v2", 0) == -1
        assert is_balanced(f)

    def test_nonzero_sum_rejected(self):
        with pytest.raises(NonZeroSum):
            extend_from_leg_slopes(path3(), ContactOrder.of([1, 1, -1]), "v1", 0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            extend_from_leg_slopes(path3(), ContactOrder.of([1, -1]), "v1", 0)

    def test_matches_linear_solver_oracle(self):
        rng = random.Random(42)
        for _ in range(100):
            t = random_tree(rng, rng.randint(3, 8))
            sigma = random_zero_sum(rng, t.n_legs)
            f = extend_from_leg_slopes(t, sigma)
            expected = solve_balancing_system(t, sigma)
            assert expected is not None
            assert list(f.edge_slopes) == expected

    def test_kernel_constancy(self):
        rng = random.Random(5)
        for _ in range(50):
            t = random_tree(rng, 4)
            f = extend_from_leg_slopes(t, ContactOrder.of([0, 0, 0, 0]), base_value=7)
            values = set(vertex_values(f).values())
            assert values == {AffineExpr.constant(7)}

    def test_additivity(self):
        rng = random.Random(9)
        for _ in range(50):
            t = random_tree(rng, 5)
            s1, s2 = random_zero_sum(rng, 5), random_zero_sum(rng, 5)
            bp = t.vertices[0]
            f = extend_from_leg_slopes(t, s1, bp, 2)
            g = extend_from_leg_slopes(t, s2, bp, Fraction(1, 3))
            h = extend_from_leg_slopes(t, s1 + s2, bp, 2 + Fraction(1, 3))
            assert f + g == h

    def test_antisymmetry_of_cut_rule(self):
        rng = random.Random(13)
        for _ in range(50):
            t = random_tree(rng, 6)
            f = extend_from_leg_slopes(t, random_zero_sum(rng, 6))
            for i, e in enumerate(t.edges):
                a, b = e.ends
                assert f.slope(a, b, i) == -f.slope(b, a, i)


def test_json_roundtrip():
    f = extend_from_leg_slopes(path3(), ContactOrder.of([2, -1, -1]), "v1", Fraction(1, 2))
    doc = plfunction_to_json(f)
    assert doc["base_value"] == "1/2"
    assert plfunction_from_json(doc) == f


def test_reversed_edge_slope_record():
    # A record that runs to -> from, with the slope negated, is the same slope.
    f = extend_from_leg_slopes(path3(), ContactOrder.of([2, -1, -1]), "v1", Fraction(1, 2))
    doc = plfunction_to_json(f)
    assert doc["edge_slopes"] == [{"from": "v1", "to": "v2", "slope": -1}]
    doc["edge_slopes"] = [{"from": "v2", "to": "v1", "slope": 1}]
    assert plfunction_from_json(doc) == f


@pytest.mark.parametrize(
    "change, message",
    [
        ({"edge_slopes": [{"from": "v1", "to": "v2", "slope": 2}, {"from": "v2", "to": "v1", "slope": 5}]},
         "edge 'v2'-'v1' has more than one slope record"),
        ({"edge_slopes": [{"from": "v1", "to": "v2", "slope": -1}, {"from": "v1", "to": "zz", "slope": 0}]},
         "slope record 'v1'->'zz' joins no edge"),
        ({"leg_slopes": {"1": 2, "2": -1, "3": -1, "5": 0}}, "leg_slopes names label '5', which has no leg"),
        ({"edges": [{"ends": ["v1", "v2"], "length": "3"}] * 2}, "missing slope for edge 'v1'-'v2'"),
    ],
    ids=["two-records-one-edge", "record-for-no-edge", "leg-slope-for-no-leg", "parallel-edges-one-record"],
)
def test_slope_records_match_edges_one_to_one(change, message):
    # Records are looked up by their pair of ends; without the one-to-one
    # check one of two disagreeing records, and a record or leg slope for
    # no edge or leg, would be dropped without a word.
    doc = plfunction_to_json(extend_from_leg_slopes(path3(), ContactOrder.of([2, -1, -1]), "v1", 0))
    with pytest.raises(ParseError, match=message):
        plfunction_from_json({**doc, **change})


def test_parallel_edges_take_their_records_in_order():
    # multidegree reads a graph that is not a tree; its records go to the
    # parallel edges in document order, each read in its own direction.
    doc = {
        "vertices": ["a", "b"],
        "edges": [{"ends": ["a", "b"], "length": "1"}, {"ends": ["b", "a"], "length": "1"}],
        "legs": [{"label": 1, "at": "a"}, {"label": 2, "at": "b"}],
        "basepoint": "a",
        "base_value": "0",
        "edge_slopes": [{"from": "a", "to": "b", "slope": 2}, {"from": "a", "to": "b", "slope": -1}],
        "leg_slopes": {"1": -1, "2": 1},
    }
    assert plfunction_from_json(doc).edge_slopes == (2, 1)


class TestLegLookups:
    """Each tree maps labels to positions once; the former code called
    ``labels.index`` once per leg, then sorted the labels on every call."""

    def test_large_caterpillar_matches_index_lookups(self):
        rng = random.Random(3)
        k = 3000
        labels = rng.sample(range(1, k + 3), k + 2)
        at = [0, 0] + list(range(1, k)) + [k - 1]
        legs = list(zip(labels, at))
        rng.shuffle(legs)
        t = Tree.build(list(range(k)), [(v, v + 1) for v in range(k - 1)], legs, lengths=1)
        sigma = random_zero_sum(rng, k + 2)
        f = extend_from_leg_slopes(t, sigma, 0, 0)

        sorted_labels = t.leg_labels
        at_vertex = [0] * k
        for l in t.legs:
            at_vertex[l.at] += sigma.slopes[sorted_labels.index(l.label)]
        beyond = list(itertools.accumulate(reversed(at_vertex[1:])))[::-1]  # edge v -> v + 1
        assert list(f.edge_slopes) == beyond
        assert multidegree(f) == index_multidegree(f)
        assert is_balanced(f)
        assert [f.leg_slope(label) for label in labels] == [
            f.leg_slopes[sorted_labels.index(label)] for label in labels
        ]

    def test_repeated_label_takes_its_first_position(self):
        # A repeated label keeps its first position in the sorted labels;
        # a function on such a tree would give its legs one slope, so
        # neither extend nor the JSON reader builds one.
        t = Tree.build(["a", "b"], [("a", "b")], [(1, "a"), (2, "a"), (3, "b"), (4, "b"), (1, "b")])
        assert t.leg_labels == (1, 1, 2, 3, 4)
        assert t.leg_positions == {1: 0, 2: 2, 3: 3, 4: 4}
        with pytest.raises(ParseError, match="leg label 1 is repeated"):
            extend_from_leg_slopes(t, ContactOrder.of([2, 0, -1, -1, 0]), "a", 0)
        doc = plfunction_to_json(extend_from_leg_slopes(path3(), ContactOrder.of([1, 1, -2]), "v1", 0))
        doc["legs"].append({"label": 1, "at": "v2"})
        with pytest.raises(ParseError, match="leg label 1 is repeated"):
            plfunction_from_json(doc)

    def test_direct_construction_refuses_a_repeated_label(self):
        # Built directly, a function on legs 1@a, 2@a, 3@b, 4@b, 1@b would
        # read the first slope of label 1 for both of its legs (degree 2 at
        # a); the constructor refuses it as extend does.
        t = Tree.build(["a", "b"], [("a", "b")], [(1, "a"), (2, "a"), (3, "b"), (4, "b"), (1, "b")])
        with pytest.raises(ParseError, match="leg label 1 is repeated"):
            PLFunction(t, "a", AffineExpr.constant(0), (1,), (2, 0, -1, -1, 0))
        distinct = Tree.build(["a", "b"], [("a", "b")], [(1, "a"), (2, "a"), (3, "b"), (4, "b"), (5, "b")])
        assert multidegree(PLFunction(distinct, "a", AffineExpr.constant(0), (-2,), (2, 0, -1, -1, 0))).is_zero
