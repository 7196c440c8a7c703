import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from troplog import (
    AffineExpr,
    ContactOrder,
    PLFunction,
    Tree,
    canonicalize,
    contract_edge,
    enumerate_tree_types,
    extend_from_leg_slopes,
    is_balanced,
    tree_from_json,
    tree_to_json,
    validate_tree,
    vertex_values,
)
from troplog.errors import NoSuchEdge, NoSuchLeg, ParseError, UnstableRange
from troplog.tree import _edge, _leg, _split_sets, _split_tree, _vertex_names

from oracles import (
    _insert_leg,
    contraction_tree_types,
    count_stable_by_splits,
    count_trivalent_by_splits,
    home_scan_split_tree,
    random_stable_tree,
    random_tree,
    recursive_canonicalize,
)


def star(n):
    return Tree.build(["v"], [], [(i + 1, "v") for i in range(n)])


def shuffled(rng, t):
    """``t`` with new vertex names, and its vertices, edges, edge ends and
    legs in random order."""
    name = {v: f"x{k}" for v, k in zip(t.vertices, rng.sample(range(10**6), len(t.vertices)))}
    vertices = [name[v] for v in t.vertices]
    edges = [(name[a], name[b], e.length) for e in t.edges for a, b in [e.ends[:: rng.choice((1, -1))]]]
    legs = [(l.label, name[l.at]) for l in t.legs]
    for xs in (vertices, edges, legs):
        rng.shuffle(xs)
    return Tree.build(vertices, edges, legs)


def caterpillar(k):
    """The stable tree on a path of k vertices: two legs at each end, one
    at every inner vertex, leg 1 at vertex 0."""
    legs = [(1, 0), (2, 0)] + [(v + 2, v) for v in range(1, k)] + [(k + 2, k - 1)]
    return Tree.build(list(range(k)), [(v, v + 1) for v in range(k - 1)], legs, lengths=1)


class TestValidate:
    def test_smallest_stable_tree(self):
        assert validate_tree(star(3)).ok

    def test_negative_length(self):
        t = Tree.build(["a", "b"], [("a", "b", -1)], [(1, "a"), (2, "b")])
        report = validate_tree(t)
        assert not report.ok
        assert any("negative" in p for p in report.problems)

    def test_cycle(self):
        t = Tree.build(
            ["a", "b", "c"],
            [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)],
            [(1, "a"), (2, "b"), (3, "c")],
        )
        assert any("cycle" in p for p in validate_tree(t).problems)

    def test_zero_length_rejected(self):
        t = Tree.build(["a", "b"], [("a", "b", 0)], [(1, "a"), (2, "b")])
        assert any("length 0" in p for p in validate_tree(t).problems)

    def test_bad_leg_labels(self):
        t = Tree.build(["a"], [], [(1, "a"), (3, "a")])
        assert any("leg labels" in p for p in validate_tree(t).problems)

    def test_disconnected(self):
        t = Tree.build(["a", "b"], [], [(1, "a"), (2, "b")])
        assert any("disconnected" in p for p in validate_tree(t).problems)


class TestEnumerate:
    def test_n3_single_star(self):
        types = enumerate_tree_types(3)
        assert len(types) == 1
        assert types[0].tree.n_legs == 3

    def test_n4_count(self):
        # 1 star + 3 one-edge trees, cross-checked by split enumeration.
        types = enumerate_tree_types(4)
        assert len(types) == 4
        assert len(types) == count_stable_by_splits(4)

    def test_trivalent_double_factorial(self):
        for n, expected in [(3, 1), (4, 3), (5, 15), (6, 105)]:
            got = sum(len(ct.tree.edges) == n - 3 for ct in enumerate_tree_types(n))
            assert got == expected
            assert got == count_trivalent_by_splits(n)

    def test_matches_contraction_enumeration(self):
        for n in range(3, 8):
            got = [(ct.key, ct.tree, ct.facets, ct.splits) for ct in enumerate_tree_types(n)]
            assert got == [(ct.key, ct.tree, ct.facets, ct.splits) for ct in contraction_tree_types(n)]

    def test_split_trees_match_home_scan_oracle(self):
        for n in range(3, 8):
            sets = _split_sets(n)
            assert len(sets) == len(enumerate_tree_types(n))
            for splits, parents in sets:
                assert _split_tree(n, splits, parents) == home_scan_split_tree(n, splits)

    def test_split_sets_leave_no_cyclic_garbage(self, cyclic_garbage):
        # Every split set is freed by reference counting once dropped.
        assert len(_split_sets(7)) == 2752
        assert cyclic_garbage() == []

    def test_closed_form_counts(self):
        # Cones: A000311(n - 1).  Rays: the splits, 2^(n-1) - n - 1.
        for n, cones in [(3, 1), (4, 4), (5, 26), (6, 236), (7, 2752)]:
            types = enumerate_tree_types(n)
            assert len(types) == cones
            assert sum(len(ct.tree.edges) == 1 for ct in types) == 2 ** (n - 1) - n - 1

    def test_unstable_range(self):
        with pytest.raises(UnstableRange):
            enumerate_tree_types(2)

    def test_outputs_valid_and_distinct(self):
        types = enumerate_tree_types(5)
        keys = [ct.key for ct in types]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)
        for ct in types:
            assert validate_tree(ct.tree).ok
            assert ct.tree.leg_labels == (1, 2, 3, 4, 5)
            assert all(ct.tree.valence(v) >= 3 for v in ct.tree.vertices)


def test_root_without_legs_is_the_first_vertex():
    assert Tree.build(["b", "a"], [("b", "a", 1)], []).root == "b"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: star(3).leg(9), NoSuchLeg, "no leg labeled 9"),
        (lambda: star(3).with_lengths([1]), ParseError, "wrong number of edge lengths"),
    ],
    ids=["leg", "with-lengths"],
)
def test_tree_lookups_refuse(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestContract:
    def test_forced_single_vertex(self):
        t = Tree.build(["a", "b"], [("a", "b", 1)], [(1, "a"), (2, "b"), (3, "b")])
        c = contract_edge(t, 0)
        assert len(c.vertices) == 1 and not c.edges
        assert c.leg_labels == (1, 2, 3)

    def test_path_middle(self):
        t = Tree.build(
            ["a", "b", "c"],
            [("a", "b", 1), ("b", "c", 2)],
            [(1, "a"), (2, "a"), (3, "c"), (4, "c")],
        )
        c = contract_edge(t, 0)
        assert len(c.edges) == 1
        assert validate_tree(c).ok
        assert c.edges[0].length == 2

    def test_no_such_edge(self):
        with pytest.raises(NoSuchEdge):
            contract_edge(star(3), 0)

    def test_contract_preserves_validity(self):
        rng = random.Random(7)
        for _ in range(50):
            t = random_tree(rng, 5)
            if not t.edges:
                continue
            c = contract_edge(t, rng.randrange(len(t.edges)))
            assert validate_tree(c).ok
            assert len(c.edges) == len(t.edges) - 1
            assert c.leg_labels == t.leg_labels


class TestCanonical:
    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_key_invariant_under_relabeling(self, rnd):
        t = random_tree(random.Random(rnd.randint(0, 10**9)), 6)
        assert canonicalize(t).key == canonicalize(shuffled(rnd, t)).key

    def test_distinct_types_distinct_keys(self):
        a = Tree.build([0, 1], [(0, 1)], [(1, 0), (2, 0), (3, 1), (4, 1)])
        b = Tree.build([0, 1], [(0, 1)], [(1, 0), (3, 0), (2, 1), (4, 1)])
        assert canonicalize(a).key != canonicalize(b).key

    def test_edge_map_consistent(self):
        t = Tree.build(
            ["x", "y", "z"],
            [("y", "x", None), ("y", "z", None)],
            [(1, "x"), (2, "x"), (3, "z"), (4, "z"), (5, "y")],
        )
        cf = canonicalize(t)
        assert sorted(cf.edge_map) == [0, 1]
        assert len(cf.tree.edges) == 2

    def test_matches_recursive_oracle_on_random_trees(self):
        rng = random.Random(13)
        for n in range(3, 10):
            for _ in range(20):
                t = random_tree(rng, n) if rng.random() < 0.5 else random_stable_tree(rng, n, concrete=False)
                for u in (t, shuffled(rng, t)):
                    assert canonicalize(u) == recursive_canonicalize(u), u

    def test_matches_recursive_oracle_on_leg_insertions(self):
        # Every trivalent shape that leg insertion reaches for n <= 7.
        layer = [(1, [], [(1, 0), (2, 0), (3, 0)])]
        states = list(layer)
        for label in range(4, 8):
            layer = [s2 for s in layer for s2 in _insert_leg(s, label)]
            states += layer
        for k, edges, legs in states:
            t = Tree.build(list(range(k)), edges, legs)
            assert canonicalize(t) == recursive_canonicalize(t), t

    def test_cycle_is_a_parse_error(self):
        t = Tree.build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], [(1, "a"), (2, "b"), (3, "c")])
        with pytest.raises(ParseError, match="graph contains a cycle"):
            canonicalize(t)

    def test_disconnected_is_a_parse_error(self):
        t = Tree.build(["a", "b"], [], [(1, "a"), (2, "b")])
        with pytest.raises(ParseError, match="tree is disconnected"):
            canonicalize(t)

    def test_empty_tree_is_a_parse_error(self):
        empty = Tree((), (), ())
        with pytest.raises(ParseError, match="tree has no vertices"):
            canonicalize(empty)
        with pytest.raises(ParseError, match="tree has no vertices"):
            extend_from_leg_slopes(empty, ContactOrder(()))

    @pytest.mark.parametrize(
        "t, message",
        [
            # An edge and then a leg at an unknown vertex; leg 1's vertex,
            # the root, is unknown too.
            (
                Tree.build(["a", "b"], [("a", "b"), ("b", "zz")], [(1, "yy"), (2, "a"), (3, "a")]),
                "edge 1 has an endpoint not in the vertex set",
            ),
            (
                Tree.build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], [(1, "zz"), (2, "b"), (3, "c")]),
                "leg 1 attached to unknown vertex 'zz'",
            ),
            (
                Tree.build(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "a"), ("a", "b")], [(1, "a"), (2, "b"), (3, "d")]),
                "tree is disconnected",
            ),
        ],
        ids=["edge-before-leg", "leg-before-cycle", "disconnected-before-cycle"],
    )
    def test_first_fault_is_named(self, t, message):
        # A graph with two faults names the one found first: an edge's end,
        # then a leg's vertex, then the disconnection, then the cycle.  Every
        # walk of a caller's graph refuses it the same way.
        f = PLFunction(t, "a", AffineExpr.constant(0), (0,) * len(t.edges), (1, 1, -2))
        for call in (lambda: canonicalize(t), lambda: extend_from_leg_slopes(t, f.contact_order), lambda: vertex_values(f)):
            with pytest.raises(ParseError) as info:
                call()
            assert str(info.value).startswith(message)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_matches_recursive_oracle_on_split_trees(self, n):
        for chosen, parents in _split_sets(n):
            t = _split_tree(n, chosen, parents)
            assert canonicalize(t) == recursive_canonicalize(t), t

    def test_intern_tables_stay_bounded(self):
        # Trees of 150 legs name thousands of distinct legs, far more than
        # the moduli builds do; the tables keep to their fixed bounds, and
        # the forms built from them still equal the oracle's.
        rng = random.Random(31)
        for _ in range(30):
            t = random_stable_tree(rng, 150, concrete=False)
            assert canonicalize(t) == recursive_canonicalize(t)
            for table in (_edge, _leg, _vertex_names):
                info = table.cache_info()
                assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_deep_caterpillar(self):
        # A path of 1 500 vertices is deeper than Python's recursion limit.
        t = caterpillar(1500)
        assert validate_tree(t).ok
        relabeled = shuffled(random.Random(5), t)
        assert canonicalize(relabeled).key == canonicalize(t).key
        f = extend_from_leg_slopes(relabeled, ContactOrder.of([(-1) ** i for i in range(t.n_legs)]))
        assert is_balanced(f)
        assert set(vertex_values(f)) == set(relabeled.vertices)


def test_json_roundtrip():
    t = Tree.build(
        ["a", "b"], [("a", "b", "3/2")], [(1, "a"), (2, "a"), (3, "b")]
    )
    doc = tree_to_json(t)
    assert doc["edges"][0]["length"] == "3/2"
    assert tree_from_json(doc) == t
    symbolic = Tree.build(["a", "b"], [("a", "b", None)], [(1, "a"), (2, "b")])
    assert tree_from_json(tree_to_json(symbolic)) == symbolic
