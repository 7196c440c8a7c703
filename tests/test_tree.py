import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from troplog import (
    Tree,
    canonicalize,
    contract_edge,
    enumerate_tree_types,
    tree_from_json,
    tree_to_json,
    validate_tree,
)
from troplog.errors import NoSuchEdge, UnstableRange

from oracles import (
    contraction_tree_types,
    count_stable_by_splits,
    count_trivalent_by_splits,
    random_tree,
)


def star(n):
    return Tree.build(["v"], [], [(i + 1, "v") for i in range(n)])


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
            got = [(ct.key, ct.tree, ct.facets) for ct in enumerate_tree_types(n)]
            assert got == [(ct.key, ct.tree, ct.facets) for ct in contraction_tree_types(n)]

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
        names = list(t.vertices)
        shuffled = list(names)
        rnd.shuffle(shuffled)
        mapping = dict(zip(names, shuffled))
        t2 = Tree.build(
            [mapping[v] for v in t.vertices],
            [(mapping[e.ends[0]], mapping[e.ends[1]], e.length) for e in t.edges],
            [(l.label, mapping[l.at]) for l in t.legs],
        )
        assert canonicalize(t).key == canonicalize(t2).key

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


def test_json_roundtrip():
    t = Tree.build(
        ["a", "b"], [("a", "b", "3/2")], [(1, "a"), (2, "a"), (3, "b")]
    )
    doc = tree_to_json(t)
    assert doc["edges"][0]["length"] == "3/2"
    assert tree_from_json(doc) == t
    symbolic = Tree.build(["a", "b"], [("a", "b", None)], [(1, "a"), (2, "b")])
    assert tree_from_json(tree_to_json(symbolic)) == symbolic
