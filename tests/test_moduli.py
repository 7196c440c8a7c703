import dataclasses
import json
import random
import re
import sys
from fractions import Fraction

import pytest

import troplog.moduli
from troplog import (
    AffineExpr,
    ConeComplex,
    ContactOrder,
    Fan,
    Tree,
    TropicalMapPoint,
    build_map_moduli,
    build_moduli_complex,
    classify_self_map,
    enumerate_tree_types,
    extend_from_leg_slopes,
    is_balanced,
    product_decomposition,
    splitting_at_leg,
    splitting_expr,
    stabilize,
    subdivide_map_moduli,
    vertex_values,
)
from troplog.errors import LengthMismatch, NonZeroSum, NoSuchLeg, ParseError, UnstableRange
from troplog.moduli import (
    TRANSLATION_COORD,
    Cone,
    Coord,
    IsomorphismReport,
    _curve_parts,
    _json_pieces,
    _lengths,
    _map_cones,
    _map_parts,
    _path_coefficients,
    _report_json,
    cone_functionals,
)
from troplog.subdivision import FanCone, SubdividedCell, SubdividedComplex
from troplog.subdivision import _json_pieces as subdivision_pieces
from troplog.tree import Edge, Leg, canonicalize, contract_edge

from oracles import (
    affine_product_decomposition,
    cone_complex_json,
    isomorphism_report_json,
    random_stable_tree,
    random_zero_sum,
    subdivided_complex_json,
    walk_path_coefficients,
)


def count_calls(monkeypatch, fn) -> list:
    """Count calls to ``fn`` from every troplog module that holds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "troplog":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cone_facets_print_as_the_inequalities(n):
    # A cone's JSON lists its nonnegative coordinates by name, which is how
    # their inequalities print, on curve cones and on map cones for one
    # and for two targets.
    sigma = (1,) * (n - 1) + (1 - n,)
    complexes = [
        build_moduli_complex(n),
        build_map_moduli(n, ContactOrder.of(sigma)),
        _map_cones(n, [ContactOrder.of(sigma), ContactOrder.of((1, 1 - n) + (1,) * (n - 2))]),
    ]
    for cx in complexes:
        for key, cone in cx.cones.items():
            assert cone.to_json()["facets"] == [str(f) for f in cone.inequalities], key


class TestCurveModuli:
    def test_n3_point(self):
        cx = build_moduli_complex(3)
        assert len(cx.cones) == 1
        assert next(iter(cx.cones.values())).dim == 0

    def test_n4_three_rays(self):
        cx = build_moduli_complex(4)
        dims = sorted(c.dim for c in cx.cones.values())
        assert dims == [0, 1, 1, 1]
        assert len(cx.maximal_keys()) == 3
        # every ray has the origin as its face
        origins = {fm.face_key for fm in cx.face_maps}
        assert len(origins) == 1

    def test_n5_maximal_cones(self):
        cx = build_moduli_complex(5)
        maximal = cx.maximal_keys()
        assert len(maximal) == 15
        assert all(cx.cones[k].dim == 2 for k in maximal)

    def test_unstable_range(self):
        with pytest.raises(UnstableRange):
            build_moduli_complex(2)

    def test_face_maps_compose(self):
        cx = build_moduli_complex(5)
        # contracting both edges of a 2-dim cone in either order lands on
        # the origin cone, and face maps exist at each step
        by_cone = {}
        for fm in cx.face_maps:
            by_cone.setdefault(fm.cone_key, []).append(fm)
        for key in cx.maximal_keys():
            for fm in by_cone[key]:
                mid = fm.face_key
                assert mid in cx.cones
                for fm2 in by_cone.get(mid, []):
                    assert fm2.face_key in cx.cones

    def test_facet_coordinates_align(self):
        # the face cone's coordinates inject into the bigger cone's
        cx = build_moduli_complex(4)
        for fm in cx.face_maps:
            face_coords = {c.name for c in cx.cones[fm.face_key].coords}
            cone_coords = {c.name for c in cx.cones[fm.cone_key].coords}
            assert {a for a, _ in fm.coord_map} == face_coords
            assert {b for _, b in fm.coord_map} | set(fm.zeroed) <= cone_coords

    def test_face_maps_match_contractions(self):
        # Recompute each face map by contracting the zeroed edge and
        # canonicalizing the result.
        cx = build_moduli_complex(5)
        expected = set()
        for key, ct in cx.types.items():
            for i in range(len(ct.tree.edges)):
                cf = canonicalize(contract_edge(ct.tree, i))
                others = [j for j in range(len(ct.tree.edges)) if j != i]
                coord_map = tuple(sorted((f"l_e{cf.edge_map[s]}", f"l_e{j}") for s, j in enumerate(others)))
                expected.add((cf.key, key, coord_map, (f"l_e{i}",)))
        got = {(fm.face_key, fm.cone_key, fm.coord_map, fm.zeroed) for fm in cx.face_maps}
        assert got == expected and len(cx.face_maps) == len(expected)

    def test_canonicalizes_each_type_once(self, monkeypatch):
        # Each compatible split set's tree is canonicalized once; the facets
        # are looked up, not contracted.
        _curve_parts.cache_clear()  # count a build, not a cache hit
        calls = count_calls(monkeypatch, canonicalize)
        cx = build_moduli_complex(6)
        assert len(cx.cones) == 236 and len(calls) == 236


def fresh_complex(n: int) -> ConeComplex:
    """The curve complex from an uncached build."""
    cones, types, face_maps = _curve_parts.__wrapped__(n, enumerate_tree_types)
    return ConeComplex(n, dict(cones), dict(types), list(face_maps))


def same_complex(cx: ConeComplex, other: ConeComplex) -> bool:
    return cx.to_json() == other.to_json() and cx.types == other.types


class TestSharedBuild:
    def test_mutating_a_complex_changes_no_later_result(self, monkeypatch):
        n, sigma = 5, ContactOrder.of([1, 1, 1, 1, -4])
        cx = build_moduli_complex(n)
        key = next(iter(cx.types))
        cx.cones.pop(key)
        cx.face_maps.append(cx.face_maps[0])
        cx.types[key] = dataclasses.replace(cx.types[key], facets=())
        maps = build_map_moduli(n, sigma)
        maps.types.clear()
        maps.face_maps.clear()

        assert same_complex(build_moduli_complex(n), fresh_complex(n))
        rebuilt = build_map_moduli(n, sigma)
        got = product_decomposition(n, sigma, 2).to_json()
        monkeypatch.setattr(troplog.moduli, "build_moduli_complex", fresh_complex)
        assert same_complex(rebuilt, _map_cones(n, [sigma]))
        assert got == product_decomposition(n, sigma, 2).to_json()

    def test_alternating_n(self):
        for n in (5, 6, 5):
            assert same_complex(build_moduli_complex(n), fresh_complex(n))

    def test_interleaved_map_builds(self):
        # The map build is keyed by n and the contact orders; each build,
        # served from the cache or not, equals an uncached one.
        five = [ContactOrder.of([1, 1, 1, 1, -4]), ContactOrder.of([2, -1, 1, -3, 1])]
        six = [ContactOrder.of([1, 1, 1, 1, 1, -5]), ContactOrder.of([1, -5, 1, 1, 1, 1])]
        builds = [[five[0]], [six[0]], [six[0]], [five[1]], five, five, [six[1]], [five[0]]]
        _map_parts.cache_clear()
        for sigmas in builds:
            n = sigmas[0].n
            cx = _map_cones(n, sigmas)
            cones, functions = _map_parts.__wrapped__(n, tuple(sigmas), enumerate_tree_types)
            assert cx.cones == dict(cones) and cx.functions == dict(functions)
            assert cx.types == fresh_complex(n).types
        assert _map_parts.cache_info()[:2] == (2, 6)  # hits, misses

    def test_map_functions_built_once(self, monkeypatch):
        # A product decomposition after a map build reuses its functions,
        # and changing the returned complex changes no later result.
        n, sigma = 5, ContactOrder.of([1, 1, 1, 1, -4])
        _map_parts.cache_clear()
        made = count_calls(monkeypatch, troplog.moduli.PLFunction)
        maps = build_map_moduli(n, sigma)
        expected = maps.to_json()
        maps.cones.clear()
        maps.functions.clear()
        maps.types.clear()
        rep = product_decomposition(n, sigma, 1)
        assert rep.certified and rep.cones_checked == 26
        assert len(made) == 26
        again = build_map_moduli(n, sigma)
        assert again.to_json() == expected and len(again.types) == 26
        assert len(made) == 26

    def test_types_share_equal_edges_legs_and_vertices(self):
        shared = {}
        for ct in build_moduli_complex(6).types.values():
            t = ct.tree
            for part in (t.vertices, *t.edges, *t.legs):
                assert shared.setdefault(part, part) is part

    def test_face_maps_share_coordinate_maps(self):
        # A face map's coordinates are fixed by its contracted edge and the
        # facet's edge index map, so equal ones are one object.
        face_maps = build_moduli_complex(6).face_maps
        coord_maps, zeroed = {}, {}
        for fm in face_maps:
            assert coord_maps.setdefault(fm.coord_map, fm.coord_map) is fm.coord_map
            assert zeroed.setdefault(fm.zeroed, fm.zeroed) is fm.zeroed
        assert len(coord_maps) < len(face_maps) and len(zeroed) == 3

    def test_built_once_per_n(self, monkeypatch):
        _curve_parts.cache_clear()
        calls = count_calls(monkeypatch, enumerate_tree_types)
        sigma = ContactOrder.of([1, 1, 1, 1, -4])
        build_moduli_complex(5)
        build_map_moduli(5, sigma)
        product_decomposition(5, sigma, 1)
        assert calls == [(5,)]


SIGMA4 = ContactOrder.of([1, 1, 1, -3])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: product_decomposition(4, SIGMA4, True), id="leg-true"),
        pytest.param(lambda: product_decomposition(4, SIGMA4, 2.0), id="leg-float"),
        pytest.param(lambda: product_decomposition(4.0, SIGMA4, 2), id="certificate-n-float"),
        pytest.param(lambda: build_moduli_complex(4) and build_moduli_complex(4.0), id="curves-n-float-after-build"),
        pytest.param(lambda: build_moduli_complex(True), id="curves-n-true"),
        pytest.param(lambda: build_map_moduli(True, ContactOrder.of([0])), id="maps-n-true"),
        pytest.param(lambda: subdivide_map_moduli(4.0, SIGMA4, Fan.projective_line()), id="subdivide-n-float"),
        pytest.param(lambda: Fan.of([[(1,)], [(-1,)], []], True), id="fan-dim-true"),
        pytest.param(lambda: FanCone.of([(1,)], 1.0), id="fan-cone-dim-float"),
    ],
)
def test_sizes_and_legs_must_be_integers(call):
    # A bool or a float equal to an integer is refused where it enters the
    # library, not printed as given, truncated or looked up in a cache.
    with pytest.raises(ParseError, match="is not an integer"):
        call()


class TestMapModuli:
    def test_n3_single_free_cone(self):
        cx = build_map_moduli(3, ContactOrder.of([1, 1, -2]))
        assert len(cx.cones) == 1
        cone = next(iter(cx.cones.values()))
        assert cone.dim == 1
        assert [c.sign for c in cone.coords] == ["free"]

    def test_n1_empty(self):
        assert build_map_moduli(1, ContactOrder.of([0])).is_empty

    def test_n2_routed_to_selfmaps(self):
        with pytest.raises(UnstableRange):
            build_map_moduli(2, ContactOrder.of([3, -3]))

    def test_nonzero_sum(self):
        with pytest.raises(NonZeroSum):
            build_map_moduli(4, ContactOrder.of([1, 1, 1, 1]))

    def test_n4_dimensions(self):
        cx = build_map_moduli(4, ContactOrder.of([1, 1, 1, -3]))
        assert sorted(c.dim for c in cx.cones.values()) == [1, 2, 2, 2]

    def test_dimension_formula(self):
        for n in (3, 4, 5):
            cx = build_map_moduli(n, random_zero_sum(random.Random(n), n))
            for k in cx.maximal_keys():
                assert cx.cones[k].dim == (n - 3) + 1

    def test_cone_functions_balanced(self):
        cx = build_map_moduli(4, ContactOrder.of([2, -1, 0, -1]))
        for key, f in cx.functions.items():
            assert is_balanced(f)
            assert f.leg_slopes == (2, -1, 0, -1)


def path_point(sigma=(2, -1, -1), length=3):
    t = Tree.build(["v1", "v2"], [("v1", "v2", length)], [(1, "v1"), (2, "v1"), (3, "v2")])
    f = extend_from_leg_slopes(t, ContactOrder.of(sigma), "v1", 0)
    return TropicalMapPoint.of(t, [f])


class TestSplitting:
    def test_constant_function(self):
        t = Tree.build(["v"], [], [(1, "v"), (2, "v"), (3, "v")])
        f = extend_from_leg_slopes(t, ContactOrder.of([0, 0, 0]), "v", 7)
        p = TropicalMapPoint.of(t, [f])
        assert all(splitting_at_leg(p, i) == 7 for i in (1, 2, 3))

    def test_path_example(self):
        assert splitting_at_leg(path_point(), 3) == -3
        assert splitting_at_leg(path_point(), 1) == 0

    def test_no_such_leg(self):
        with pytest.raises(NoSuchLeg):
            splitting_at_leg(path_point(), 9)

    def test_additivity(self):
        t = Tree.build(["v1", "v2"], [("v1", "v2", 2)], [(1, "v1"), (2, "v1"), (3, "v2")])
        f = extend_from_leg_slopes(t, ContactOrder.of([2, -1, -1]), "v1", 1)
        g = extend_from_leg_slopes(t, ContactOrder.of([0, 3, -3]), "v1", Fraction(1, 2))
        p, q, s = (TropicalMapPoint.of(t, [h]) for h in (f, g, f + g))
        for i in (1, 2, 3):
            assert splitting_at_leg(s, i) == splitting_at_leg(p, i) + splitting_at_leg(q, i)


PATH3 = Tree.build(["v1", "v2"], [("v1", "v2", 3)], [(1, "v1"), (2, "v1"), (3, "v2")])
F3 = extend_from_leg_slopes(PATH3, ContactOrder.of([2, -1, -1]), "v1", 0)


def test_map_point_derives_its_contact_orders():
    # A map point holds its tree and functions; the contact orders are read
    # from the functions, so none can disagree with them.
    p = TropicalMapPoint(PATH3, (F3, F3))
    assert p.contacts == TropicalMapPoint.of(PATH3, [F3, F3]).contacts == (F3.contact_order,) * 2
    assert [f.name for f in dataclasses.fields(p)] == ["tree", "functions"]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: TropicalMapPoint.of(Tree.build(["v"], [], [(1, "v"), (3, "v"), (4, "v")]), []),
         LengthMismatch, "invalid tree: leg labels [1, 3, 4] are not exactly 1..3"),
        (lambda: TropicalMapPoint.of(Tree.build(["v1", "v2"], [("v1", "v2")], [(1, "v1"), (2, "v1"), (3, "v2")]), []),
         LengthMismatch, "map points require concrete edge lengths"),
        (lambda: TropicalMapPoint.of(PATH3, [extend_from_leg_slopes(PATH3.with_lengths([4]), F3.contact_order)]),
         LengthMismatch, "function lives on a different tree"),
        (lambda: TropicalMapPoint.of(PATH3, [dataclasses.replace(F3, edge_slopes=(1,))]),
         NonZeroSum, "function is not balanced"),
        (lambda: splitting_at_leg(TropicalMapPoint.of(PATH3, [F3, F3]), 1),
         LengthMismatch, "splitting_at_leg requires a 1-dimensional target"),
        (lambda: splitting_at_leg(TropicalMapPoint.of(PATH3, [dataclasses.replace(F3, base_value=AffineExpr.symbol("c"))]), 3),
         LengthMismatch, "map point has symbolic values"),
        (lambda: splitting_expr(build_map_moduli(4, SIGMA4), "(1,2,3,4;)", 9),
         NoSuchLeg, "no leg labeled 9"),
    ],
    ids=["invalid-tree", "symbolic-lengths", "other-tree", "unbalanced", "two-targets", "symbolic-values", "splitting-expr-no-leg"],
)
def test_map_points_and_splittings_refuse(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


class TestProductDecomposition:
    def test_n3_certified_no_witness(self):
        rep = product_decomposition(3, ContactOrder.of([1, 1, -2]), 1)
        assert rep.certified
        assert rep.cones_checked == 1
        # all legs share the unique vertex: no tropical witness exists
        assert rep.distinct_splittings == {2: None, 3: None}

    def test_n4_witness(self):
        rep = product_decomposition(4, ContactOrder.of([1, 1, 1, -3]), 1)
        assert rep.certified
        w = rep.distinct_splittings[4]
        assert w is not None
        assert w["splitting_1"] != w["splitting_4"]

    def test_all_legs_n4(self):
        sigma = ContactOrder.of([3, -1, 2, -4])
        for leg in (1, 2, 3, 4):
            rep = product_decomposition(4, sigma, leg)
            assert rep.certified
            assert all(w is not None for w in rep.distinct_splittings.values())

    def test_face_compatibility_is_checked(self):
        rep = product_decomposition(4, ContactOrder.of([1, 1, 1, -3]), 2)
        assert rep.face_checks == 3
        assert not rep.failures

    def test_wrong_coord_map_fails(self, monkeypatch):
        # Swap the cone coordinates of one face map whose splitting has
        # different coefficients on them; the face check must catch it.
        n, sigma, leg = 6, ContactOrder.of([1, 1, 1, 1, 1, -5]), 6
        curve = build_moduli_complex(n)
        maps = build_map_moduli(n, sigma)

        def swappable(fm):
            s = splitting_expr(maps, fm.cone_key, leg)
            return len(fm.coord_map) == 2 and len({s.coeff(b) for _, b in fm.coord_map}) == 2

        i, fm = next((i, fm) for i, fm in enumerate(curve.face_maps) if swappable(fm))
        (f0, c0), (f1, c1) = fm.coord_map
        wrong = dataclasses.replace(fm, coord_map=((f0, c1), (f1, c0)))
        face_maps = curve.face_maps[:i] + [wrong] + curve.face_maps[i + 1 :]
        bad = dataclasses.replace(curve, face_maps=face_maps)
        monkeypatch.setattr(troplog.moduli, "build_moduli_complex", lambda n: bad)
        rep = product_decomposition(n, sigma, leg)
        assert not rep.certified
        assert rep.failures == [f"face map {fm.cone_key} -> {fm.face_key}: splitting not compatible"]

    # One cone of n = 5 with two edges, leg 5 off its root (the splitting at
    # leg 1 is c alone, so no corruption of the slopes could show there).
    CORRUPTED = "(1,2;(3;(4,5;)))"

    @pytest.mark.parametrize(
        "corrupt, failures",
        [
            (lambda K, f: (K, dataclasses.replace(f, base_value=AffineExpr.parse("2*c"))), ["cone {key}: translation coefficient is not 1"]),
            (
                lambda K, f: (K, dataclasses.replace(f, edge_slopes=tuple(s + Fraction(1, 2) for s in f.edge_slopes))),
                [
                    "cone {key}: non-integer coefficient on l_e0",
                    "cone {key}: non-integer coefficient on l_e1",
                    "face map {key} -> (1,2,3;(4,5;)): splitting not compatible",
                    "face map {key} -> (1,2;(3,4,5;)): splitting not compatible",
                ],
            ),
            (lambda K, f: (dataclasses.replace(K, coords=K.coords[:-1]), f), ["cone {key}: coordinates do not match curve cone plus free line"]),
            (
                lambda K, f: (K, dataclasses.replace(f, edge_slopes=tuple(-s for s in f.edge_slopes))),
                [
                    "face map {key} -> (1,2,3;(4,5;)): splitting not compatible",
                    "face map {key} -> (1,2;(3,4,5;)): splitting not compatible",
                ],
            ),
        ],
        ids=["translation", "half-slopes", "dropped-coordinate", "negated-slopes"],
    )
    def test_corrupted_cone_fails(self, monkeypatch, corrupt, failures):
        # Each failure message of the certificate, from map parts with one
        # cone corrupted.
        key, real = self.CORRUPTED, troplog.moduli._map_parts

        def corrupted(*args):
            cones, functions = real(*args)
            K, f = corrupt(dict(cones)[key], dict(functions)[key])
            assert len(f.edge_slopes) == 2
            return (
                tuple((k, K if k == key else c) for k, c in cones),
                tuple((k, f if k == key else g) for k, g in functions),
            )

        monkeypatch.setattr(troplog.moduli, "_map_parts", corrupted)
        rep = product_decomposition(5, ContactOrder.of([1, 1, 1, 1, -4]), 5)
        assert not rep.certified
        assert rep.failures == [message.format(key=key) for message in failures]

    def test_splitting_expr_unimodular(self):
        sigma = ContactOrder.of([1, 2, -3, 0, 0])
        cx = build_map_moduli(5, sigma)
        for key in cx.cones:
            s = splitting_expr(cx, key, 3)
            assert s.coeff("c") == 1
            assert all(c.denominator == 1 for _, c in s.terms)

    def test_splitting_expr_two_targets(self):
        sigmas = [ContactOrder.of([1, 1, 1, -3]), ContactOrder.of([1, -3, 1, 1])]
        cx = _map_cones(4, sigmas)
        for key in cx.cones:
            with pytest.raises(LengthMismatch):
                splitting_expr(cx, key, 1)

    def test_unstable_range(self):
        with pytest.raises(UnstableRange):
            product_decomposition(2, ContactOrder.of([1, -1]), 1)

    def test_builds_curve_moduli_once(self, monkeypatch):
        calls = count_calls(monkeypatch, build_moduli_complex)
        rep = product_decomposition(5, ContactOrder.of([1, 1, 1, 1, -4]), 1)
        assert rep.certified and len(calls) == 1


class TestIntegerCertificate:
    SIGMAS = {
        n: [
            ContactOrder.of([1] * (n - 1) + [-(n - 1)]),
            ContactOrder.of([0] * n),
            ContactOrder.of([2, 0, -3] + [0] * (n - 4) + [1] if n > 3 else [2, 0, -2]),
            random_zero_sum(random.Random(800 + n), n),
        ]
        for n in range(3, 7)
    } | {7: [ContactOrder.of([3, 0, -1, 0, 2, -4, 0])]}

    @pytest.mark.parametrize("n", range(3, 8))
    def test_matches_affine_oracle(self, n):
        for sigma in self.SIGMAS[n]:
            for leg in range(1, n + 1):
                got = product_decomposition(n, sigma, leg).to_json()
                assert got == affine_product_decomposition(n, sigma, leg).to_json()

    @pytest.mark.parametrize("n", range(3, 7))
    def test_path_coefficients_match_splitting_expr(self, n):
        # Both read the path rule, so both are checked against a walk.
        for sigma in self.SIGMAS[n]:
            cx = build_map_moduli(n, sigma)
            for key, f in cx.functions.items():
                splits = cx.types[key].splits
                values = vertex_values(f)
                for l in f.tree.legs:
                    paths = _path_coefficients(_lengths(n)[0], splits, f.edge_slopes, 1 << (l.label - 1))
                    s = f.base_value + AffineExpr.make(0, paths)
                    assert s == splitting_expr(cx, key, l.label) == values[l.at]

    @pytest.mark.parametrize("n", range(3, 8))
    def test_mask_slopes_match_the_cut_rule_walk(self, n):
        # The slopes read from split masks are those that
        # extend_from_leg_slopes sums over a walk, for one and two targets.
        pair = [ContactOrder.of([1] * (n - 1) + [1 - n]), ContactOrder.of([n - 1] + [-1] * (n - 1))]
        for sigmas in [[s] for s in self.SIGMAS[n]] + [pair]:
            cx = _map_cones(n, sigmas)
            for key, ct in cx.types.items():
                fs = cx.functions[key] if len(sigmas) == 2 else (cx.functions[key],)
                names = [TRANSLATION_COORD] if len(sigmas) == 1 else ["c1", "c2"]
                for f, sigma, name in zip(fs, sigmas, names):
                    assert f == extend_from_leg_slopes(ct.tree, sigma, ct.tree.root, AffineExpr.symbol(name))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_mask_path_coefficients_match_walk_oracle(self, n):
        # The rule at every vertex: the root's mask is all legs, the child
        # of edge j's is its split, and a leg's vertex's is the leg's bit.
        pair = [ContactOrder.of([1] * (n - 1) + [1 - n]), ContactOrder.of([n - 1] + [-1] * (n - 1))]
        for sigmas in [[s] for s in self.SIGMAS[n]] + [pair]:
            cx = _map_cones(n, sigmas)
            for key, ct in cx.types.items():
                t = ct.tree
                masks = [(t.root, (1 << n) - 1)] + [(e.ends[1], s) for e, s in zip(t.edges, ct.splits)]
                masks += [(l.at, 1 << (l.label - 1)) for l in t.legs]
                fs = cx.functions[key] if len(sigmas) == 2 else (cx.functions[key],)
                for f in fs:
                    walked = walk_path_coefficients(f)
                    assert {v for v, _ in masks} == set(walked)
                    for v, legs in masks:
                        paths = _path_coefficients(_lengths(n)[0], ct.splits, f.edge_slopes, legs)
                        assert paths == walked[v]
                        assert list(paths) == sorted(paths, key=lambda name: int(name[3:]))
                values = {(v, j): value for j, f in enumerate(fs) for v, value in vertex_values(f).items()}
                assert cone_functionals(cx, key) == values

    @pytest.mark.parametrize("n", range(3, 7))
    def test_map_cones_are_not_walked(self, monkeypatch, n):
        # Values on map cones come from the path rule alone.
        calls = count_calls(monkeypatch, vertex_values)
        sigma = ContactOrder.of([1] * (n - 1) + [1 - n])
        subdivide_map_moduli(n, sigma, Fan.projective_line())
        plane = Fan.of([[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)]], 2)
        subdivide_map_moduli(n, [sigma, ContactOrder.of([1, 1 - n] + [1] * (n - 2))], plane)
        cx = build_map_moduli(n, sigma)
        for key in cx.cones:
            splitting_expr(cx, key, n)
        assert product_decomposition(n, sigma, 1).certified
        assert calls == []


# Generic contact orders with a zero slope on some leg or edge.
GENERIC_SIGMAS = {3: (2, -2, 0), 4: (1, -1, 2, -2), 5: (1, 2, -3, 4, -4), 6: (1, 2, -3, 4, -5, 1), 7: (1, 2, -3, 4, -5, 6, -5)}


PLANE = Fan.of([[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)]], 2)


class TestJsonPieces:
    """The three large payloads have one encoder each: their JSON text in
    pieces from ``moduli._json_pieces`` for complexes and
    ``subdivision._json_pieces`` for subdivided complexes, and in one piece
    from ``moduli._report_json`` for certificate reports.  Joined, the
    pieces must be ``json.dumps`` of the oracle's payload dict, and
    ``to_json``, which parses them, must equal that dict."""

    @staticmethod
    def assert_pieces_are_the_oracle(x):
        if isinstance(x, SubdividedComplex):
            pieces, oracle = subdivision_pieces(x), subdivided_complex_json(x)
        elif isinstance(x, IsomorphismReport):
            pieces, oracle = [_report_json(x)], isomorphism_report_json(x)
        else:
            pieces, oracle = _json_pieces(x), cone_complex_json(x)
        assert all(type(p) is str for p in pieces)
        assert "".join(pieces) == json.dumps(oracle, sort_keys=True)
        assert x.to_json() == oracle

    @pytest.mark.parametrize("n", range(3, 8))
    def test_curve_complexes(self, n):
        self.assert_pieces_are_the_oracle(build_moduli_complex(n))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_map_complexes(self, n):
        generic = build_map_moduli(n, ContactOrder.of(GENERIC_SIGMAS[n]))
        assert 0 in GENERIC_SIGMAS[n] or any(0 in f.edge_slopes for f in generic.functions.values())
        self.assert_pieces_are_the_oracle(build_map_moduli(n, ContactOrder.of((1,) * (n - 1) + (1 - n,))))
        self.assert_pieces_are_the_oracle(generic)

    def test_shared_parts_are_not_hashed(self, monkeypatch):
        # The writer keys base values, edges and legs by identity, so it
        # hashes none of them; its text is still the oracle's.
        cx = build_map_moduli(6, ContactOrder.of(GENERIC_SIGMAS[6]))

        def unhashable(self):
            raise AssertionError(f"{type(self).__name__} hashed")

        for cls in (AffineExpr, Edge, Leg):
            monkeypatch.setattr(cls, "__hash__", unhashable)
        text = "".join(_json_pieces(cx))
        monkeypatch.undo()
        assert text == json.dumps(cone_complex_json(cx), sort_keys=True)

    def test_two_targets(self):
        sigmas = [ContactOrder.of((1, 1, 1, 1, -4)), ContactOrder.of(GENERIC_SIGMAS[5])]
        cx = _map_cones(5, sigmas)
        assert cx.sigma is None and all(isinstance(fs, tuple) for fs in cx.functions.values())
        self.assert_pieces_are_the_oracle(cx)

    @pytest.mark.parametrize("sigmas", [[()], [(0,)], [(0,), (0,)]], ids=["n0", "n1", "n1-two-targets"])
    def test_empty_map_complexes(self, sigmas):
        cx = _map_cones(len(sigmas[0]), [ContactOrder.of(s) for s in sigmas])
        assert cx.is_empty
        self.assert_pieces_are_the_oracle(cx)

    @staticmethod
    def quoted_names_complex() -> ConeComplex:
        # Fraction lengths, integer vertex ids, a rational base value and
        # names that JSON must escape: nothing here comes from a build.
        t = Tree.build([1, "b\"q"], [(1, "b\"q", "3/2")], [(1, 1), (2, 1), (3, "b\"q")])
        f = extend_from_leg_slopes(t, ContactOrder.of((2, -1, -1)), 1, AffineExpr.parse("1/2 + c"))
        cone = Cone("k\u00e9\n", (Coord("x", "nonneg"), Coord("c", "free")))
        return ConeComplex(3, {cone.name: cone}, {}, [], ContactOrder.of((2, -1, -1)), {cone.name: f})

    def test_concrete_function_and_quoted_names(self):
        self.assert_pieces_are_the_oracle(self.quoted_names_complex())

    @pytest.mark.parametrize("n", range(3, 8))
    def test_certificate_reports(self, n):
        sigma = ContactOrder.of((1,) * (n - 1) + (1 - n,))
        for leg in sorted({1, 2, n}):
            self.assert_pieces_are_the_oracle(product_decomposition(n, sigma, leg))

    @pytest.mark.parametrize("n", range(5, 8))
    def test_generic_certificate_reports(self, n):
        # At leg 1 of a symmetric σ every cone map is "c"; at leg 3 of a
        # generic σ they vary (407 distinct maps over 2 752 cones at n = 7).
        report = product_decomposition(n, ContactOrder.of(GENERIC_SIGMAS[n]), 3)
        assert len(set(report.cone_maps.values())) > n
        self.assert_pieces_are_the_oracle(report)

    def test_failed_report(self):
        report = IsomorphismReport(
            certified=False,
            n=4,
            sigma=ContactOrder.of((1, 1, 1, -3)),
            leg=1,
            cones_checked=2,
            cone_maps={"b": "c + l_e0", "a": "c"},
            face_checks=1,
            failures=['cone "a": translation coefficient is not 1'],
            distinct_splittings={3: None, 2: {"cone": "b", "c": "0"}},
        )
        self.assert_pieces_are_the_oracle(report)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_p1_subdivisions(self, n):
        for sigma in ((1,) * (n - 1) + (1 - n,), GENERIC_SIGMAS[n]):
            self.assert_pieces_are_the_oracle(subdivide_map_moduli(n, ContactOrder.of(sigma), Fan.projective_line()))

    @pytest.mark.parametrize("n", [4, 5])
    def test_plane_subdivisions(self, n):
        sigmas = [ContactOrder.of((1,) * (n - 1) + (1 - n,)), ContactOrder.of((1, 1 - n) + (1,) * (n - 2))]
        self.assert_pieces_are_the_oracle(subdivide_map_moduli(n, sigmas, PLANE))

    def test_empty_subdivision(self):
        sub = subdivide_map_moduli(1, ContactOrder.of((0,)), Fan.projective_line())
        assert sub.complex.is_empty and not sub.cells
        self.assert_pieces_are_the_oracle(sub)

    def test_hand_built_subdivision_with_quoted_names(self):
        # A cone, cells, vertices and coordinates whose names JSON must
        # escape, on the one type at n = 3.  Two cells share one halfspace
        # tuple and one witness tuple, and a third has an equal copy of
        # each, as the cones of one encoding do; a fourth has the empty
        # tuple for both, which the writer must not confuse.
        built = subdivide_map_moduli(3, ContactOrder.of((1, 1, -2)), Fan.projective_line())
        (old,) = built.cells
        key = 'k\u00e9\n"'
        cx = ConeComplex(
            3,
            {key: Cone(key, built.complex.cones[old].coords)},
            {key: built.complex.types[old]},
            [],
            ContactOrder.of((1, 1, -2)),
            {key: built.complex.functions[old]},
        )
        halfspaces = (AffineExpr.parse("3/2 + c"), AffineExpr.symbol('x"\\'))
        witness = (('x"\\', Fraction(-7, 3)), ("c", Fraction(2)))
        cells = [
            SubdividedCell(key, (('v"0', 0), ("w\u00e9", 1)), halfspaces, witness, 1),
            SubdividedCell(key, (("w\u00e9", 0), ('v"0', 1)), halfspaces, witness, 1),
            SubdividedCell("other\t", (('v"0', 1),), tuple(list(halfspaces)), tuple(list(witness)), 1),
            SubdividedCell(key, (), (), (), 0),
        ]
        sub = SubdividedComplex(cx, Fan.projective_line(), {key: cells}, {key: built.functionals[old]})
        self.assert_pieces_are_the_oracle(sub)

    def test_to_json_over_digit_limit(self):
        # to_json parses the writer's text, and Python writes no integer
        # over its digit limit: each leg slope has 4 300 digits, the edge
        # slope -2A has 4 301.  The complex itself is built.
        a = int("9" * 4300)
        cx = build_map_moduli(4, ContactOrder.of((a, a, -a, -a)))
        assert cx.functions["(1,2;(3,4;))"].edge_slopes == (-2 * a,)
        with pytest.raises(ValueError, match=rf"Exceeds the limit \({sys.get_int_max_str_digits()} digits\)"):
            cx.to_json()


class TestStabilize:
    def test_two_valent_merge(self):
        t = Tree.build(
            ["a", "m", "b"],
            [("a", "m", 2), ("m", "b", 3)],
            [(1, "a"), (2, "a"), (3, "b"), (4, "b")],
        )
        f = extend_from_leg_slopes(t, ContactOrder.of([1, -1, 2, -2]), "a", 0)
        q = stabilize(TropicalMapPoint.of(t, [f]))
        assert len(q.tree.edges) == 1
        assert q.tree.edges[0].length == 5

    def test_idempotent(self):
        q = stabilize(path_point())
        assert stabilize(q) == q
        assert q == path_point()  # already stable

    def test_nonzero_through_slope_kept(self):
        t = Tree.build(
            ["a", "m", "b"],
            [("a", "m", 2), ("m", "b", 3)],
            [(1, "a"), (2, "a"), (3, "b"), (4, "b")],
        )
        f = extend_from_leg_slopes(t, ContactOrder.of([1, 1, -1, -1]), "a", 0)
        q = stabilize(TropicalMapPoint.of(t, [f]))
        assert len(q.tree.edges) == 2  # map nonconstant at the middle vertex

    def test_sprout_removed(self):
        t = Tree.build(
            ["v", "s"], [("v", "s", 4)], [(1, "v"), (2, "v"), (3, "v")]
        )
        f = extend_from_leg_slopes(t, ContactOrder.of([1, -1, 0]), "v", 0)
        q = stabilize(TropicalMapPoint.of(t, [f]))
        assert len(q.tree.vertices) == 1 and not q.tree.edges

    def test_preserves_balance_and_contacts(self):
        rng = random.Random(23)
        for _ in range(40):
            t = random_stable_tree(rng, 5)
            sigma = random_zero_sum(rng, 5)
            p = TropicalMapPoint.of(t, [extend_from_leg_slopes(t, sigma)])
            q = stabilize(p)
            assert q.contacts == p.contacts
            assert all(is_balanced(f) for f in q.functions)


class TestSelfMaps:
    def test_identity(self):
        nf = classify_self_map(1, 0)
        assert nf.kernel_order == 1
        other = classify_self_map(-7, Fraction(2, 3))
        assert nf.compose(other) == other and other.compose(nf) == other

    def test_constant_stratum(self):
        nf = classify_self_map(0, 5)
        assert nf.kernel_order == 0 and nf.degree == 0

    @pytest.mark.parametrize("bad", [2.7, 2.0, True, "2"])
    def test_non_integer_degree_parse_error(self, bad):
        # Truncation would read 2.7 as degree 2.
        with pytest.raises(ParseError):
            classify_self_map(bad, 0)

    def test_composition(self):
        composed = classify_self_map(2, 1).compose(classify_self_map(3, 4))
        assert composed.degree == 6 and composed.translation == 9

    def test_algebra(self):
        rng = random.Random(31)
        for _ in range(200):
            maps = [
                classify_self_map(rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                for _ in range(3)
            ]
            a, b, c = maps
            assert a.compose(b).compose(c) == a.compose(b.compose(c))
            assert a.compose(b).degree == a.degree * b.degree
            assert a.kernel_order == abs(a.degree)
