import itertools
import random
import re
from fractions import Fraction

import pytest

from troplog import (
    AffineExpr,
    ContactOrder,
    Fan,
    build_map_moduli,
    face_census,
    subdivide_cone,
    subdivide_map_moduli,
    validate_fan,
)
from troplog.errors import IncompleteFan, LengthMismatch, ParseError, UnsupportedDimension
from troplog.feasibility import prune_redundant
from troplog.moduli import Cone, Coord
from troplog.subdivision import FanCone, cone_functionals

from oracles import canonical_system, cell_key

P1 = Fan.projective_line()


@pytest.fixture(autouse=True)
def cold_cells_cache():
    """Start each test with no cells shared from another test's cones, so
    that what a test counts or spies on is computed in that test."""
    import troplog.subdivision as sd

    sd._encoded_cells.cache_clear()


class TestFan:
    def test_p1_valid_complete(self):
        report = validate_fan(P1)
        assert report.ok

    def test_half_line_not_complete(self):
        fan = Fan.of([[(1,)]], 1, complete=True)
        report = validate_fan(fan)
        assert any("not covered" in p for p in report.problems)

    def test_p1xp1_valid_complete(self):
        quadrants = [
            [(1, 0), (0, 1)],
            [(0, 1), (-1, 0)],
            [(-1, 0), (0, -1)],
            [(0, -1), (1, 0)],
        ]
        rays = [[(1, 0)], [(0, 1)], [(-1, 0)], [(0, -1)]]
        fan = Fan.of(quadrants + rays + [[]], 2)
        assert validate_fan(fan).ok

    def test_overlapping_cones_rejected(self):
        fan = Fan.of([[(1, 0), (0, 1)], [(1, 1), (-1, 1)], [], [(1, 0)], [(0, 1)], [(1, 1)], [(-1, 1)]], 2, complete=False)
        report = validate_fan(fan)
        assert any("not a face" in p for p in report.problems)

    def test_missing_quadrant_coverage(self):
        fan = Fan.of([[(1, 0), (0, 1)], [(1, 0)], [(0, 1)], []], 2, complete=True)
        assert any("not covered" in p for p in validate_fan(fan).problems)

    def test_dimension_cap(self):
        with pytest.raises(UnsupportedDimension):
            Fan.of([[(1, 0, 0)]], 3)

    @pytest.mark.parametrize(
        "build, error, message",
        [
            # Built from its generators alone, a cone would have dimension 0
            # and no halfspaces; ``FanCone.of`` derives both.
            (lambda: FanCone(((1,),)), TypeError, "missing 2 required positional arguments: 'halfspaces' and 'dim'"),
            (lambda: Fan(3, ()), UnsupportedDimension, "fans are supported in dimension 1 or 2 only, got 3"),
            (lambda: Fan(True, ()), ParseError, "dim True is not an integer"),
            (lambda: Fan(2, (FanCone.of([[1]], 1),)), ParseError, "cone 0 does not lie in dimension 2"),
            (lambda: Fan(1, (FanCone.of([[1]], 1), FanCone.of([[1, 0]], 2))), ParseError, "cone 1 does not lie in dimension 1"),
            # A cone built by hand must be the one ``FanCone.of`` derives
            # from its generators.
            (lambda: Fan(1, tuple(FanCone(g, (), 0) for g in (((1,),), ((-1,),), ()))), ParseError, "cone 0 is not the cone of its generators"),
            (lambda: Fan(1, (FanCone(((2,),), (((1,), "ge"),), 1),)), ParseError, "cone 0 is not the cone of its generators"),
            (lambda: Fan(1, (P1.cones[0], FanCone(((1,), (1,)), (((1,), "ge"),), 1))), ParseError, "cone 1 is not the cone of its generators"),
            (lambda: Fan(1, (FanCone(((1,),), (((-1,), "ge"),), 1),)), ParseError, "cone 0 is not the cone of its generators"),
        ],
        ids=[
            "fan-cone-from-generators",
            "dim-3",
            "dim-true",
            "cone-of-dim-1",
            "cone-of-dim-2",
            "p1-rays-without-halfspaces",
            "unreduced-ray",
            "repeated-generator",
            "ray-with-opposite-halfspace",
        ],
    )
    def test_fan_checks_itself(self, build, error, message):
        with pytest.raises(error, match=re.escape(message)):
            build()

    def test_equal_fans_hold_equal_cones(self):
        # Cells are cached by fan.  A fan with P^1's rays whose cones held
        # other halfspaces would be valid and complete yet give no cells, so
        # it is refused where it is built.
        with pytest.raises(ParseError, match="cone 0 is not the cone of its generators"):
            Fan(1, tuple(FanCone(gens, (), 0) for gens in (((1,),), ((-1,),), ())))
        assert Fan(1, P1.cones) == P1
        assert subdivide_map_moduli(4, ContactOrder.of((1, 1, 1, -3)), P1).stats()["total_max_cells"] == 11

    def test_json_roundtrip(self):
        doc = P1.to_json()
        assert Fan.from_json(doc) == P1


def flagged_pairs(problems):
    return {
        (int(m.group(1)), int(m.group(2)))
        for m in (re.match(r"intersection of cones (\d+) and (\d+) ", p) for p in problems)
        if m
    }


def random_fan(rng, dim):
    cones = [
        [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(1, 5))
    ]
    return Fan.of(cones, dim, complete=rng.random() < 0.5)


QUADRANTS = Fan.of(
    [[(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)], [(0, -1), (1, 0)]]
    + [[(1, 0)], [(0, 1)], [(-1, 0)], [(0, -1)], []],
    2,
)


class TestFanOracle:
    # validate_fan reads the fan's open faces; the former pairwise
    # containment check must flag the same cone pairs.
    def check(self, fan):
        from oracles import pairwise_face_problems

        report = validate_fan(fan)
        expected = flagged_pairs(pairwise_face_problems(fan))
        assert flagged_pairs(report.problems) == expected, fan
        assert len(flagged_pairs(report.problems)) == sum("not a face" in p for p in report.problems)
        return expected

    @pytest.mark.parametrize("dim", [1, 2])
    def test_random_fans(self, dim):
        rng = random.Random(5 + dim)
        flagged = [bool(self.check(random_fan(rng, dim))) for _ in range(300)]
        assert 30 < sum(flagged) < 270

    def test_named_fans(self):
        for fan in (P1, PLANE, PLANE_FULL, QUADRANTS):
            assert self.check(fan) == set() and validate_fan(fan).ok


def free_line(name="K"):
    return Cone(name, (Coord("c", "free"),))


class TestSubdivideCone:
    def test_free_line_two_cells(self):
        cells = subdivide_cone(free_line(), {("v", 0): AffineExpr.symbol("c")}, P1)
        assert len(cells) == 2
        keys = {cell_key(c) for c in cells}
        assert keys == {
            canonical_system([(AffineExpr.symbol("c"), "ge")]),
            canonical_system([(-AffineExpr.symbol("c"), "ge")]),
        }
        for c in cells:
            assert c.contains(dict(c.witness))

    def test_identically_zero_single_cell(self):
        cells = subdivide_cone(free_line(), {("v", 0): AffineExpr.constant(0)}, P1)
        assert len(cells) == 1
        assert cells[0].halfspaces == ()

    def test_documented_two_vertex_cone(self):
        # two vertices with values c and c - 2*l on the half-plane l >= 0:
        # the walls c = 0 and c - 2l = 0 make three maximal cells
        K = Cone("K", (Coord("l", "nonneg"), Coord("c", "free")))
        c, l = AffineExpr.symbol("c"), AffineExpr.symbol("l")
        cells = subdivide_cone(K, {("v1", 0): c, ("v2", 0): c - l * 2}, P1)
        assert len(cells) == 3

    def test_trivial_fan_identity(self):
        K = Cone("K", (Coord("l", "nonneg"), Coord("c", "free")))
        c, l = AffineExpr.symbol("c"), AffineExpr.symbol("l")
        cells = subdivide_cone(K, {("v1", 0): c, ("v2", 0): c - l * 2}, Fan.trivial(1))
        assert len(cells) == 1
        assert canonical_system([(h, "ge") for h in cells[0].halfspaces]) == canonical_system(
            [(ineq, "ge") for ineq in K.inequalities]
        )

    def test_incomplete_fan_rejected(self):
        with pytest.raises(IncompleteFan):
            subdivide_cone(free_line(), {("v", 0): AffineExpr.symbol("c")}, Fan.of([[(1,)]], 1, complete=False))


def sample_points(cone, rng, count=1000, bound=4):
    coords = [(c.name, c.sign) for c in cone.coords]
    pts = []
    ticks = [Fraction(i) for i in range(0, bound + 1)]
    grids = [
        ticks if sign == "nonneg" else [Fraction(i) for i in range(-bound, bound + 1)]
        for _, sign in coords
    ]
    for combo in itertools.product(*grids):
        pts.append({name: v for (name, _), v in zip(coords, combo)})
    while len(pts) < count:
        pt = {}
        for name, sign in coords:
            v = Fraction(rng.randint(0 if sign == "nonneg" else -12, 12), rng.randint(1, 5))
            pt[name] = v
        pts.append(pt)
    return pts


class TestSubdivideModuli:
    def test_n3_two_cells(self):
        sub = subdivide_map_moduli(3, ContactOrder.of([1, 1, -2]), P1)
        assert sub.stats()["total_max_cells"] == 2

    def test_n3_constant_maps(self):
        sub = subdivide_map_moduli(3, ContactOrder.of([0, 0, 0]), P1)
        assert sub.stats()["total_max_cells"] == 2

    def test_n4_documented_counts(self):
        sub = subdivide_map_moduli(4, ContactOrder.of([1, 1, 1, -3]), P1)
        per = sub.stats()["per_cone"]
        star_key = next(k for k, v in per.items() if v["dim"] == 1)
        assert per[star_key]["max_cells"] == 2
        separating = "(1,2;(3,4;))"
        assert per[separating]["max_cells"] == 3

    def test_coverage_and_interior_uniqueness(self):
        rng = random.Random(77)
        sub = subdivide_map_moduli(4, ContactOrder.of([2, -1, 1, -2]), P1)
        for key, cells in sub.cells.items():
            cone = sub.complex.cones[key]
            for pt in sample_points(cone, rng, count=250):
                holders = [c for c in cells if c.contains(pt)]
                assert holders, f"uncovered point {pt} in cone {key}"
                strict = [c for c in cells if c.strictly_contains(pt)]
                if strict:
                    assert len(holders) == 1

    def test_refinement_compatibility(self):
        # cells restricted to a facet l_e = 0 agree with the cells of the
        # contracted type's cone
        sigma = ContactOrder.of([1, 1, 1, -3])
        sub = subdivide_map_moduli(4, sigma, P1)
        cx = sub.complex
        for fm in cx.face_maps:
            rename = {cone_coord: AffineExpr.symbol(face_coord) for face_coord, cone_coord in fm.coord_map}
            restricted = set()
            for cell in sub.cells[fm.cone_key]:
                exprs = [h.substitute({z: 0 for z in fm.zeroed}).substitute(rename) for h in cell.halfspaces]
                system = [(e, "ge") for e in exprs if not e.is_constant]
                if not check_full_dim(system, cx.cones[fm.face_key]):
                    continue
                restricted.add(canonical_system(prune_redundant(system + [(i, "ge") for i in cx.cones[fm.face_key].inequalities])))
            face_cells = {cell_key(c) for c in sub.cells[fm.face_key]}
            assert restricted == face_cells

    def test_mdim_mismatch(self):
        with pytest.raises(LengthMismatch):
            subdivide_map_moduli(3, [ContactOrder.of([1, 1, -2])] * 2, P1)

    def test_f_vector_free_line(self):
        sub = subdivide_map_moduli(3, ContactOrder.of([1, 1, -2]), P1)
        key = next(iter(sub.cells))
        fv = face_census(sub.complex.cones[key], cone_functionals(sub.complex, key), P1)
        assert fv == {0: 1, 1: 2}


def check_full_dim(system, cone):
    from troplog import check_feasible

    strict = [(e, "gt") for e, _ in system] + [(i, "gt") for i in cone.inequalities]
    return check_feasible(strict, [c.name for c in cone.coords]).feasible


def test_functionals_from_complex():
    cx = build_map_moduli(4, ContactOrder.of([1, 1, 1, -3]))
    key = "(1,2;(3,4;))"
    funcs = cone_functionals(cx, key)
    values = sorted(str(v) for v in funcs.values())
    assert values == ["c", "c - 2*l_e0"]


PLANE = Fan.of([[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)]], 2)
PLANE_FULL = Fan.of([[(1, 0)], [(0, 1)], [(-1, -1)], *(c.gens for c in PLANE.cones), []], 2)


# For each n = 3..5: all legs but one of slope 1, a mixed σ, and a σ with
# zero slopes.
CENSUS_SIGMAS = [
    (1, 1, -2), (2, -1, -1), (1, 0, -1),
    (1, 1, 1, -3), (2, -1, 1, -2), (1, 0, 0, -1),
    (1, 1, 1, 1, -4), (2, -1, 1, -3, 1), (0, 1, 0, -1, 0),
]


ONE_DIM_FANS = [(P1, "p1"), (Fan.of([[(1,)], [(-1,)]], 1), "p1-without-origin"), (Fan.trivial(1), "trivial")]


@pytest.mark.parametrize(
    "fan", [fan for fan, _ in ONE_DIM_FANS], ids=[name for _, name in ONE_DIM_FANS]
)
def test_census_matches_wall_oracle(fan):
    # On a 1-D fan the walls of the cells are the whole subdivision, so the
    # former census over their sign patterns is an oracle there.
    from oracles import wall_face_census

    for sigma in CENSUS_SIGMAS:
        sub = subdivide_map_moduli(len(sigma), ContactOrder.of(sigma), fan)
        for key, cells in sub.cells.items():
            K = sub.complex.cones[key]
            got = face_census(K, cone_functionals(sub.complex, key), fan)
            assert got == wall_face_census(K, cells), (sigma, key)


def plane_sigmas(n):
    return [ContactOrder.of((1,) * (n - 1) + (1 - n,)), ContactOrder.of((1, 1 - n) + (1,) * (n - 2))]


def plane_stats(n, fan):
    sub = subdivide_map_moduli(n, plane_sigmas(n), fan)
    return sub, sub.stats()


def test_plane_f_vector_n3():
    # n = 3: the moduli cone is the plane itself, cut by the fan into three
    # sectors, three rays and the origin.
    for fan in (PLANE, PLANE_FULL):
        _, stats = plane_stats(3, fan)
        assert list(stats["per_cone"].values()) == [
            {"max_cells": 3, "dim": 2, "f_vector": {0: 1, 1: 3, 2: 3}}
        ]


@pytest.mark.parametrize("n", [3, 4])
def test_plane_f_vectors_count_cells_and_faces(n):
    sub, stats = plane_stats(n, PLANE_FULL)
    assert plane_stats(n, PLANE)[1] == stats
    for key, entry in stats["per_cone"].items():
        fv = entry["f_vector"]
        assert max(fv) == entry["dim"] and fv[entry["dim"]] == entry["max_cells"]
        # Euler characteristic of a cone subdivided into relatively open
        # cones: 0 when the cone has a boundary, (-1)^dim for the whole space.
        pointed = any(c.sign == "nonneg" for c in sub.complex.cones[key].coords)
        euler = sum((-1) ** d * f for d, f in fv.items())
        assert euler == (0 if pointed else (-1) ** PLANE.dim), (key, fv)


@pytest.mark.parametrize(
    "fan, sigma",
    [
        (P1, ContactOrder.of([2, -1, 1, -2])),
        (PLANE, [ContactOrder.of([1, 1, 1, -3]), ContactOrder.of([1, -3, 1, 1])]),
    ],
    ids=["p1", "plane"],
)
def test_subdivision_matches_fraction_kernel(monkeypatch, fan, sigma):
    # Each f-vector of stats() is the witness census of its cone, and the
    # whole subdivision, witnesses included, is the same when the cells come
    # from the assignment oracle; every feasibility call of both oracles
    # goes through the former Fraction kernel.
    import oracles
    import troplog.subdivision

    sub = subdivide_map_moduli(4, sigma, fan)
    expected_json = sub.to_json()
    monkeypatch.setattr(oracles, "check_feasible", oracles.fraction_check_feasible)
    monkeypatch.setattr(oracles, "prune_redundant", oracles.witness_prune_redundant)
    for key, entry in sub.stats()["per_cone"].items():
        census = oracles.witness_face_census(sub.complex.cones[key], sub.functionals[key], fan)
        assert entry["f_vector"] == census, key
    monkeypatch.setattr(troplog.subdivision, "subdivide_cone", oracles.assignment_subdivide_cone)
    assert subdivide_map_moduli(4, sigma, fan).to_json() == expected_json


P1_WITHOUT_ORIGIN = Fan.of([[(1,)], [(-1,)]], 1)
P1_STATS_SIGMAS = [
    (1, 1, -2), (1, 0, -1),
    (1, 1, 1, -3), (2, -1, 1, -2), (1, 0, 0, -1),
    (1, 1, 1, 1, -4), (2, -1, 1, -3, 1), (0, 1, 0, -1, 0),
    (1, 1, 1, 1, 1, -5), (2, 0, -1, 1, -2, 0),
]
STATS_CASES = (
    [pytest.param(P1, len(s), ContactOrder.of(s), id="p1-" + ",".join(map(str, s))) for s in P1_STATS_SIGMAS]
    + [
        pytest.param(P1_WITHOUT_ORIGIN, 5, ContactOrder.of(s), id="p1-without-origin-" + ",".join(map(str, s)))
        for s in [(1, 1, 1, 1, -4), (2, -1, 1, -3, 1)]
    ]
    + [
        pytest.param(fan, n, plane_sigmas(n), id=f"{name}-n{n}")
        for fan, name in [(PLANE, "plane"), (QUADRANTS, "quadrants")]
        for n in (3, 4)
    ]
)


@pytest.mark.parametrize("fan, n, sigma", STATS_CASES)
def test_stats_sum_interior_censuses_to_face_census(fan, n, sigma):
    # stats() sums one interior census per face of a cone; the census over
    # every face of the cone itself is the definition of its f-vector.
    sub = subdivide_map_moduli(n, sigma, fan)
    per_cone = sub.stats()["per_cone"]
    assert sorted(per_cone) == sorted(sub.complex.cones)
    for key, entry in per_cone.items():
        assert entry["f_vector"] == face_census(sub.complex.cones[key], sub.functionals[key], fan), key


def _holds(row, rel, point):
    value = sum(Fraction(a * k, point[0]) for a, k in zip(row, point))
    return value > 0 if rel == "gt" else value >= 0 if rel == "ge" else value == 0


def search_everywhere(monkeypatch):
    """Make the cells and the census search on P1 too, where they would
    read the slope order instead.  The searched cells go to a cache of
    their own, which starts empty and goes with the patch."""
    import functools

    import troplog.subdivision as sd

    monkeypatch.setattr(sd, "_slope_order", lambda *args: None)
    fresh = functools.lru_cache(maxsize=sd._CELLS_CACHE_SIZE)(sd._encoded_cells.__wrapped__)
    monkeypatch.setattr(sd, "_encoded_cells", fresh)


@pytest.mark.parametrize(
    "fan, n, sigma",
    [(P1, 5, ContactOrder.of([2, -1, 1, -3, 1])), (P1, 5, ContactOrder.of([0, 1, 0, -1, 0])), (PLANE, 4, plane_sigmas(4))],
    ids=["p1", "p1-zero-slopes", "plane"],
)
def test_carried_points_satisfy_their_rows(monkeypatch, fan, n, sigma):
    # The search carries a parent's point to a child whose new rows it
    # satisfies.  For the cells and the interior census alike, at every
    # depth the search must reach the nodes of the reference search that
    # runs the kernel at every node, each node's point must satisfy all of
    # its rows, a point marked fresh must be the kernel's point of its
    # rows, and the reference must run the kernel more often.  On P1 this
    # is the search that the slope order replaces.
    import oracles
    import troplog.feasibility
    import troplog.subdivision as sd

    search_everywhere(monkeypatch)
    search = sd._search
    kernel_calls = {"carry": 0, "plain": 0}

    def counted(name, kernel):
        def call(rows, order):
            kernel_calls[name] += 1
            return kernel(rows, order)

        return call

    nodes = 0

    def checked(slots, order):
        nonlocal nodes
        for depth in range(len(slots) + 1):
            got = list(search(slots[:depth], order))
            assert [(p, r) for p, r, _, _ in got] == list(oracles.plain_search(slots[:depth], order))
            for _, rows, point, fresh in got:
                assert all(_holds(row, rel, point) for row, rel in rows), (rows, point)
                if fresh:
                    assert point == troplog.feasibility.rows_scaled_point(rows, order), rows
            nodes += len(got)
        return iter(got)

    monkeypatch.setattr(sd, "_search", checked)
    monkeypatch.setattr(sd, "rows_scaled_point", counted("carry", sd.rows_scaled_point))
    monkeypatch.setattr(oracles, "rows_scaled_point", counted("plain", oracles.rows_scaled_point))
    sub = subdivide_map_moduli(n, sigma, fan)
    sub.stats()
    assert nodes > 2 * len(sub.complex.cones)
    assert 0 < kernel_calls["carry"] < kernel_calls["plain"]


@pytest.mark.parametrize(
    "fan, n, sigma, calls",
    [(P1, 5, ContactOrder.of([1, 1, 1, 1, -4]), 67), (PLANE, 5, plane_sigmas(5), 306), (QUADRANTS, 5, plane_sigmas(5), 596)],
    ids=["p1", "plane", "quadrants"],
)
def test_cell_witness_reuses_the_leaf_point(monkeypatch, fan, n, sigma, calls):
    # A leaf whose point the kernel found for the leaf's own rows takes its
    # witness from that point: no system goes to the kernel twice, the cell
    # search makes the counted number of calls, once per distinct encoding
    # of a cone's images (187, 489 and 959 when every cone searched), and
    # the cells are those of the brute force over all assignments.  On P1
    # this is the search that the slope order replaces.
    import troplog.subdivision as sd
    from oracles import assignment_subdivide_cone

    search_everywhere(monkeypatch)
    systems, repeats = [], []

    def counted(kernel):
        def call(rows, order):
            repeats.extend(s for s in systems if s is rows)
            systems.append(rows)
            return kernel(rows, order)

        return call

    monkeypatch.setattr(sd, "rows_scaled_point", counted(sd.rows_scaled_point))
    sub = subdivide_map_moduli(n, sigma, fan)
    assert (len(systems), repeats) == (calls, [])
    for key, K in sub.complex.cones.items():
        assert sub.cells[key] == assignment_subdivide_cone(K, sub.functionals[key], fan), key


@pytest.mark.parametrize(
    "fan, sigmas, leaf_count, calls",
    [
        (P1, [ContactOrder.of([1, 1, 1, 1, -4]), ContactOrder.of([2, -1, 1, -3, 1])], 80, 126),
        (PLANE, [plane_sigmas(5)], 126, 444),
    ],
    ids=["p1", "plane"],
)
def test_facets_shot_from_the_leaf_point(monkeypatch, fan, sigmas, leaf_count, calls):
    # The cell search hands prune_rows each leaf's point; the facets it
    # keeps are those of the plain kernel loop on every leaf, and the
    # kernel runs the counted number of times (335 and 839 without rays).
    # Cones with equal encodings share one search, so the leaves are those
    # of the distinct encodings.  On P1 this is the search that the slope
    # order replaces.
    import troplog.feasibility
    import troplog.subdivision as sd

    search_everywhere(monkeypatch)
    kernel, shot, leaves = troplog.feasibility.rows_scaled_point, [], []

    def counted(rows, order):
        shot.append(rows)
        return kernel(rows, order)

    def both(rows, order, point):
        leaves.append(rows)
        with monkeypatch.context() as m:
            m.setattr(troplog.feasibility, "rows_scaled_point", counted)
            got = troplog.feasibility.prune_rows(rows, order, point)
        assert got == troplog.feasibility.prune_rows(rows, order), (rows, point)
        return got

    monkeypatch.setattr(sd, "prune_rows", both)
    for sigma in sigmas:
        subdivide_map_moduli(5, sigma, fan)
    assert (len(leaves), len(shot)) == (leaf_count, calls)


@pytest.mark.parametrize(
    "fan, cases",
    [(fan, [(len(s), ContactOrder.of(s)) for s in CENSUS_SIGMAS]) for fan, _ in ONE_DIM_FANS]
    + [(fan, [(n, plane_sigmas(n)) for n in (3, 4)]) for fan in (PLANE, QUADRANTS)],
    ids=[name for _, name in ONE_DIM_FANS] + ["plane", "quadrants"],
)
def test_row_path_matches_witness_oracles(monkeypatch, fan, cases):
    # The cells and the census on integer rows must give the cells, the
    # pruned systems and the f-vectors of their former check_feasible
    # versions.
    import oracles
    from oracles import assignment_subdivide_cone, witness_face_census, witness_prune_redundant

    systems = []

    def both(constraints):
        got = prune_redundant(constraints)
        assert got == witness_prune_redundant(constraints), constraints
        systems.append(got)
        return got

    monkeypatch.setattr(oracles, "prune_redundant", both)
    for n, sigma in cases:
        sub = subdivide_map_moduli(n, sigma, fan)
        for key, K in sub.complex.cones.items():
            assert sub.cells[key] == assignment_subdivide_cone(K, sub.functionals[key], fan), (n, sigma, key)
            got = face_census(K, sub.functionals[key], fan)
            assert got == witness_face_census(K, sub.functionals[key], fan), (n, sigma, key)
    assert systems


HALF_PLANES = Fan.of([[(1, 0), (-1, 0), (0, 1)], [(1, 0), (-1, 0), (0, -1)], [(1, 0), (-1, 0)]], 2)
ORACLE_FANS = ONE_DIM_FANS + [
    (Fan.trivial(2), "trivial-2d"),
    (PLANE, "plane"),
    (PLANE_FULL, "plane-full"),
    (QUADRANTS, "quadrants"),
    (HALF_PLANES, "half-planes"),
]


def oracle_cases(fan, name):
    """At n = 3, 4, and at n = 5 for P1 and the plane: slopes of one sign
    but one, mixed slopes, and zero slopes, which give vertices of equal
    image; in the plane also a zero second function and equal images."""
    ns = (3, 4, 5) if name in ("p1", "plane") else (3, 4)
    if fan.dim == 1:
        return [(len(s), ContactOrder.of(s)) for s in CENSUS_SIGMAS if len(s) in ns]
    cases = []
    for n in ns:
        zero_slopes = (1,) + (0,) * (n - 2) + (-1,)
        cases += [
            (n, plane_sigmas(n)),
            (n, [plane_sigmas(n)[0], ContactOrder.of((0,) * n)]),
            (n, [ContactOrder.of(zero_slopes), ContactOrder.of(tuple(2 * a for a in zero_slopes))]),
        ]
    return cases


@pytest.mark.parametrize("fan, name", ORACLE_FANS, ids=[name for _, name in ORACLE_FANS])
def test_cells_match_assignment_oracle(monkeypatch, fan, name):
    # The depth-first cell search must reproduce the former brute force over
    # all |maximal cones|^|V| assignments, byte for byte.
    import troplog.subdivision
    from oracles import assignment_subdivide_cone

    assert validate_fan(fan).ok
    for n, sigma in oracle_cases(fan, name):
        got = subdivide_map_moduli(n, sigma, fan).to_json()
        with monkeypatch.context() as m:
            m.setattr(troplog.subdivision, "subdivide_cone", assignment_subdivide_cone)
            assert got == subdivide_map_moduli(n, sigma, fan).to_json(), (n, sigma)


def test_merged_cells_match_assignment_oracle(monkeypatch):
    # With the ray (1) listed twice, every cell is found once per copy: the
    # merge keeps the first fan index, and the cells, their halfspaces and
    # assignments are the brute force's, byte for byte.
    import json

    import troplog.subdivision as sd
    from oracles import assignment_subdivide_cone

    fan = Fan.of([[(1,)], [(1,)], [(-1,)], []], 1)
    leaves = []
    real = sd._searched_cells

    def counted(*args):
        for leaf in real(*args):
            leaves.append(leaf)
            yield leaf

    monkeypatch.setattr(sd, "_searched_cells", counted)
    sub = subdivide_map_moduli(5, ContactOrder.of([1, 1, 1, 1, -4]), fan)
    cells = [c for cs in sub.cells.values() for c in cs]
    assert len(leaves) > len(cells)
    assert {i for c in cells for _, i in c.assignment} == {0, 2}
    for key, K in sub.complex.cones.items():
        expected = assignment_subdivide_cone(K, sub.functionals[key], fan)
        assert json.dumps([c.to_json() for c in sub.cells[key]]) == json.dumps([c.to_json() for c in expected]), key


# sha256 of the sorted-key compact JSON of each payload.
PAYLOAD_DIGESTS = [
    ("p1-sigma-1,1,1,1,-4", P1, [(1, 1, 1, 1, -4)], "096c093408c73af070e7171747639af028eeb4eaa2215030b8447a604c5879f2"),
    ("p1-sigma-2,-1,1,-3,1", P1, [(2, -1, 1, -3, 1)], "9ddc43ada6cd62c1d8f3168c8b1a42106f15fbac17caa6cceebe84b0e97c2982"),
    ("plane-full", PLANE_FULL, [(1, 1, 1, 1, -4), (1, -4, 1, 1, 1)], "b109392d3d2d94167787b88ea538b8479d61c96a4347e5afc5ed98c6be055110"),
]


@pytest.mark.parametrize("fan, sigmas, digest", [case[1:] for case in PAYLOAD_DIGESTS], ids=[case[0] for case in PAYLOAD_DIGESTS])
def test_subdivision_payload_digests(fan, sigmas, digest):
    # The n = 5 payloads of the P^1 and plane benchmarks keep their bytes:
    # cells, halfspaces, witnesses, their order and the f-vectors.
    import hashlib
    import json

    payload = subdivide_map_moduli(5, [ContactOrder.of(s) for s in sigmas], fan).to_json()
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_functionals_computed_once(monkeypatch):
    # stats() reads the functionals that subdivide_map_moduli computed.
    import troplog.subdivision

    calls = []

    def counted(cx, key):
        calls.append(key)
        return cone_functionals(cx, key)

    monkeypatch.setattr(troplog.subdivision, "cone_functionals", counted)
    sub = subdivide_map_moduli(5, ContactOrder.of([1, 1, 1, 1, -4]), P1)
    sub.to_json()
    assert len(calls) == len(sub.complex.cones) == 26


def test_functional_beyond_fan_dimension_rejected(monkeypatch):
    # The functionals of a two-target cone have a coordinate 1, which a
    # 1-D fan has no room for; a functional may read only K's coordinates,
    # and either is found before any kernel call.
    import troplog.feasibility

    sigma = [ContactOrder.of([1, 1, 1, -3]), ContactOrder.of([1, -3, 1, 1])]
    sub = subdivide_map_moduli(4, sigma, PLANE)
    for key, K in sub.complex.cones.items():
        with pytest.raises(LengthMismatch, match="coordinate 1, in a fan of dimension 1"):
            subdivide_cone(K, sub.functionals[key], P1)
        with pytest.raises(LengthMismatch, match="coordinate 1, in a fan of dimension 1"):
            face_census(K, sub.functionals[key], P1)
    with pytest.raises(LengthMismatch, match="missing functional"):
        subdivide_cone(free_line(), {("v", 1): AffineExpr.symbol("c")}, PLANE)
    kernel_calls = []
    monkeypatch.setattr(troplog.feasibility, "_certified_point", lambda *args: kernel_calls.append(args))
    K = Cone("K", (Coord("l_e0", "nonneg"), Coord("c", "free")))
    functionals = {("v0", 0): AffineExpr.symbol("c"), ("v1", 0): AffineExpr.parse("zz + c")}
    for call in (subdivide_cone, face_census):
        with pytest.raises(LengthMismatch, match="vertex 'v1', coordinate 0, names unknown 'zz'"):
            call(K, functionals, P1)
    assert kernel_calls == []


HAND_BUILT = Cone("K", (Coord("l_e0", "nonneg"), Coord("c1", "free"), Coord("c2", "free")))
HAND_BUILT_IMAGES = [
    # The two coordinates have the common factors 2 and 1/3.
    ("2*l_e0 + 2*c1", "1/3*c2"),
    ("1/2*c1 - 3/4*l_e0", "5/6*l_e0 + 3/2*c2 - 1/4*c1"),
    ("2*l_e0 + 2*c1", "1/3*c2"),
    ("7/3 - 1/5*c1", "2/7*c2 - c1 + 1/2"),
    # Proportional images, which one scale per image would merge.
    ("1/2*l_e0 + 1/2*c1", "1/2*c2"),
    ("l_e0 + c1", "c2"),
]


@pytest.mark.parametrize("fan", [P1, PLANE, QUADRANTS], ids=["p1", "plane", "quadrants"])
def test_integer_pullback_of_fractional_images(fan):
    # The integer rows of the images share one scale for the cone, so a
    # 2-D wall such as -x + y pulls back to -(2*l_e0 + 2*c1) + 1/3*c2, not
    # -(l_e0 + c1) + c2, and the proportional images stay two images.
    import troplog.subdivision as sd
    from oracles import assignment_subdivide_cone, witness_face_census

    functionals = {
        (f"v{i}", j): AffineExpr.parse(text)
        for i, image in enumerate(HAND_BUILT_IMAGES)
        for j, text in enumerate(image[: fan.dim])
    }
    distinct = sd._encoded(HAND_BUILT, functionals, fan.dim)[3]
    assert len(distinct) == len({image[: fan.dim] for image in HAND_BUILT_IMAGES}) == 5
    assert distinct[-1] == tuple(tuple(2 * x for x in row) for row in distinct[-2])
    cells = subdivide_cone(HAND_BUILT, functionals, fan)
    assert len(cells) > 2
    assert cells == assignment_subdivide_cone(HAND_BUILT, functionals, fan)
    assert face_census(HAND_BUILT, functionals, fan) == witness_face_census(HAND_BUILT, functionals, fan)


# P1, with and without the origin and in any order, where the cells and the
# interior census are read from the slope order.
P1_REORDERED = Fan.of([[], [(-1,)], [(1,)]], 1)
P1_FANS = [
    pytest.param(P1, id="p1"),
    pytest.param(P1_WITHOUT_ORIGIN, id="p1-without-origin"),
    pytest.param(P1_REORDERED, id="p1-reordered"),
]
# n = 3..6: slopes of one sign but one, mixed slopes, and zero slopes; the
# reordered fan, which only moves the fan indices, stops at n = 5.
ORDER_SIGMAS = [
    (1, 1, -2), (1, 0, -1), (0, 0, 0),
    (1, 1, 1, -3), (2, -1, 1, -2), (1, 0, 0, -1),
    (1, 1, 1, 1, -4), (2, -1, 1, -3, 1), (0, 1, 0, -1, 0),
    (1, 1, 1, 1, 1, -5), (2, 0, -1, 1, -2, 0),
]


def spy_slope_order(monkeypatch) -> list:
    """Record what each call of ``_slope_order`` returns."""
    import troplog.subdivision as sd

    found, real = [], sd._slope_order

    def spy(*args):
        found.append(real(*args))
        return found[-1]

    monkeypatch.setattr(sd, "_slope_order", spy)
    return found


@pytest.mark.parametrize("fan", P1_FANS)
def test_slope_order_matches_search_and_oracle(monkeypatch, fan):
    # The payload read from the slope order is the search's, byte for byte,
    # f-vectors included, and its cells are those of the brute force over
    # all assignments.
    import json

    from oracles import assignment_subdivide_cone

    found = spy_slope_order(monkeypatch)
    for sigma in ORDER_SIGMAS if fan is not P1_REORDERED else [s for s in ORDER_SIGMAS if len(s) <= 5]:
        sub = subdivide_map_moduli(len(sigma), ContactOrder.of(sigma), fan)
        got = json.dumps(sub.to_json())
        with monkeypatch.context() as m:
            search_everywhere(m)
            assert json.dumps(subdivide_map_moduli(len(sigma), ContactOrder.of(sigma), fan).to_json()) == got, sigma
        for key, K in sub.complex.cones.items():
            assert sub.cells[key] == assignment_subdivide_cone(K, sub.functionals[key], fan), (sigma, key)
    assert found and None not in found


@pytest.mark.parametrize("fan", P1_FANS)
def test_slope_order_kernel_calls(monkeypatch, fan):
    # On P1 each cell of a distinct encoding takes one kernel call,
    # rows_scaled_point for its witness, and the cones of that encoding
    # share it; prune_rows never runs, and stats() calls no kernel.
    import troplog.feasibility as fe
    import troplog.subdivision as sd

    calls = {"kernel": 0, "rows_scaled_point": 0, "prune_rows": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(fe, "_certified_point", counted("kernel", fe._certified_point))
    for name in ("rows_scaled_point", "prune_rows"):
        monkeypatch.setattr(sd, name, counted(name, getattr(sd, name)))
    sub = subdivide_map_moduli(6, ContactOrder.of([2, 0, -1, 1, -2, 0]), fan)
    cells = sub.stats()["total_max_cells"]
    assert cells == sum(map(len, sub.cells.values())) == 970
    shared = {}
    for key, K in sub.complex.cones.items():
        shared.setdefault(sd._encoded(K, sub.functionals[key], fan.dim)[:4], len(sub.cells[key]))
    assert sum(shared.values()) == 449
    assert calls == {"kernel": 449, "rows_scaled_point": 449, "prune_rows": 0}


c, d = AffineExpr.symbol("c"), AffineExpr.symbol("d")
la, lb, lc = AffineExpr.symbol("l_a"), AffineExpr.symbol("l_b"), AffineExpr.symbol("l_c")
LENGTHS_AND_C = Cone("K", (Coord("l_a", "nonneg"), Coord("l_b", "nonneg"), Coord("l_c", "nonneg"), Coord("c", "free")))
TWO_FREE = Cone("K", (*LENGTHS_AND_C.coords, Coord("d", "free")))
# Tree potentials: each pair of images joined in the tree differs by a
# multiple of its own length; the base may hold constants, another free
# coordinate, a length of the tree or none.
BASE = c * Fraction(1, 2) + d + lc * 3 + Fraction(7, 3)
TREE_POTENTIALS = [
    (TWO_FREE, [BASE, BASE + la * Fraction(2, 3), BASE - lb * 5, BASE + la * Fraction(2, 3)]),
    (LENGTHS_AND_C, [c + la, c + la * 2, c + la - lb]),
    (LENGTHS_AND_C, [c - la, c, c + lb, c + lb + lc]),
]
# Not tree potentials: a length used by two or three pairs, no free
# coordinate, free coefficients that differ, too few pairs, and the images
# of HAND_BUILT.
OTHER_IMAGES = [
    (LENGTHS_AND_C, [c, c + la, c + la + lb, c + la * 2 + lb]),
    (LENGTHS_AND_C, [c, c + la, c + la * 2]),
    (LENGTHS_AND_C, [la, la + lb]),
    (LENGTHS_AND_C, [c, c * 2 + la]),
    (LENGTHS_AND_C, [c, c + la, c + la + lb * 2 + lc]),
    (HAND_BUILT, [AffineExpr.parse(image[0]) for image in HAND_BUILT_IMAGES]),
]


def functionals_of(images):
    return {(f"v{i}", 0): f for i, f in enumerate(images)}


@pytest.mark.parametrize("fan", P1_FANS)
@pytest.mark.parametrize("K, images", TREE_POTENTIALS, ids=["two-free", "base-on-a-tree-length", "chain"])
def test_hand_built_tree_potentials(monkeypatch, fan, K, images):
    # Any tree potentials take the slope order, with the search's cells and
    # interior census and the brute force's cells.
    import troplog.subdivision as sd
    from oracles import assignment_subdivide_cone

    found = spy_slope_order(monkeypatch)
    functionals = functionals_of(images)
    cells = subdivide_cone(K, functionals, fan)
    census = sd._encoded_census(*sd._encoded(K, functionals, fan.dim)[:4], fan, ("gt",))
    assert len(found) == 2 and None not in found
    assert cells == assignment_subdivide_cone(K, functionals, fan)
    search_everywhere(monkeypatch)
    assert cells == subdivide_cone(K, functionals, fan)
    assert census == sd._encoded_census(*sd._encoded(K, functionals, fan.dim)[:4], fan, ("gt",))


@pytest.mark.parametrize(
    "fan", [*P1_FANS, pytest.param(Fan.trivial(1), id="trivial"), pytest.param(PLANE, id="plane")]
)
@pytest.mark.parametrize("K, images", OTHER_IMAGES, ids=["length-twice", "length-thrice", "no-free", "free-differs", "too-few-pairs", "hand-built"])
def test_other_functionals_keep_the_search(monkeypatch, fan, K, images):
    # A public call whose images are not tree potentials, or whose fan is
    # not P1, goes through the search and matches the brute force.
    import troplog.subdivision as sd
    from oracles import assignment_subdivide_cone

    found = spy_slope_order(monkeypatch)
    searched = []
    search = sd._search
    monkeypatch.setattr(sd, "_search", lambda slots, order: searched.append(slots) or search(slots, order))
    functionals = {(v, j): f for (v, _), f in functionals_of(images).items() for j in range(fan.dim)}
    assert subdivide_cone(K, functionals, fan) == assignment_subdivide_cone(K, functionals, fan)
    assert found == [None] and searched


LENGTH_AND_C = Cone("K", (Coord("l_e0", "nonneg"), Coord("c", "free")))
# A vertex with a constant image: its walls pull back to constant rows.  A
# nonzero image fails such a row in some cone of P1 or of the plane, and
# the search skips that option; the trivial fan has no walls.
CONSTANT_IMAGES = [
    *(
        pytest.param(fan, LENGTH_AND_C, [("c",), (k,), ("c + l_e0",)], fan is P1 and k != "0", id=f"{name}-{k}")
        for fan, name in [(P1, "p1"), (Fan.trivial(1), "trivial")]
        for k in ("-1", "0", "2", "-3/2")
    ),
    *(
        pytest.param(PLANE, HAND_BUILT, [("c1", "c2"), pair, ("l_e0 + c1", "c2")], pair != ("0", "0"), id=f"plane-{pair[0]},{pair[1]}")
        for pair in [("-1", "-1"), ("0", "0"), ("1", "0"), ("0", "2")]
    ),
]


@pytest.mark.parametrize("fan, K, images, skips", CONSTANT_IMAGES)
def test_constant_walls_match_oracles(monkeypatch, fan, K, images, skips):
    import troplog.subdivision as sd
    from oracles import assignment_subdivide_cone, witness_face_census

    walls, strict_walls = [], sd._strict_walls
    monkeypatch.setattr(sd, "_strict_walls", lambda rows: walls.append(strict_walls(rows)) or walls[-1])
    functionals = {(f"v{i}", j): AffineExpr.parse(x) for i, image in enumerate(images) for j, x in enumerate(image)}
    assert subdivide_cone(K, functionals, fan) == assignment_subdivide_cone(K, functionals, fan)
    assert face_census(K, functionals, fan) == witness_face_census(K, functionals, fan)
    assert (None in walls) == skips


# Cones whose images have equal encodings share one computation of their
# cells and of their interior census; each must still get what it gets
# alone.  P1 at n = 3..6 with σ = (1, ..., 1, -(n - 1)) and a generic σ,
# and the plane at n = 3..5.
GENERIC_SIGMAS = {3: (1, 2, -3), 4: (1, 2, -3, 0), 5: (1, 2, -3, 4, -4), 6: (1, 2, -3, 4, -5, 1)}
GROUP_CASES = (
    [pytest.param(P1, n, ContactOrder.of((1,) * (n - 1) + (1 - n,)), id=f"p1-n{n}") for n in range(3, 7)]
    + [pytest.param(P1, n, ContactOrder.of(s), id=f"p1-generic-n{n}") for n, s in GENERIC_SIGMAS.items()]
    + [pytest.param(PLANE, n, plane_sigmas(n), id=f"plane-n{n}") for n in range(3, 6)]
)


@pytest.mark.parametrize("fan, n, sigma", GROUP_CASES)
def test_shared_cells_match_each_cone_alone(fan, n, sigma):
    import functools

    import troplog.subdivision as sd

    sub = subdivide_map_moduli(n, sigma, fan)
    info = sd._encoded_cells.cache_info()
    encodings = {sd._encoded(K, sub.functionals[key], fan.dim)[:4] for key, K in sub.complex.cones.items()}
    assert (info.misses, info.hits) == (len(encodings), len(sub.complex.cones) - len(encodings))
    for key, K in sub.complex.cones.items():
        sd._encoded_cells.cache_clear()
        # Equal cells have equal parent, assignment, halfspaces, witness and dim.
        assert sub.cells[key] == subdivide_cone(K, sub.functionals[key], fan), key

    @functools.cache
    def closure(key):
        return frozenset({key}).union(*(closure(face) for face, _ in sub.complex.types[key].facets))

    interior = {
        key: sd._encoded_census(*sd._encoded(K, sub.functionals[key], fan.dim)[:4], fan, ("gt",))
        for key, K in sub.complex.cones.items()
    }
    for key, entry in sub.stats()["per_cone"].items():
        counts = {}
        for face in closure(key):
            for d, c in interior[face].items():
                counts[d] = counts.get(d, 0) + c
        assert entry["f_vector"] == dict(sorted(counts.items())), key
        assert entry["max_cells"] == len(sub.cells[key])


@pytest.mark.parametrize("first, second", [(P1, Fan.trivial(1)), (Fan.trivial(1), P1)], ids=["p1-first", "trivial-first"])
def test_shared_cells_are_kept_per_fan(first, second):
    # One encoding under two fans: the fan is part of what the cells are
    # shared by, so each fan gets its own cells in either order.
    import troplog.subdivision as sd
    from oracles import assignment_subdivide_cone

    functionals = {("v0", 0): c, ("v1", 0): c + AffineExpr.symbol("l_e0")}
    got = [subdivide_cone(LENGTH_AND_C, functionals, fan) for fan in (first, second)]
    assert sd._encoded_cells.cache_info().currsize == 2
    for fan, cells in zip((first, second), got):
        assert cells == assignment_subdivide_cone(LENGTH_AND_C, functionals, fan)
    assert len(got[0]) != len(got[1])


def test_shared_cells_cache_is_bounded():
    import troplog.subdivision as sd

    size = sd._encoded_cells.cache_info().maxsize
    assert isinstance(size, int) and 0 < size == sd._CELLS_CACHE_SIZE


def test_subdivision_is_freed_by_reference_counting(cyclic_garbage):
    # With the collector off, dropping the last reference frees the
    # complex, after its statistics too.
    import weakref

    sub = subdivide_map_moduli(6, ContactOrder.of((1, 1, 1, 1, 1, -5)), P1)
    assert sub.stats()["total_max_cells"] == 1122
    ref = weakref.ref(sub)
    del sub
    assert ref() is None


def test_plane_subdivision_leaves_no_cyclic_garbage(cyclic_garbage):
    # The search's cells and the statistics leave no cycle behind.
    sub = subdivide_map_moduli(4, plane_sigmas(4), PLANE)
    assert sub.stats()["total_max_cells"] > 0
    del sub
    assert cyclic_garbage() == []
