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
from troplog.errors import IncompleteFan, LengthMismatch, UnsupportedDimension
from troplog.feasibility import canonical_system, prune_redundant
from troplog.moduli import Cone, Coord
from troplog.subdivision import cone_functionals

P1 = Fan.projective_line()


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
        keys = {c.key for c in cells}
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
            face_cells = {c.key for c in sub.cells[fm.face_key]}
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


@pytest.mark.parametrize(
    "fan, n, sigma",
    [(P1, 5, ContactOrder.of([2, -1, 1, -3, 1])), (P1, 5, ContactOrder.of([0, 1, 0, -1, 0])), (PLANE, 4, plane_sigmas(4))],
    ids=["p1", "p1-zero-slopes", "plane"],
)
def test_carried_points_satisfy_their_rows(monkeypatch, fan, n, sigma):
    # The interior census carries a parent's point to a child whose new
    # rows it satisfies.  At every depth, each node's point must satisfy
    # all rows of the node, and the nodes must be those of the search that
    # runs the kernel at every node, which runs it more often.
    import troplog.subdivision as sd

    search = sd._search
    kernel_calls = {"carry": 0, "plain": 0}

    def counted(name, kernel):
        def call(rows, order):
            kernel_calls[name] += 1
            return kernel(rows, order)

        return call

    nodes = 0

    def checked(slots, order, carry=False):
        nonlocal nodes
        assert carry
        for depth in range(len(slots) + 1):
            got = list(search(slots[:depth], order, carry=True))
            plain = list(search(slots[:depth], order))
            assert [(p, r) for p, r, _ in got] == [(p, r) for p, r, _ in plain]
            for _, rows, point in got:
                assert all(_holds(row, rel, point) for row, rel in rows), (rows, point)
            nodes += len(got)
        return iter(got)

    sub = subdivide_map_moduli(n, sigma, fan)
    monkeypatch.setattr(sd, "_search", checked)
    monkeypatch.setattr(sd, "rows_scaled_point", counted("carry", sd.rows_scaled_point))
    monkeypatch.setattr(sd, "rows_point", counted("plain", sd.rows_point))
    sub.stats()
    assert nodes > len(sub.complex.cones)
    assert 0 < kernel_calls["carry"] < kernel_calls["plain"]


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


def test_functionals_computed_once(monkeypatch):
    # stats() reads the functionals that subdivide_map_moduli computed.
    import troplog.subdivision

    calls = []
    vertex_values = troplog.subdivision.vertex_values

    def counted(f):
        calls.append(f)
        return vertex_values(f)

    monkeypatch.setattr(troplog.subdivision, "vertex_values", counted)
    sub = subdivide_map_moduli(5, ContactOrder.of([1, 1, 1, 1, -4]), P1)
    sub.to_json()
    assert len(calls) == len(sub.complex.cones) == 26
