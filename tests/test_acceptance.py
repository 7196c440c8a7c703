"""Acceptance gate: one test per acceptance criterion.

Each test prints a single PASS/FAIL line (bypassing capture, so the lines
show up in a plain ``pytest`` run) and asserts the criterion.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction

import pytest

from troplog import (
    AffineExpr,
    ContactOrder,
    Edge,
    Fan,
    NonZeroSum,
    PLFunction,
    SelfMapNormalForm,
    TropicalMapPoint,
    Tree,
    build_map_moduli,
    classify_self_map,
    enumerate_tree_types,
    extend_from_leg_slopes,
    is_balanced,
    multidegree,
    product_decomposition,
    stabilize,
    subdivide_map_moduli,
    vertex_values,
)
from oracles import random_stable_tree, random_tree, random_zero_sum, solve_balancing_system, count_trivalent_by_splits


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[{tag}] criterion {num}: {name}{suffix}"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, file=sys.stdout, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_existence_uniqueness():
    rng = random.Random(101)
    checked = 0
    ok = True
    for _ in range(500):
        n = rng.randint(3, 12)
        t = random_tree(rng, n)
        sigma = random_zero_sum(rng, n)
        f = extend_from_leg_slopes(t, sigma)
        expected = solve_balancing_system(t, sigma)
        if expected is None or list(f.edge_slopes) != expected:
            ok = False
            break
        checked += 1
    rejected = 0
    for _ in range(100):
        n = rng.randint(3, 12)
        t = random_tree(rng, n)
        vals = [rng.randint(-9, 9) for _ in range(n)]
        if sum(vals) == 0:
            vals[0] += 1
        with pytest.raises(NonZeroSum):
            extend_from_leg_slopes(t, ContactOrder.of(vals))
        rejected += 1
    report(1, "existence/uniqueness of balanced extensions", ok and rejected == 100,
           f"{checked} trees vs linear-algebra oracle, {rejected} nonzero sums rejected")


def test_criterion_2_kernel_constancy():
    rng = random.Random(202)
    ok = True
    for _ in range(200):
        n = rng.randint(2, 10)
        t = random_tree(rng, n)
        f = extend_from_leg_slopes(t, ContactOrder.of([0] * n), base_value=AffineExpr.symbol("c"))
        values = vertex_values(f)
        if any(values[v] != AffineExpr.symbol("c") for v in t.vertices):
            ok = False
            break
    report(2, "zero contact order extends to a constant", ok, "200 random trees")


def test_criterion_3_balanced_iff_zero_multidegree():
    rng = random.Random(303)
    cases = 0
    ok = True
    while cases < 1000:
        n = rng.randint(2, 8)
        t = random_tree(rng, n)
        if rng.random() < 0.5:
            # balanced by construction
            f = extend_from_leg_slopes(t, random_zero_sum(rng, n))
        else:
            f = PLFunction(
                t,
                t.vertices[0],
                AffineExpr.constant(0),
                tuple(rng.randint(-4, 4) for _ in t.edges),
                tuple(rng.randint(-4, 4) for _ in range(n)),
            )
        zero_everywhere = all(d == 0 for _, d in multidegree(f).degrees)
        if is_balanced(f) != zero_everywhere:
            ok = False
            break
        cases += 1
    report(3, "balancing equals vanishing multidegree", ok, f"{cases} slope assignments")


def test_criterion_4_trivalent_counts():
    expected = {3: 1, 4: 3, 5: 15, 6: 105, 7: 945}
    # A stable tree with n legs is trivalent iff it has n - 3 edges.
    counts = {
        n: sum(len(ct.tree.edges) == n - 3 for ct in enumerate_tree_types(n)) for n in range(3, 8)
    }
    oracle = {n: count_trivalent_by_splits(n) for n in range(3, 8)}
    ok = counts == expected == oracle
    report(4, "trivalent type counts are (2n-5)!!", ok, f"{[counts[n] for n in range(3, 8)]}")


def test_criterion_5_product_decomposition():
    rng = random.Random(505)
    checks = 0
    ok = True
    for n in range(3, 7):
        sigmas = [random_zero_sum(rng, n) for _ in range(10)]
        for sigma in sigmas:
            cx = build_map_moduli(n, sigma)
            if any(cx.cones[k].dim != (n - 3) + 1 for k in cx.maximal_keys()):
                ok = False
            for leg in range(1, n + 1):
                rep = product_decomposition(n, sigma, leg)
                if not rep.certified:
                    ok = False
                checks += 1
    report(5, "map moduli factor as curve moduli times a line", ok,
           f"{checks} (n, sigma, leg) certificates, n = 3..6")


def test_criterion_6_distinct_splittings():
    ok = True
    pairs = 0
    for n in range(4, 7):
        sigma = ContactOrder.of([2**k for k in range(n - 1)] + [1 - 2 ** (n - 1)])
        for leg in range(1, n + 1):
            rep = product_decomposition(n, sigma, leg)
            for other, witness in rep.distinct_splittings.items():
                if witness is None:
                    ok = False
                pairs += 1
    report(6, "splittings at different legs are genuinely different", ok,
           f"witnesses for {pairs} ordered leg pairs, n = 4..6")


def _sample_point(rng: random.Random, variables: list[str]) -> dict[str, Fraction]:
    """Random point of the cone: positive lengths, unconstrained translation."""
    return {
        v: Fraction(rng.randint(-997, 997) if v == "c" else rng.randint(1, 997), 256)
        for v in variables
    }


def test_criterion_7_subdivision_soundness():
    rng = random.Random(707)
    fan = Fan.projective_line()
    ok = True
    sampled = 0
    for n in range(3, 6):
        sigma = random_zero_sum(rng, n)
        sub = subdivide_map_moduli(n, [sigma], fan)
        per_cone = max(1, 1000 // max(1, len(sub.complex.maximal_keys())))
        for key in sub.complex.maximal_keys():
            cells = [c for c in sub.cells[key]]
            variables = [c.name for c in sub.complex.cones[key].coords]
            for _ in range(per_cone):
                point = _sample_point(rng, variables)
                covering = [c for c in cells if c.contains(point)]
                strict = [c for c in cells if c.strictly_contains(point)]
                if not covering or len(strict) > 1:
                    ok = False
                sampled += 1
        # trivial fan gives back the cones themselves
        trivial = subdivide_map_moduli(n, [sigma], Fan.trivial(1))
        if any(len(cs) != 1 for cs in trivial.cells.values()):
            ok = False

    two = subdivide_map_moduli(3, [ContactOrder.of([1, 1, -2])], fan)
    if two.stats()["total_max_cells"] != 2:
        ok = False
    four = subdivide_map_moduli(4, [ContactOrder.of([1, 1, 1, -3])], fan)
    trivalent = [k for k in four.complex.maximal_keys()]
    if any(len(four.cells[k]) != 3 for k in trivalent):
        ok = False
    report(7, "target-fan subdivision covers each cone exactly once", ok,
           f"{sampled} sampled points, n = 3..5, plus worked n=3 and n=4 cases")


def test_criterion_8_self_map_algebra():
    rng = random.Random(808)
    ok = True
    identity = SelfMapNormalForm(1, Fraction(0))
    for _ in range(1000):
        maps = [
            classify_self_map(rng.randint(-6, 6), Fraction(rng.randint(-20, 20), rng.randint(1, 5)))
            for _ in range(3)
        ]
        f, g, h = maps
        if f.compose(g).compose(h) != f.compose(g.compose(h)):
            ok = False
        if f.compose(g).degree != f.degree * g.degree:
            ok = False
        if any(m.kernel_order != abs(m.degree) for m in maps):
            ok = False
        if f.compose(identity) != f or identity.compose(f) != f:
            ok = False
    report(8, "self-map normal forms compose correctly", ok, "1000 random triples")


def _plant_unstable(rng: random.Random, t: Tree) -> Tree:
    """Subdivide some edges and attach constant sprouts."""
    vertices = list(t.vertices)
    edges = list(t.edges)
    legs = list(t.legs)
    fresh = itertools.count()

    def new_vertex():
        while True:
            v = f"u{next(fresh)}"
            if v not in vertices:
                return v

    for _ in range(rng.randint(1, 3)):
        if edges and rng.random() < 0.7:
            i = rng.randrange(len(edges))
            a, b = edges[i].ends
            total = edges[i].length
            cut = total * Fraction(rng.randint(1, 3), 4)
            mid = new_vertex()
            vertices.append(mid)
            edges[i] = Edge((a, mid), cut)
            edges.append(Edge((mid, b), total - cut))
        else:
            at = rng.choice(vertices)
            tip = new_vertex()
            vertices.append(tip)
            edges.append(Edge((at, tip), Fraction(rng.randint(1, 5))))
    return Tree(tuple(vertices), tuple(edges), tuple(legs))


def test_criterion_9_stabilization():
    rng = random.Random(909)
    ok = True
    for _ in range(200):
        n = rng.randint(3, 7)
        base = random_stable_tree(rng, n)
        t = _plant_unstable(rng, base)
        sigma = random_zero_sum(rng, n)
        f = extend_from_leg_slopes(t, sigma)
        p = TropicalMapPoint.of(t, [f])
        q = stabilize(p)
        # idempotent, balanced (enforced on construction), same contacts
        if stabilize(q).tree != q.tree or q.contacts != p.contacts:
            ok = False
        if not all(is_balanced(g) for g in q.functions):
            ok = False
        # every 2-valent vertex with nonzero through-slope survives
        adj = t.adjacency()
        for v in t.vertices:
            incident = adj[v]
            if len(incident) + len(t.legs_at(v)) >= 3 or len(incident) != 2:
                continue
            if any(f.slope(v, w, i) != 0 for w, i in incident) and v not in q.tree.vertices:
                ok = False
        # surviving vertices keep their values
        old = vertex_values(f)
        new = vertex_values(q.functions[0])
        if any(old[v] != new[v] for v in q.tree.vertices):
            ok = False
    report(9, "stabilization is idempotent and slope-preserving", ok, "200 planted-unstable points")
