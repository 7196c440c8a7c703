import random
from fractions import Fraction
from math import gcd, lcm

import pytest

import troplog.feasibility
import troplog.subdivision
from troplog import AffineExpr, ContactOrder, Fan, check_feasible, prune_redundant, subdivide_map_moduli
from troplog.feasibility import encode, prune_rows, rows_scaled_point

from oracles import canonical_system

x = AffineExpr.symbol("x")
y = AffineExpr.symbol("y")


def test_point_witness():
    res = check_feasible([(x, "ge"), (-x, "ge")])
    assert res.feasible
    assert res.witness == {"x": Fraction(0)}


def test_infeasible():
    assert not check_feasible([(x - 1, "ge"), (-x, "ge")]).feasible


def test_mixed_strict():
    l = AffineExpr.symbol("l")
    c = AffineExpr.symbol("c")
    res = check_feasible([(l, "ge"), (c + l * 2, "gt"), (-c, "gt")])
    assert res.feasible
    w = res.witness
    assert w["l"] >= 0 and w["c"] + 2 * w["l"] > 0 and -w["c"] > 0


def test_equalities():
    res = check_feasible([(x - y, "eq"), (x - 2, "eq"), (y, "ge")])
    assert res.feasible and res.witness == {"x": 2, "y": 2}
    assert not check_feasible([(x, "eq"), (x - 1, "eq")]).feasible


def test_strict_point_infeasible():
    assert not check_feasible([(x, "gt"), (-x, "ge")]).feasible


def test_grid_search_agreement():
    # Soundness against brute force: an infeasible verdict means no grid
    # point satisfies the system; a feasible verdict carries a witness.
    rng = random.Random(17)
    names = ["x", "y", "z"]
    from oracles import grid_points

    for _ in range(60):
        nv = rng.randint(1, 3)
        vars_ = names[:nv]
        constraints = []
        for _ in range(rng.randint(1, 4)):
            expr = AffineExpr.make(
                rng.randint(-2, 2), {v: rng.randint(-2, 2) for v in vars_}
            )
            constraints.append((expr, rng.choice(["ge", "ge", "gt", "eq"])))
        res = check_feasible(constraints, vars_)
        if res.feasible:
            for expr, rel in constraints:
                val = expr.evaluate(res.witness)
                assert val > 0 if rel == "gt" else val >= 0 if rel == "ge" else val == 0
        else:
            for point in grid_points(vars_, bound=2):
                ok = True
                for expr, rel in constraints:
                    val = expr.evaluate(point)
                    ok &= val > 0 if rel == "gt" else val >= 0 if rel == "ge" else val == 0
                assert not ok


def test_prune_redundant():
    from oracles import witness_prune_redundant

    pruned = prune_redundant([(x, "ge"), (x + 1, "ge"), (x * 2, "ge"), (y, "ge")])
    assert canonical_system(pruned) == canonical_system([(x, "ge"), (y, "ge")])
    # Copies dedupe, a satisfied constant goes, equalities stay; a violated
    # constant stays and makes every other inequality redundant.
    system = [(x, "ge"), (x + 1, "ge"), (AffineExpr.constant(2), "ge"), (x - y, "eq"), (x * 2, "ge")]
    assert prune_redundant(system) == witness_prune_redundant(system) == [(x, "ge"), (x - y, "eq")]
    system.append((AffineExpr.constant(-3), "ge"))
    assert prune_redundant(system) == witness_prune_redundant(system) == [(x - y, "eq"), (AffineExpr.constant(-1), "ge")]


def test_canonical_system_scaling_invariant():
    a = canonical_system([(x * 2 - y, "ge")])
    b = canonical_system([(x - y * Fraction(1, 2), "ge")])
    assert a == b


def _encoded(constraints, variables):
    """Integer rows over the sorted names of the system and ``variables``,
    and the order that eliminates every column."""
    names = sorted({name for expr, _ in constraints for name in expr.variables}.union(variables))
    return encode(constraints, {name: k for k, name in enumerate(names, 1)}), list(range(1, len(names) + 1))


def test_row_path_verdicts():
    assert rows_scaled_point(*_encoded([(x, "ge"), (-x, "ge")], [])) is not None
    assert rows_scaled_point(*_encoded([(x - 1, "ge"), (-x, "ge")], [])) is None
    assert rows_scaled_point(*_encoded([(x, "eq"), (x - 1, "eq")], [])) is None
    assert rows_scaled_point(*_encoded([(x - y, "gt"), (y, "gt")], ["z"])) is not None
    assert rows_scaled_point([], [1, 2]) is not None


def test_kernel_point_values():
    # The empty system gets zeros over the order; otherwise the point is
    # the one check_feasible reports, by column and in the same key order.
    kernel = troplog.feasibility._certified_point
    assert kernel([], [2, 1]) == ({1: (0, 1), 2: (0, 1)}, [1, 0, 0])
    assert kernel(*_encoded([(x - 1, "ge"), (-x + 3, "ge"), (y - x, "eq")], [])) == ({1: (2, 1), 2: (2, 1)}, [1, 2, 2])
    constraints = [(x * 2 - 1, "gt"), (-x + y, "ge"), (-y + 4, "gt")]
    pairs, scaled = kernel(*_encoded(constraints, []))
    assert pairs == {2: (9, 4), 1: (11, 8)} and list(pairs) == [2, 1] and scaled == [8, 11, 18]
    witness = check_feasible(constraints).witness
    assert witness == {"y": Fraction(9, 4), "x": Fraction(11, 8)} and list(witness) == ["y", "x"]
    assert all(type(q) is Fraction for q in witness.values())


def test_kernel_points_build_no_fraction(monkeypatch):
    # Elimination and back-substitution run in integers; of the kernel's
    # users only check_feasible builds Fractions, for its witness.
    constraints = [(x * 2 - 1, "gt"), (-x + y, "ge"), (-y + 4, "gt")]
    rows, order = _encoded(constraints, [])
    monkeypatch.setattr(troplog.feasibility, "Fraction", None)
    assert rows_scaled_point(rows, order) == [8, 11, 18]
    with pytest.raises(TypeError):
        check_feasible(constraints)


def test_row_path_certifies_its_witness(monkeypatch):
    # A wrong back-substituted point must raise, never pass as a verdict.
    rows, order = _encoded([(x, "ge"), (-x + 1, "ge"), (y - x, "gt")], [])
    assert rows_scaled_point(rows, order) is not None
    # Each value is a reduced pair (numerator, denominator); add 5 to it.
    back = troplog.feasibility._back_substitute
    monkeypatch.setattr(
        troplog.feasibility,
        "_back_substitute",
        lambda record: {p: (n + 5 * d, d) for p, (n, d) in back(record).items()},
    )
    with pytest.raises(RuntimeError):
        rows_scaled_point(rows, order)
    with pytest.raises(RuntimeError):
        check_feasible([(x, "ge"), (-x + 1, "ge"), (y - x, "gt")])


@pytest.mark.parametrize(
    "rows, order",
    [([((0, 1, 1), "ge")], [1]), ([((0, 1), "eq")], [2]), ([((0, 1), "gt")], [1, 2]), ([], [1, 3]), ([], [1, 1])],
    ids=["missing-column", "eq-row-unknown-column", "extra-column", "empty-gap", "empty-repeat"],
)
def test_order_must_permute_the_columns(rows, order):
    # An order that misses a column, names one the rows lack or repeats
    # one is an error, raised without assert so that it holds under -O.
    for kernel in (troplog.feasibility._certified_point, rows_scaled_point):
        with pytest.raises(ValueError, match="not a permutation of the columns"):
            kernel(rows, order)


def test_unknown_relation():
    with pytest.raises(ValueError, match="unknown relation 'lt'"):
        check_feasible([(AffineExpr.symbol("x"), "lt")])


def _same_as_fraction_oracle(rows, order) -> bool:
    """Check the kernel's pairs and its scaled point against the Fraction
    back-substitution of the same elimination record; return the verdict."""
    from oracles import fraction_back_substitute

    found, scaled = troplog.feasibility._certified_point(rows, order), rows_scaled_point(rows, order)
    record = troplog.feasibility._eliminate(list(rows), order)
    if record is None:
        assert found is None and scaled is None, rows
        return False
    want = fraction_back_substitute(record)
    pairs = found[0]
    assert pairs == {p: (q.numerator, q.denominator) for p, q in want.items()}, (rows, order)
    assert list(pairs) == list(want) and found[1] == scaled, (rows, order)
    den = lcm(*(q.denominator for q in want.values()))
    want_scaled = [den] + [0] * len(order)
    for p, q in want.items():
        want_scaled[p] = q.numerator * (den // q.denominator)
    assert scaled == want_scaled and all(type(k) is int for k in scaled), (rows, order)
    return True


def _random_rows(rng: random.Random, m: int) -> list:
    """Reduced integer rows over m columns: most hold at a planted integer
    point (some with equality), the rest are random, and constant and zero
    rows of every relation turn up too."""
    planted = [rng.randint(-3, 3) for _ in range(m)]
    rows = []
    for _ in range(rng.randint(0, 2 * m + 1)):
        rel = rng.choice(["eq", "ge", "ge", "gt", "gt"])
        kind = rng.random()
        if kind < 0.1:
            row = (rng.randint(-2, 2),) + (0,) * m
        elif kind < 0.15:
            row = (0,) * (m + 1)
        else:
            normal = [rng.choice([-3, -2, -1, 0, 0, 1, 2, 3]) for _ in range(m)]
            value = 0 if rel == "eq" else rng.randint(rel == "gt", 3)
            const = value - sum(a * k for a, k in zip(normal, planted))
            row = (const if kind < 0.8 else rng.randint(-4, 4), *normal)
        g = gcd(*row)
        rows.append((tuple(k // g for k in row) if g > 1 else row, rel))
    return rows


def test_integer_back_substitution_matches_fraction_oracle():
    # The same point as the Fraction back-substitution, value for value and
    # in the same key order, scaled to the same integers, on random systems.
    rng = random.Random(20)
    feasible = 0
    for _ in range(2500):
        m = rng.randint(1, 4)
        feasible += _same_as_fraction_oracle(_random_rows(rng, m), rng.sample(range(1, m + 1), m))
    assert 800 < feasible < 2300  # both verdicts are well represented


def _doubled_rows(rng: random.Random, m: int) -> list:
    """``_random_rows`` with one or two non-constant rows put in both as
    'ge' and as 'gt', a few exact copies and one more constant row."""
    rows = _random_rows(rng, m)
    normal = [rng.choice([-2, -1, 1, 2])] + [rng.choice([-2, -1, 0, 1, 2]) for _ in range(m - 1)]
    fresh = troplog.feasibility._reduced((rng.randint(-3, 3), *rng.sample(normal, m)))
    candidates = [row for row, _ in rows if any(row[1:])] + [fresh]
    for row in rng.sample(candidates, rng.randint(1, min(len(candidates), 2))):
        rows += [(row, "ge"), (row, "gt")]
    rows += rng.sample(rows, min(len(rows), rng.randint(0, 3)))
    const, rel = rng.choice([(1, "ge"), (1, "gt"), (0, "ge"), (0, "eq"), (-1, "ge"), (0, "gt")])
    rows.append(((const,) + (0,) * m, rel))
    rng.shuffle(rows)
    return rows


def test_merged_strict_copies_match_fraction_oracle():
    # Phase 2 keeps one table entry per row, strict if a 'gt' copy of it
    # turned up: on systems with a row both as 'ge' and as 'gt', exact
    # copies and constant rows, the verdict and the witness are those of
    # the Fraction kernel, value for value and in the same key order.
    from oracles import fraction_check_feasible

    rng = random.Random(23)
    names = ["w", "x", "y", "z"]
    feasible = 0
    for _ in range(1500):
        m = rng.randint(1, 4)
        rows = _doubled_rows(rng, m)
        assert any((row, "ge") in rows and (row, "gt") in rows for row, _ in rows)
        constraints = [troplog.feasibility.decode(row, names[:m], rel) for row, rel in rows]
        variables = rng.sample(names[:m], m)
        got, want = check_feasible(constraints, variables), fraction_check_feasible(constraints, variables)
        assert got == want and list(got.witness or ()) == list(want.witness or ()), rows
        assert _same_as_fraction_oracle(rows, [names.index(v) + 1 for v in variables]) == got.feasible, rows
        feasible += got.feasible
    assert 450 < feasible < 1050  # both verdicts are well represented


PLANE = Fan.of([[(1, 0), (0, 1)], [(0, 1), (-1, -1)], [(-1, -1), (1, 0)]], 2)


@pytest.mark.parametrize(
    "sigma, fan",
    [
        ([1, 1, 1, 1, -4], Fan.projective_line()),
        ([2, -1, 1, -3, 1], Fan.projective_line()),
        ([[1, 1, 1, 1, -4], [1, -4, 1, 1, 1]], PLANE),
    ],
    ids=["p1-one-negative", "p1-mixed", "plane"],
)
def test_subdivision_kernel_calls_match_fraction_oracle(monkeypatch, sigma, fan):
    # Every kernel call that a subdivision and its statistics make at n = 5
    # gives the point of the Fraction back-substitution.  Each cone
    # computes its cells alone, not once per distinct encoding, so that
    # the systems of every cone are checked.
    calls, kernel = [], troplog.feasibility._certified_point

    def recorded(rows, order):
        calls.append((list(rows), list(order)))
        return kernel(rows, order)

    contact = [ContactOrder.of(s) for s in sigma] if fan is PLANE else ContactOrder.of(sigma)
    with monkeypatch.context() as m:
        m.setattr(troplog.feasibility, "_certified_point", recorded)
        m.setattr(troplog.subdivision, "_encoded_cells", troplog.subdivision._encoded_cells.__wrapped__)
        subdivide_map_moduli(5, contact, fan).stats()
    feasible = sum(_same_as_fraction_oracle(rows, order) for rows, order in calls)
    # On P1 every call is a cell's witness; on the plane most calls of the
    # search and of prune_rows are infeasible verdicts.
    assert feasible > 80 and (feasible < len(calls)) == (fan is PLANE)


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6]))


def test_fraction_oracle_agreement():
    # The integer kernel must reproduce the former Fraction kernel exactly:
    # the same verdict and the same witness on every system.
    from oracles import fraction_check_feasible

    rng = random.Random(2019)
    pool = ["w", "x", "y", "z", "u", "v"]
    feasible = 0
    for _ in range(600):
        used = rng.sample(pool[:4], rng.randint(1, 4))
        constraints = []
        for _ in range(rng.randint(1, 7)):
            coeffs = {v: _random_rational(rng) for v in used if rng.random() < 0.8}
            expr = AffineExpr.make(_random_rational(rng), coeffs)
            constraints.append((expr, rng.choice(["ge", "ge", "gt", "gt", "eq"])))
        variables = used + rng.sample(pool[4:], rng.randint(0, 2))
        rng.shuffle(variables)
        got = check_feasible(constraints, variables)
        want = fraction_check_feasible(constraints, variables)
        assert got.feasible == want.feasible, constraints
        assert (rows_scaled_point(*_encoded(constraints, variables)) is not None) == want.feasible, constraints
        assert got.witness == want.witness, constraints
        if got.feasible:
            assert list(got.witness) == list(want.witness)
            assert all(type(q) is Fraction for q in got.witness.values())
        feasible += got.feasible
        default = check_feasible(constraints)
        assert default == fraction_check_feasible(constraints)
    assert 100 < feasible < 500  # both verdicts are well represented


def test_unlisted_variables_are_eliminated_last():
    res = check_feasible([(x - y, "ge"), (y - 1, "gt"), (-y + 3, "ge")], ["x"])
    assert res.feasible and res.witness == {"y": 2, "x": 2}


def _counted_rows_scaled_point(monkeypatch) -> list:
    """Patch the kernel that ``prune_rows`` calls; return the call log."""
    calls = []
    kernel = troplog.feasibility.rows_scaled_point

    def counted(rows, order):
        calls.append(rows)
        return kernel(rows, order)

    monkeypatch.setattr(troplog.feasibility, "rows_scaled_point", counted)
    return calls


def _random_interior_system(rng: random.Random, m: int):
    """Rows strictly positive at a random integer point (den = 1): random
    normals, copies, positive constants, 'gt' rows and a row doubled
    without reduction, which ties with its original on every ray."""
    point = [1] + [rng.randint(-3, 3) for _ in range(m)]
    rows = []
    for _ in range(rng.randint(m + 1, 2 * m + 2)):
        normal = [rng.randint(-2, 2) for _ in range(m)]
        value = rng.randint(1, 4)
        const = value - sum(a * k for a, k in zip(normal, point[1:]))
        rows.append(((const, *normal), rng.choice(["ge", "ge", "ge", "gt"])))
    rows += rng.sample(rows, 2)
    rows.append(((rng.randint(1, 3),) + (0,) * m, "ge"))
    row, _ = rng.choice(rows)
    rows.append((tuple(2 * k for k in row), "ge"))
    rng.shuffle(rows)
    return rows, point


def test_shooting_keeps_the_rows_of_the_kernel_loop(monkeypatch):
    # Rays from an interior point only skip kernel calls: the kept rows are
    # those of the plain loop, in the same order, on every system.
    calls = _counted_rows_scaled_point(monkeypatch)
    rng = random.Random(15)
    plain = shot = 0
    for _ in range(300):
        m = rng.randint(1, 3)
        rows, point = _random_interior_system(rng, m)
        order = rng.sample(range(1, m + 1), m)
        before = len(calls)
        want = prune_rows(rows, order)
        plain += len(calls) - before
        before = len(calls)
        assert prune_rows(rows, order, point) == want, (rows, point)
        shot += len(calls) - before
    assert 0 < shot < plain


def test_clarkson_loop_keeps_the_rows_of_the_kernel_loop(monkeypatch):
    # Given a point, each 'ge' row that the rays leave undecided is tested
    # against the facets found so far, not against every other row: the
    # kept rows are those of the plain loop, in the same order, systems get
    # smaller than the plain loop's system for the same row, and a tie for
    # the first crossing falls back to that system.
    calls = _counted_rows_scaled_point(monkeypatch)
    crossing, ties = troplog.feasibility._first_crossing, []

    def recorded(rows, point, found):
        hit = crossing(rows, point, found)
        ties.append(hit is None)
        return hit

    monkeypatch.setattr(troplog.feasibility, "_first_crossing", recorded)
    rng = random.Random(23)
    smaller = larger = 0
    for _ in range(300):
        m = rng.randint(1, 3)
        rows, point = _random_interior_system(rng, m)
        order = rng.sample(range(1, m + 1), m)
        before = len(calls)
        want = prune_rows(rows, order)
        plain = {system[-1]: len(system) for system in calls[before:]}
        before = len(calls)
        assert prune_rows(rows, order, point) == want, (rows, point)
        smaller += sum(len(system) < plain[system[-1]] for system in calls[before:])
        larger += sum(len(system) > plain[system[-1]] for system in calls[before:])
    # A smaller system is a subset of the plain one: the kept rows before
    # each test are the same in both loops.
    assert smaller > 0 and larger == 0 and any(ties)


def test_shot_facets_match_pairwise_oracle():
    # Each unordered pair's rate, computed once, certifies the facets that
    # the rates of both ordered pairs did, on the random interior systems
    # of the tests above.
    from oracles import pairwise_shot_facets

    certified = 0
    for seed in (15, 22, 23):
        rng = random.Random(seed)
        for _ in range(300):
            rows, point = _random_interior_system(rng, rng.randint(1, 3))
            got = troplog.feasibility._shot_facets(rows, point)
            assert got == pairwise_shot_facets(rows, point), (rows, point)
            certified += len(got)
    assert certified > 300


def test_shooting_ties_certify_nothing(monkeypatch):
    # x >= 0 twice over, once as 2x: every ray meets both at once, so both
    # go to the kernel (3 calls without rays, 3 with), and the loop keeps
    # the later one, as without rays.  With rays, x takes one LP against
    # the facet y >= 0, whose segment crosses x and 2x at once: that tie
    # falls back to the call on all the other rows.  2x then takes one LP
    # and its segment crosses 2x alone.
    calls = _counted_rows_scaled_point(monkeypatch)
    rows = [((0, 1, 0), "ge"), ((0, 0, 1), "ge"), ((0, 2, 0), "ge")]
    assert prune_rows(rows, [1, 2], [1, 1, 1]) == prune_rows(rows, [1, 2]) == rows[1:]
    assert len(calls) == 3 + 3
    # A constant row has no direction to shoot along and falls along no
    # ray: alone, it is still dropped as a satisfied constant.
    assert prune_rows([((2, 0, 0), "ge")], [1, 2], [1, 1, 1]) == []


SIMPLEX = [((0, 1, 0), "ge"), ((0, 0, 1), "ge"), ((1, -1, -1), "ge")]


def test_shooting_certifies_every_facet_of_a_simplex(monkeypatch):
    # x > 0, y > 0, 1 - x - y > 0 at (1/3, 1/3): the ray along each inward
    # normal meets its own facet first, so no row goes to the kernel.
    calls = _counted_rows_scaled_point(monkeypatch)
    assert prune_rows(SIMPLEX, [1, 2], [3, 1, 1]) == SIMPLEX
    assert calls == []


def test_kernel_verdicts_build_no_fraction(monkeypatch):
    # prune_rows and the fan check read only the kernel's verdict, so they
    # give the same results with Fraction gone from the module; only
    # check_feasible, which builds the witness, needs it.
    from troplog import validate_fan

    rng = random.Random(22)
    systems = [(SIMPLEX, [3, 1, 1], [1, 2])]
    for _ in range(40):
        m = rng.randint(1, 3)
        rows, point = _random_interior_system(rng, m)
        systems.append((rows, point, rng.sample(range(1, m + 1), m)))
    fans = [PLANE, Fan.of([[(1, 0), (0, 1)], [(1, 1), (-1, 1)], [], [(1, 0)], [(0, 1)], [(1, 1)], [(-1, 1)]], 2, complete=False)]
    want = [(prune_rows(rows, order), prune_rows(rows, order, point)) for rows, point, order in systems]
    reports = [validate_fan(fan) for fan in fans]
    assert reports[0].ok and not reports[1].ok
    monkeypatch.setattr(troplog.feasibility, "Fraction", None)
    assert [(prune_rows(rows, order), prune_rows(rows, order, point)) for rows, point, order in systems] == want
    assert [validate_fan(fan) for fan in fans] == reports
    with pytest.raises(TypeError):
        check_feasible([(x, "ge")])


@pytest.mark.parametrize(
    "rows, point",
    [(SIMPLEX, [3, 0, 1]), (SIMPLEX, [1, 1, 1]), (SIMPLEX, [3, -1, 1]), (SIMPLEX, [-3, -1, -1]), (SIMPLEX[:2], [-1, 1, 1])],
    ids=["boundary", "outside", "negative-coordinate", "negative-denominator", "negated-cone"],
)
def test_shooting_needs_a_strictly_interior_point(rows, point):
    # On the boundary, outside, or over a negative denominator, even where
    # every row reads positive (x, y >= 0 at (1, 1) / -1 = (-1, -1)):
    # an error, raised without assert so that it holds under python -O too.
    with pytest.raises(RuntimeError):
        prune_rows(rows, [1, 2], point)


def test_shooting_refuses_equalities():
    # An 'eq' row holds only where it is zero, so no point is strictly
    # inside it.  Rays from (2, 1) would certify x - y >= 0 as a facet,
    # but y = 0 makes it as redundant as x >= 0, and the plain loop keeps
    # x >= 0: a point with an 'eq' row is an error.
    rows = [((0, 1, -1), "ge"), ((0, 1, 0), "ge"), ((0, 0, 1), "eq")]
    assert prune_rows(rows, [1, 2]) == rows[1:]
    with pytest.raises(RuntimeError):
        prune_rows(rows, [1, 2], [1, 2, 1])
