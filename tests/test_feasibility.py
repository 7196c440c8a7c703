import random
from fractions import Fraction

import pytest

import troplog.feasibility
from troplog import AffineExpr, check_feasible, prune_redundant
from troplog.feasibility import canonical_system, encode, rows_point

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
    assert rows_point(*_encoded([(x, "ge"), (-x, "ge")], [])) is not None
    assert rows_point(*_encoded([(x - 1, "ge"), (-x, "ge")], [])) is None
    assert rows_point(*_encoded([(x, "eq"), (x - 1, "eq")], [])) is None
    assert rows_point(*_encoded([(x - y, "gt"), (y, "gt")], ["z"])) is not None
    assert rows_point([], [1, 2]) is not None


def test_rows_point_values():
    # The empty system gets zeros over the order; otherwise the point is
    # the one check_feasible reports, by column.
    assert rows_point([], [2, 1]) == {1: 0, 2: 0}
    assert rows_point(*_encoded([(x - 1, "ge"), (-x + 3, "ge"), (y - x, "eq")], [])) == {1: 2, 2: 2}
    constraints = [(x * 2 - 1, "gt"), (-x + y, "ge"), (-y + 4, "gt")]
    point = rows_point(*_encoded(constraints, []))
    assert point == {2: Fraction(9, 4), 1: Fraction(11, 8)} and list(point) == [2, 1]
    assert {"xy"[p - 1]: q for p, q in point.items()} == check_feasible(constraints).witness
    assert all(type(q) is Fraction for q in point.values())


def test_row_path_certifies_its_witness(monkeypatch):
    # A wrong back-substituted point must raise, never pass as a verdict.
    rows, order = _encoded([(x, "ge"), (-x + 1, "ge"), (y - x, "gt")], [])
    assert rows_point(rows, order) is not None
    back = troplog.feasibility._back_substitute
    monkeypatch.setattr(
        troplog.feasibility, "_back_substitute", lambda record: {p: q + 5 for p, q in back(record).items()}
    )
    with pytest.raises(RuntimeError):
        rows_point(rows, order)
    with pytest.raises(RuntimeError):
        check_feasible([(x, "ge"), (-x + 1, "ge"), (y - x, "gt")])


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
        assert (rows_point(*_encoded(constraints, variables)) is not None) == want.feasible, constraints
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
