"""Exact rational linear feasibility by Fourier-Motzkin elimination.

Constraints are pairs (affine expression, relation) with relation one of
'ge' (>= 0), 'gt' (> 0), or 'eq' (= 0).  The kernel works on integer rows:
``encode`` turns each constraint into the tuple (const, c_1, ..., c_m) over
fixed variable columns, scaled by a positive rational to coprime integers,
and ``decode`` turns a row back into a constraint.  Equalities are
eliminated by substitution first, on the row's first nonzero column;
inequalities by pairwise combination, in the caller's column order.  Every
step is an integer combination of two rows followed by division by the gcd,
so elimination does no rational arithmetic.  When a system is feasible, a
point is reconstructed by back-substitution, also in integers: each value
is a reduced pair (numerator, denominator > 0), bounds are compared by
cross-multiplication, and ``lo + 1``, ``up - 1`` and ``(lo + up) / 2`` are
formed on the pairs.  ``fractions.Fraction`` appears only at the
``AffineExpr`` boundary: in ``decode``, in ``check_feasible``'s witness and
in the ``Feasibility`` type.

``rows_scaled_point(rows, order)`` is the entry point of the kernel: it
returns a point of a system of rows as integers over the common denominator
of its coordinates, or None when the system has none.  ``order`` must be a
permutation of the rows' columns, else ValueError.
Every point is certified: it is checked against every row in integer
arithmetic, over that denominator, and a failed check raises RuntimeError.
``holds_at`` makes the same check of a scaled point against other rows.
``prune_rows`` drops implied inequalities.  Given a point strictly inside
every row, it first shoots a ray from the point against each row's normal,
and the one row that a ray meets first is a facet with no kernel call (the
ray-shooting step of Clarkson 1994).  Each other 'ge' row is then tested
against the facets found so far, not against every row (Clarkson's
redundancy loop): the kernel either proves it implied or returns a point
outside it, and the row that the segment to that point crosses first is
one more facet.  Without a point, each 'ge' row takes one
``rows_scaled_point`` call on all the other rows.  Phase 2 of the
elimination keeps one table entry per row, with a strict flag that a 'gt'
copy of the row sets.  ``check_feasible`` and ``prune_redundant`` wrap
them for ``AffineExpr`` constraints; the witness of ``check_feasible`` is
checked against the caller's constraints too.  An infeasible verdict is the one
Fourier-Motzkin reaches: a combination of the rows that is a violated
constant.  No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .affine import AffineExpr

Constraint = tuple[AffineExpr, str]  # relation in {"ge", "gt", "eq"}
Row = tuple[int, ...]  # (const, c_1, ..., c_m) over a fixed variable order

_RELS = {"ge", "gt", "eq"}


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    witness: dict[str, Fraction] | None = None


def _coprime(expr: AffineExpr) -> list[int]:
    """Constant then term coefficients, scaled by a positive rational to
    coprime integers (all zero for the zero expression)."""
    nums = [expr.const, *(q for _, q in expr.terms)]
    den = lcm(*[q.denominator for q in nums])
    ints = [q.numerator * (den // q.denominator) for q in nums]
    g = gcd(*ints) or 1
    return [k // g for k in ints]


def _reduced(row: Row) -> Row:
    g = gcd(*row)
    return row if g <= 1 else tuple(k // g for k in row)


def _eliminate(rows: list[tuple[Row, str]], order: list[int]):
    """Fourier-Motzkin on reduced integer rows, eliminating every column.

    Returns None when the system is infeasible, else the record that
    back-substitution needs: the substitutions, as (pivot column, equality
    row), and the stages of phase 2, as (column, lower rows, upper rows)
    with a strict flag per row.  Phase 2 eliminates the columns in ``order``.
    """
    zero = (0,) * len(rows[0][0]) if rows else ()
    pos, neg = (1, *zero[1:]), (-1, *zero[1:])

    # Phase 1: one pass over the rows.  A nonzero equality becomes the pivot
    # when the pass reaches it and is substituted away, on its first nonzero
    # column, from every row; the pivot itself becomes the zero row, which
    # phase 2 drops.
    substitutions: list[tuple[int, Row]] = []
    for i, (pivot, rel) in enumerate(rows):
        if rel != "eq" or pivot == zero:
            continue
        if pivot == pos or pivot == neg:
            return None
        p = next(k for k, a in enumerate(pivot) if k and a)
        m, sign = abs(pivot[p]), (1 if pivot[p] > 0 else -1)
        substitutions.append((p, pivot))
        rows[i] = (zero, "eq")
        for k, (row, rel) in enumerate(rows):
            if b := row[p]:
                rows[k] = (_reduced(tuple(m * x - sign * b * y for x, y in zip(row, pivot))), rel)

    # Phase 2: combine each lower bound with each upper bound.  The table
    # maps each row to its strict flag: a 'gt' copy of a row replaces its
    # 'ge' copy, since the bounds it gives are the same.  Reduced constant
    # rows are zero or (+-1, 0, ..., 0): a violated one makes the system
    # infeasible at once, a satisfied one (or a zero equality) is dropped,
    # since it takes part in no later step.
    table: dict[Row, bool] = {}
    for row, rel in rows:
        strict = rel == "gt"
        if row == neg or (strict and row == zero):
            return None
        if row != pos and row != zero and (strict or row not in table):
            table[row] = strict
    substituted = {p for p, _ in substitutions}
    stages = []
    for p in order:
        if p in substituted:
            continue
        lowers, uppers, rest = [], [], {}
        for row, strict in table.items():
            a = row[p]
            if a > 0:
                lowers.append((row, strict))
            elif a < 0:
                uppers.append((row, strict))
            else:
                rest[row] = strict
        stages.append((p, lowers, uppers))
        table = rest
        for lo, ls in lowers:
            al = lo[p]
            for up, us in uppers:
                au = up[p]
                combined = [al * u - au * l for l, u in zip(lo, up)]
                g = gcd(*combined)
                row = tuple(combined) if g <= 1 else tuple([k // g for k in combined])
                strict = ls or us
                if row == neg or (strict and row == zero):
                    return None
                if row != pos and row != zero and (strict or row not in table):
                    table[row] = strict
    return substitutions, stages


def _solve_for(row: Row, p: int, vals: dict[int, tuple[int, int]]) -> tuple[int, int]:
    """The value of column ``p`` that makes ``row`` zero at ``vals``, as a
    reduced pair (numerator, denominator > 0), like every value in ``vals``."""
    num, den = row[0], 1
    for j, c in enumerate(row):
        if c and j and j != p:
            n, d = vals[j]
            if den % d:
                num, den = num * d + c * n * den, den * d
            else:
                num += c * n * (den // d)
    num, den = -num, den * row[p]
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return num // g, den // g


def _tightest(rows: list[tuple[Row, bool]], p: int, vals: dict, sign: int):
    """The largest (``sign`` 1) or smallest (``sign`` -1) of the bounds that
    ``rows`` put on column ``p`` at ``vals``, as (numerator, denominator,
    strict), strict if a strict row attains it; None when there are no rows.
    Bounds are compared by cross-multiplication."""
    best = None
    for row, strict in rows:
        n, d = _solve_for(row, p, vals)
        if best is None:
            best = n, d, strict
            continue
        bn, bd, _ = best
        gap = (n * bd - bn * d) * sign
        if gap > 0:
            best = n, d, strict
        elif gap == 0 and strict:
            best = bn, bd, True
    return best


def _back_substitute(record) -> dict[int, tuple[int, int]]:
    """A point of the system that ``_eliminate`` returned ``record`` for,
    as column -> reduced (numerator, denominator > 0), in the order
    assigned: the latest-eliminated column first, the substituted columns
    last."""
    substitutions, stages = record
    vals: dict[int, tuple[int, int]] = {}
    for p, lowers, uppers in reversed(stages):
        lo = _tightest(lowers, p, vals, 1)
        up = _tightest(uppers, p, vals, -1)
        if lo is None and up is None:
            vals[p] = (0, 1)
        elif up is None:
            n, d, strict = lo
            vals[p] = (n + d, d) if strict else (n, d)
        elif lo is None:
            n, d, strict = up
            vals[p] = (n - d, d) if strict else (n, d)
        elif lo[0] * up[1] < up[0] * lo[1]:
            num, den = lo[0] * up[1] + up[0] * lo[1], 2 * lo[1] * up[1]
            g = gcd(num, den)
            vals[p] = (num // g, den // g)
        else:
            vals[p] = lo[:2]  # lo == up; FM guarantees the bounds are non-strict here
    for p, row in reversed(substitutions):
        vals[p] = _solve_for(row, p, vals)
    return vals


def _holds(value, rel: str) -> bool:
    return value > 0 if rel == "gt" else value >= 0 if rel == "ge" else value == 0


def encode(constraints: list[Constraint], index: dict[str, int]) -> list[tuple[Row, str]]:
    """The reduced integer rows of ``constraints``; ``index`` maps each
    variable name to its column (1, 2, ...; column 0 is the constant)."""
    rows = []
    for expr, rel in constraints:
        if rel not in _RELS:
            raise ValueError(f"unknown relation {rel!r}")
        row = [0] * (len(index) + 1)
        row[0], *coeffs = _coprime(expr)
        for (name, _), k in zip(expr.terms, coeffs):
            row[index[name]] = k
        rows.append((tuple(row), rel))
    return rows


def decode(row: Row, names: list[str], rel: str) -> Constraint:
    """The constraint of ``row``; column k is the variable ``names[k - 1]``."""
    terms = tuple((name, Fraction(k)) for name, k in zip(names, row[1:]) if k)
    return (AffineExpr(Fraction(row[0]), terms), rel)


def _certified_point(rows: list[tuple[Row, str]], order: list[int]):
    """The point of ``rows_scaled_point`` as column -> reduced (numerator,
    denominator) pairs, in the order back-substitution assigns them,
    together with its scaled form, or None."""
    width = len(rows[0][0]) if rows else len(order) + 1
    if sorted(order) != list(range(1, width)):
        raise ValueError(f"order {order} is not a permutation of the columns 1..{width - 1}")
    record = _eliminate(list(rows), order)
    if record is None:
        return None
    vals = _back_substitute(record)
    den = lcm(*(d for _, d in vals.values()))
    point = [den] + [0] * len(order)
    for p, (n, d) in vals.items():
        point[p] = n * (den // d)
    for row, rel in rows:
        if not _holds(sum(map(mul, row, point)), rel):
            raise RuntimeError(f"witness reconstruction failed on row {row} {rel} 0")
    return vals, point


def rows_scaled_point(rows: list[tuple[Row, str]], order: list[int]) -> list[int] | None:
    """A point of the system of reduced integer rows, or None if it has none.

    Phase 2 eliminates the columns in ``order``, which must list every
    column.  The point is (den, den * x_1, ..., den * x_m) over the common
    denominator of its coordinates.  It is certified: it is checked against
    every row in integer arithmetic, and a failed check raises RuntimeError.
    An ``order`` that is not a permutation of the rows' columns raises
    ValueError.
    """
    found = _certified_point(rows, order)
    return None if found is None else found[1]


def holds_at(rows: list[tuple[Row, str]], point: list[int]) -> bool:
    """Does the scaled point (see ``rows_scaled_point``) satisfy every row?"""
    return all(_holds(sum(map(mul, row, point)), rel) for row, rel in rows)


def _shot_facets(rows: list[tuple[Row, str]], point: list[int]) -> set[tuple[Row, str]]:
    """The rows that a ray from ``point`` certifies as facets.

    ``point`` is a scaled point (see ``rows_scaled_point``), over a
    positive denominator, at which every row must be strictly positive,
    else RuntimeError; an 'eq' row is never strictly positive where it
    holds, so a row of that relation is RuntimeError too.  For each row a, a
    ray leaves the point along d = (0, -a_1, ..., -a_m); row s falls along
    it at the rate r_s = -s.d and reaches zero at t_s = (s.point) / r_s.
    When a single row has the smallest t_s, it is 0 at the hit point and
    every other row is positive there, so that row is a facet of the
    system.  A tie certifies nothing.  The t_s are compared by
    cross-multiplication.  The rate s.a is symmetric in the two rows, so
    each pair's rate is computed once.
    """
    values = [sum(map(mul, row, point)) for row, _ in rows]
    if point[0] <= 0 or not all(v > 0 for v in values) or any(rel == "eq" for _, rel in rows):
        raise RuntimeError("prune_rows: the point is not strictly inside every row")
    normals = [row[1:] for row, _ in rows]
    rates = [[0] * len(normals) for _ in normals]
    for i, a in enumerate(normals):
        across = rates[i]
        for j in range(i, len(normals)):
            across[j] = rates[j][i] = sum(map(mul, a, normals[j]))
    found = set()
    for across in rates:
        hit, tie, value, rate = None, False, 0, 0
        for j, r in enumerate(across):
            if r <= 0:
                continue
            if hit is None or values[j] * rate < value * r:
                hit, tie, value, rate = j, False, values[j], r
            elif values[j] * rate == value * r:
                tie = True
        if hit is not None and not tie:
            found.add(rows[hit])
    return found


def _first_crossing(rows: list[tuple[Row, str]], point: list[int], found: list[int]):
    """The row of ``rows`` that the segment from ``point`` to ``found``
    crosses first, or None when two rows tie for it.

    Both are scaled points (see ``rows_scaled_point``) over positive
    denominators p0 and x0, every row is positive at ``point``, and some
    row is negative at ``found``.  A row with values vp at ``point`` and
    vx < 0 at ``found`` reaches zero at the parameter
    vp.x0 / (vp.x0 - vx.p0) of the segment; the parameters are compared
    by cross-multiplication.  When one row reaches zero first, it is 0 at
    that point and every other row is positive there.
    """
    p0, x0 = point[0], found[0]
    hit, tie, num, den = None, False, 0, 1
    for key in rows:
        vx = sum(map(mul, key[0], found))
        if vx >= 0:
            continue
        n = sum(map(mul, key[0], point)) * x0
        d = n - vx * p0
        if hit is None or n * den < num * d:
            hit, tie, num, den = key, False, n, d
        elif n * den == num * d:
            tie = True
    return None if tie else hit


def _implied_by_facets(
    key: tuple[Row, str], negated: tuple[Row, str], kept: list, known: list, point: list[int], order: list[int]
) -> bool | None:
    """Clarkson's redundancy test of the 'ge' row ``key`` of ``kept``
    against the rows ``known`` so far (the facets found and the rows of
    other relations), not against every other row.

    If they and ``negated``, the strict negation of ``key``, have no common
    point, ``key`` is implied.  Else the segment from ``point`` to the
    kernel's point leaves the cell, and the row it crosses first (see
    ``_first_crossing``) is a facet of ``kept``: it joins ``known``, and
    the test repeats until that row is ``key`` itself (not implied).  A
    tie decides nothing: None.
    """
    while True:
        found = rows_scaled_point(known + [negated], order)
        if found is None:
            return True
        hit = _first_crossing(kept, point, found)
        if hit is None:
            return None
        known.append(hit)
        if hit == key:
            return False


def prune_rows(
    rows: list[tuple[Row, str]], order: list[int], point: list[int] | None = None
) -> list[tuple[Row, str]]:
    """Drop the copies of a row and the 'ge' rows implied by the rest.

    A non-constant 'ge' row is implied iff the rest together with its strict
    negation is infeasible, one ``rows_scaled_point`` call; a constant one iff it
    holds.  Rows of other relations are kept.  Given a scaled ``point`` at
    which every row is strictly positive (else RuntimeError), rays from it
    first certify some rows as facets (see ``_shot_facets``); such a row
    is irredundant against every subset of the other rows, so it is kept
    without a kernel call.  Every other 'ge' row is then tested against the
    facets found so far and the rows of other relations only, by Clarkson's
    loop (see ``_implied_by_facets``), and against the rest as above only
    when that loop meets a tie.  The facets of a full-dimensional
    polyhedron are unique, so the result is the same as without ``point``.
    """
    kept = list(dict.fromkeys(rows))
    facets = set() if point is None else _shot_facets(kept, point)
    known = [key for key in kept if key[1] != "ge" or key in facets]
    i = 0
    while i < len(kept):
        key = kept[i]
        row, rel = key
        if rel != "ge" or key in known:
            redundant = False
        elif not any(row[1:]):
            redundant = row[0] >= 0
        else:
            negated = (tuple(-k for k in row), "gt")
            redundant = None if point is None else _implied_by_facets(key, negated, kept, known, point, order)
            if redundant is None:
                redundant = rows_scaled_point(kept[:i] + kept[i + 1 :] + [negated], order) is None
                if not redundant:
                    known.append(key)  # a facet, as is every row kept so far
        if redundant:
            kept.pop(i)
        else:
            i += 1
    return kept


def check_feasible(
    constraints: list[Constraint], variables: list[str] | None = None
) -> Feasibility:
    """Decide feasibility over the rationals; return a witness when feasible.

    Phase 2 eliminates ``variables`` in the given order (default: sorted),
    then any other variable of the constraints in sorted order; the witness
    assigns every variable of both kinds.
    """
    names: set[str] = set()
    for expr, _ in constraints:
        names.update(expr.variables)
    if variables is None:
        variables = sorted(names)
    columns = sorted(names.union(variables))
    index = {name: k for k, name in enumerate(columns, 1)}
    order = [index[v] for v in [*variables, *sorted(names.difference(variables))]]
    found = _certified_point(encode(constraints, index), order)
    if found is None:
        return Feasibility(False)
    point = {columns[p - 1]: Fraction(n, d) for p, (n, d) in found[0].items()}
    for expr, rel in constraints:
        if not _holds(expr.evaluate(point), rel):
            raise RuntimeError(f"witness reconstruction failed on {expr} {rel} 0")
    return Feasibility(True, point)


def prune_redundant(constraints: list[Constraint]) -> list[Constraint]:
    """Drop inequality constraints implied by the rest of the system.

    Intended for non-strict systems describing closed cells; the result is
    the unique irredundant (facet-defining) description of a full-dimensional
    polyhedron, up to positive scaling.
    The system is encoded as integer rows once and pruned by ``prune_rows``;
    the constraints come back normalized, in their first order.
    """
    names = sorted({name for expr, _ in constraints for name in expr.variables})
    rows = encode(constraints, {name: k for k, name in enumerate(names, 1)})
    return [decode(row, names, rel) for row, rel in prune_rows(rows, list(range(1, len(names) + 1)))]
