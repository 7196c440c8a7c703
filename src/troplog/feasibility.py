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
rational point (``fractions.Fraction``) is reconstructed by
back-substitution, the only step that builds a ``Fraction``.

``rows_point(rows, order)`` is the entry point of the kernel: it returns
a point of a system of rows, or None; ``rows_scaled_point`` returns the
same point as integers over the common denominator of its coordinates.
Every point is certified: it is checked against every row in integer
arithmetic, over that denominator, and a failed check raises RuntimeError.
``holds_at`` makes the same check of a scaled point against other rows.
``prune_rows`` drops implied inequalities with one ``rows_point`` call
each.  ``check_feasible`` and ``prune_redundant`` wrap them for
``AffineExpr`` constraints; the witness of ``check_feasible`` is checked
against the caller's constraints too.  An infeasible verdict is the one
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


def normalize(c: Constraint) -> Constraint:
    """Scale by a positive rational so coefficients are coprime integers."""
    expr, rel = c
    const, *coeffs = _coprime(expr)
    terms = tuple((name, Fraction(k)) for (name, _), k in zip(expr.terms, coeffs))
    return (AffineExpr(Fraction(const), terms), rel)


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

    # Phase 1: substitute the equalities away, each on its first nonzero column.
    substitutions: list[tuple[int, Row]] = []
    while True:
        eqs = [row for row, rel in rows if rel == "eq" and row != zero]
        if not eqs:
            break
        if pos in eqs or neg in eqs:
            return None
        pivot = eqs[0]
        rows.remove((pivot, "eq"))
        p = next(k for k, a in enumerate(pivot) if k and a)
        m, sign = abs(pivot[p]), (1 if pivot[p] > 0 else -1)
        substitutions.append((p, pivot))
        for k, (row, rel) in enumerate(rows):
            if b := row[p]:
                rows[k] = (_reduced(tuple(m * x - sign * b * y for x, y in zip(row, pivot))), rel)

    # Phase 2: combine each lower bound with each upper bound.  Reduced
    # constant rows are zero or (+-1, 0, ..., 0): a violated one makes the
    # system infeasible at once, a satisfied one (or a zero equality) is
    # dropped, since it takes part in no later step.
    def add(table: dict, rel: str, row: Row) -> bool:
        if row == neg or (row == zero and rel == "gt"):
            return False
        if row != pos and row != zero:
            table.setdefault((rel, row))
        return True

    ineqs: dict[tuple[str, Row], None] = {}
    if not all(add(ineqs, rel, row) for row, rel in rows):
        return None
    substituted = {p for p, _ in substitutions}
    stages = []
    for p in order:
        if p in substituted:
            continue
        lowers = [(row, rel == "gt") for rel, row in ineqs if row[p] > 0]
        uppers = [(row, rel == "gt") for rel, row in ineqs if row[p] < 0]
        stages.append((p, lowers, uppers))
        ineqs = {key: None for key in ineqs if not key[1][p]}
        for lo, ls in lowers:
            al = lo[p]
            for up, us in uppers:
                au = up[p]
                row = _reduced(tuple(al * u - au * l for l, u in zip(lo, up)))
                if not add(ineqs, "gt" if ls or us else "ge", row):
                    return None
    return substitutions, stages


def _solve_for(row: Row, p: int, vals: dict[int, Fraction]) -> Fraction:
    """The value of column ``p`` that makes ``row`` zero at ``vals``."""
    num, den = row[0], 1
    for j in range(1, len(row)):
        c = row[j]
        if c and j != p:
            v = vals[j]
            d = v.denominator
            num = num * d + c * v.numerator * den
            den *= d
    return Fraction(-num, den * row[p])


def _back_substitute(record) -> dict[int, Fraction]:
    """A point of the system that ``_eliminate`` returned ``record`` for,
    as column -> value in the order assigned: the latest-eliminated column
    first, the substituted columns last."""
    substitutions, stages = record
    vals: dict[int, Fraction] = {}
    for p, lowers, uppers in reversed(stages):
        lo_vals = [(_solve_for(r, p, vals), s) for r, s in lowers]
        up_vals = [(_solve_for(r, p, vals), s) for r, s in uppers]
        lo = max((v for v, _ in lo_vals), default=None)
        up = min((v for v, _ in up_vals), default=None)
        if lo is None and up is None:
            val = Fraction(0)
        elif up is None:
            strict = any(s for v, s in lo_vals if v == lo)
            val = lo + 1 if strict else lo
        elif lo is None:
            strict = any(s for v, s in up_vals if v == up)
            val = up - 1 if strict else up
        elif lo < up:
            val = (lo + up) / 2
        else:
            val = lo  # lo == up; FM guarantees the bounds are non-strict here
        vals[p] = val
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
    """``rows_point`` together with the same point scaled to integers, or None."""
    record = _eliminate(list(rows), order)
    if record is None:
        return None
    vals = _back_substitute(record)
    den = lcm(*(q.denominator for q in vals.values()))
    point = [den] + [0] * len(order)
    for p, q in vals.items():
        point[p] = q.numerator * (den // q.denominator)
    for row, rel in rows:
        if not _holds(sum(map(mul, row, point)), rel):
            raise RuntimeError(f"witness reconstruction failed on row {row} {rel} 0")
    return vals, point


def rows_point(rows: list[tuple[Row, str]], order: list[int]) -> dict[int, Fraction] | None:
    """A point of the system of reduced integer rows, or None if it has none.

    Phase 2 eliminates the columns in ``order``, which must list every
    column; the point maps each column to its value, in the order
    back-substitution assigns them.  It is certified: it is checked against
    every row in integer arithmetic, over the common denominator of its
    coordinates, and a failed check raises RuntimeError.
    """
    found = _certified_point(rows, order)
    return None if found is None else found[0]


def rows_scaled_point(rows: list[tuple[Row, str]], order: list[int]) -> list[int] | None:
    """The point of ``rows_point`` as integers over the common denominator
    of its coordinates, (den, den * x_1, ..., den * x_m), or None."""
    found = _certified_point(rows, order)
    return None if found is None else found[1]


def holds_at(rows: list[tuple[Row, str]], point: list[int]) -> bool:
    """Does the scaled point (see ``rows_scaled_point``) satisfy every row?"""
    return all(_holds(sum(map(mul, row, point)), rel) for row, rel in rows)


def prune_rows(rows: list[tuple[Row, str]], order: list[int]) -> list[tuple[Row, str]]:
    """Drop the copies of a row and the 'ge' rows implied by the rest.

    A non-constant 'ge' row is implied iff the rest together with its strict
    negation is infeasible; a constant one iff it holds.  Rows of other
    relations are kept.
    """
    kept = list(dict.fromkeys(rows))
    i = 0
    while i < len(kept):
        row, rel = kept[i]
        if rel != "ge":
            redundant = False
        elif not any(row[1:]):
            redundant = row[0] >= 0
        else:
            negated = (tuple(-k for k in row), "gt")
            redundant = rows_point(kept[:i] + kept[i + 1 :] + [negated], order) is None
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
    vals = rows_point(encode(constraints, index), order)
    if vals is None:
        return Feasibility(False)
    point = {columns[p - 1]: q for p, q in vals.items()}
    for expr, rel in constraints:
        if not _holds(expr.evaluate(point), rel):
            raise RuntimeError(f"witness reconstruction failed on {expr} {rel} 0")
    return Feasibility(True, point)


def prune_redundant(constraints: list[Constraint]) -> list[Constraint]:
    """Drop inequality constraints implied by the rest of the system.

    Intended for non-strict systems describing closed cells; the result is
    the unique irredundant (facet-defining) description of a full-dimensional
    polyhedron, up to positive scaling, which ``canonical_system`` fixes.
    The system is encoded as integer rows once and pruned by ``prune_rows``;
    the constraints come back normalized, in their first order.
    """
    names = sorted({name for expr, _ in constraints for name in expr.variables})
    rows = encode(constraints, {name: k for k, name in enumerate(names, 1)})
    return [decode(row, names, rel) for row, rel in prune_rows(rows, list(range(1, len(names) + 1)))]


def canonical_system(constraints: list[Constraint]) -> tuple[tuple, ...]:
    """Deterministic hashable key for a pruned constraint system."""
    return tuple(sorted((rel, expr.const, expr.terms) for expr, rel in map(normalize, constraints)))
