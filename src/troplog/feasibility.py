"""Exact rational linear feasibility by Fourier-Motzkin elimination.

Constraints are pairs (affine expression, relation) with relation one of
'ge' (>= 0), 'gt' (> 0), or 'eq' (= 0).  Equalities are eliminated by
substitution first; inequalities by pairwise combination.  When a system
is feasible a rational witness point is reconstructed by back-substitution.
No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .affine import AffineExpr

Constraint = tuple[AffineExpr, str]  # relation in {"ge", "gt", "eq"}

_RELS = {"ge", "gt", "eq"}


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    witness: dict[str, Fraction] | None = None


def normalize(c: Constraint) -> Constraint:
    """Scale by a positive rational so coefficients are coprime integers."""
    expr, rel = c
    nums = [expr.const] + [q for _, q in expr.terms]
    denom_lcm = 1
    for q in nums:
        denom_lcm = denom_lcm * q.denominator // gcd(denom_lcm, q.denominator)
    ints = [q * denom_lcm for q in nums]
    g = 0
    for q in ints:
        g = gcd(g, int(q))
    scale = Fraction(denom_lcm, g) if g else Fraction(1)
    return (expr * scale, rel)


def _constraint_key(c: Constraint):
    expr, rel = c
    return (rel, expr.const, expr.terms)


def check_feasible(
    constraints: list[Constraint], variables: list[str] | None = None
) -> Feasibility:
    """Decide feasibility over the rationals; return a witness when feasible."""
    for _, rel in constraints:
        if rel not in _RELS:
            raise ValueError(f"unknown relation {rel!r}")
    if variables is None:
        names = set()
        for expr, _ in constraints:
            names.update(expr.variables)
        variables = sorted(names)

    work = [normalize(c) for c in constraints]
    substitutions: list[tuple[str, AffineExpr]] = []

    # Phase 1: eliminate equalities by exact substitution.
    while True:
        for e, r in work:
            if r == "eq" and e.is_constant and e.const != 0:
                return Feasibility(False)
        work = [(e, r) for e, r in work if not (r == "eq" and e.is_zero)]
        idx = next((k for k, (e, r) in enumerate(work) if r == "eq"), None)
        if idx is None:
            break
        expr, _rel = work.pop(idx)
        var, coeff = expr.terms[0]
        solved = (expr - AffineExpr.symbol(var) * coeff) * Fraction(-1, coeff)
        substitutions.append((var, solved))
        work = [normalize((e.substitute({var: solved}), r)) for e, r in work]

    remaining = [v for v in variables if v not in {s for s, _ in substitutions}]
    stages: list[tuple[str, list[tuple[AffineExpr, bool]], list[tuple[AffineExpr, bool]]]] = []
    ineqs = [(e, r) for e, r in work if r != "eq"]

    # Phase 2: Fourier-Motzkin on the inequalities.
    for var in remaining:
        lowers: list[tuple[AffineExpr, bool]] = []  # var >= bound (strict flag)
        uppers: list[tuple[AffineExpr, bool]] = []
        passthrough: list[Constraint] = []
        for expr, rel in ineqs:
            a = expr.coeff(var)
            strict = rel == "gt"
            if a == 0:
                passthrough.append((expr, rel))
                continue
            bound = (expr - AffineExpr.symbol(var) * a) * Fraction(-1, a)
            if a > 0:
                lowers.append((bound, strict))
            else:
                uppers.append((bound, strict))
        stages.append((var, lowers, uppers))
        combined: dict[tuple, Constraint] = {}
        for c in passthrough:
            combined.setdefault(_constraint_key(normalize(c)), c)
        for lo, ls in lowers:
            for up, us in uppers:
                c = normalize((up - lo, "gt" if (ls or us) else "ge"))
                combined.setdefault(_constraint_key(c), c)
        ineqs = list(combined.values())

    for expr, rel in ineqs:
        # Only constants remain.
        if rel == "ge" and expr.const < 0:
            return Feasibility(False)
        if rel == "gt" and expr.const <= 0:
            return Feasibility(False)

    # Back-substitute a witness, latest-eliminated variable first.
    point: dict[str, Fraction] = {}
    for var, lowers, uppers in reversed(stages):
        lo_vals = [(b.evaluate(point), s) for b, s in lowers]
        up_vals = [(b.evaluate(point), s) for b, s in uppers]
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
        point[var] = val
    for var, solved in reversed(substitutions):
        point[var] = solved.evaluate(point)
    for var in variables:
        point.setdefault(var, Fraction(0))

    for expr, rel in constraints:
        value = expr.evaluate(point)
        if not (value > 0 if rel == "gt" else value >= 0 if rel == "ge" else value == 0):
            raise RuntimeError(f"witness reconstruction failed on {expr} {rel} 0")
    return Feasibility(True, point)


def prune_redundant(constraints: list[Constraint]) -> list[Constraint]:
    """Drop inequality constraints implied by the rest of the system.

    Intended for non-strict systems describing closed cells; the result is
    the unique irredundant (facet-defining) description of a full-dimensional
    polyhedron, up to positive scaling, which ``canonical_system`` fixes.
    """
    kept = [normalize(c) for c in constraints]
    # Dedupe first so identical copies do not shadow each other.
    seen: dict[tuple, Constraint] = {}
    for c in kept:
        seen.setdefault(_constraint_key(c), c)
    kept = list(seen.values())
    i = 0
    while i < len(kept):
        expr, rel = kept[i]
        if rel != "ge" or expr.is_constant:
            if rel == "ge" and expr.is_constant and expr.const >= 0:
                kept.pop(i)
                continue
            i += 1
            continue
        rest = kept[:i] + kept[i + 1 :]
        if not check_feasible(rest + [(-expr, "gt")]).feasible:
            kept.pop(i)
        else:
            i += 1
    return kept


def canonical_system(constraints: list[Constraint]) -> tuple[tuple, ...]:
    """Deterministic hashable key for a pruned constraint system."""
    return tuple(sorted(_constraint_key(normalize(c)) for c in constraints))
