"""Exact affine-linear expressions in named coordinates.

These expressions are the common currency of the package: vertex values of
piecewise-linear functions on symbolic trees, chart functionals of moduli
cones, and the constraint systems fed to the feasibility kernel are all
affine combinations of coordinate names with rational coefficients.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError

Rat = int | str | Fraction


# The string syntax that ``Fraction`` reads on every supported Python
# (3.10's, less exponents): later versions also read '1_000' and '3 / 4'.
_RATIONAL_RE = re.compile(r"\s*[-+]?(?=\d|\.\d)\d*(?:/\d+|\.\d*)?\s*")
# Its integer form: surrounding whitespace, a sign, digits.  ``int`` alone
# would also read '1_0'.
_INTEGER_RE = re.compile(r"\s*[-+]?\d+\s*")


def as_fraction(x: Rat) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact rational.

    A string is surrounding whitespace, a sign, then digits with an optional
    '/digits' or decimal part ('.5' and '5.' read).  A string with an
    exponent ('1e5000') is refused before it is read: ``Fraction`` would
    compute the power, however large.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ParseError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x or "E" in x:
            raise ParseError(f"not a rational (exponents are not accepted): {x!r}")
        if not _RATIONAL_RE.fullmatch(x):
            raise ParseError(f"not a rational: {x!r}")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {x!r}") from exc
    raise ParseError(f"not a rational: {x!r}")


def as_integer(x, what: str) -> int:
    """A JSON integer: an int that is not a bool; anything else, strings
    and fractional numbers included, is a parse error."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ParseError(f"{what} {x!r} is not an integer")
    return x


def fraction_str(q: Fraction) -> str:
    """Reduced 'p/q' (or plain integer) string form."""
    return str(q)


_TERM_RE = re.compile(r"^(?:(-?\d+(?:/\d+)?)\*)?([A-Za-z_][A-Za-z_0-9]*)$")


@dataclass(frozen=True, slots=True)
class AffineExpr:
    """const + sum(coeff * symbol), with exact rational coefficients.

    Terms are kept sorted by symbol name with zero coefficients dropped,
    so structural equality is semantic equality.
    """

    const: Fraction = Fraction(0)
    terms: tuple[tuple[str, Fraction], ...] = ()

    @staticmethod
    def make(const: Rat = 0, coeffs: dict[str, Rat] | None = None) -> "AffineExpr":
        items = []
        for name, c in (coeffs or {}).items():
            q = as_fraction(c)
            if q != 0:
                items.append((name, q))
        items.sort()
        return AffineExpr(as_fraction(const), tuple(items))

    @staticmethod
    def constant(q: Rat) -> "AffineExpr":
        return AffineExpr(as_fraction(q))

    @staticmethod
    def symbol(name: str) -> "AffineExpr":
        return AffineExpr(Fraction(0), ((name, Fraction(1)),))

    def coeff(self, name: str) -> Fraction:
        for sym, c in self.terms:
            if sym == name:
                return c
        return Fraction(0)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sym for sym, _ in self.terms)

    @property
    def is_constant(self) -> bool:
        return not self.terms

    @property
    def is_zero(self) -> bool:
        return not self.terms and self.const == 0

    def __add__(self, other: "AffineExpr | Rat") -> "AffineExpr":
        if not isinstance(other, AffineExpr):
            other = AffineExpr.constant(other)
        coeffs: dict[str, Fraction] = dict(self.terms)
        for sym, c in other.terms:
            coeffs[sym] = coeffs.get(sym, Fraction(0)) + c
        return AffineExpr.make(self.const + other.const, coeffs)

    __radd__ = __add__

    def __neg__(self) -> "AffineExpr":
        return AffineExpr(-self.const, tuple((s, -c) for s, c in self.terms))

    def __sub__(self, other: "AffineExpr | Rat") -> "AffineExpr":
        if not isinstance(other, AffineExpr):
            other = AffineExpr.constant(other)
        return self + (-other)

    def __mul__(self, scalar: Rat) -> "AffineExpr":
        q = as_fraction(scalar)
        if q == 0:
            return AffineExpr()
        return AffineExpr(self.const * q, tuple((s, c * q) for s, c in self.terms))

    __rmul__ = __mul__

    def substitute(self, assignment: dict[str, "AffineExpr | Rat"]) -> "AffineExpr":
        """Replace symbols by expressions or rationals; others pass through."""
        out = AffineExpr.constant(self.const)
        for sym, c in self.terms:
            if sym in assignment:
                val = assignment[sym]
                if not isinstance(val, AffineExpr):
                    val = AffineExpr.constant(val)
                out = out + val * c
            else:
                out = out + AffineExpr.symbol(sym) * c
        return out

    def evaluate(self, point: dict[str, Rat]) -> Fraction:
        """Fully evaluate; every symbol must be assigned."""
        total = self.const
        for sym, c in self.terms:
            if sym not in point:
                raise KeyError(f"unassigned coordinate {sym!r}")
            total += c * as_fraction(point[sym])
        return total

    def __str__(self) -> str:
        if self.is_constant:
            return fraction_str(self.const)
        parts: list[str] = []
        for sym, c in self.terms:
            if c == 1:
                chunk = sym
            elif c == -1:
                chunk = f"-{sym}"
            else:
                chunk = f"{fraction_str(c)}*{sym}"
            if not parts:
                parts.append(chunk)
            elif chunk.startswith("-"):
                parts.append(f"- {chunk[1:]}")
            else:
                parts.append(f"+ {chunk}")
        if self.const != 0:
            if self.const > 0:
                parts.append(f"+ {fraction_str(self.const)}")
            else:
                parts.append(f"- {fraction_str(-self.const)}")
        return " ".join(parts)

    @staticmethod
    def parse(text: str) -> "AffineExpr":
        """Parse 'p/q', a symbol name, or sums like 'c + 2*l_e0 - 1/2'."""
        s = text.strip()
        if not s:
            raise ParseError("empty affine expression")
        # Spaces may surround operators, never join two numbers or names.
        if re.search(r"[\w.]\s+[\w.]", s):
            raise ParseError(f"missing operator in {text!r}")
        # Normalize so every term carries an explicit sign, then split.
        s = s.replace("- ", "-").replace("+ ", "+")
        chunks = re.split(r"(?=[+-])", s.replace(" ", ""))
        out = AffineExpr()
        for chunk in chunks:
            if not chunk or chunk in "+-":
                if chunk:
                    raise ParseError(f"dangling sign in {text!r}")
                continue
            sign = 1
            if chunk[0] == "+":
                chunk = chunk[1:]
            elif chunk[0] == "-":
                sign, chunk = -1, chunk[1:]
            m = _TERM_RE.match(chunk)
            if m:
                coeff = as_fraction(m.group(1)) if m.group(1) else Fraction(1)
                out = out + AffineExpr.symbol(m.group(2)) * (sign * coeff)
            else:
                out = out + as_fraction(chunk) * sign
        return out

    def to_json(self) -> str:
        return str(self)
