from fractions import Fraction

import pytest

from troplog import AffineExpr, as_fraction
from troplog.errors import ParseError


def test_arithmetic_and_normalization():
    x = AffineExpr.symbol("x")
    y = AffineExpr.symbol("y")
    e = x * 2 + y - x * 2 + 3
    assert e == y + 3
    assert e.coeff("y") == 1
    assert e.coeff("x") == 0
    assert (e - e).is_zero


def test_evaluate_and_substitute():
    e = AffineExpr.symbol("c") + AffineExpr.symbol("l") * Fraction(1, 2)
    assert e.evaluate({"c": 1, "l": 4}) == 3
    assert e.substitute({"l": 0}) == AffineExpr.symbol("c")
    assert e.substitute({"c": AffineExpr.symbol("s") - 1}).evaluate({"s": 2, "l": 2}) == 2
    with pytest.raises(KeyError):
        e.evaluate({"c": 1})


def test_str_roundtrip():
    e = AffineExpr.symbol("c") + AffineExpr.symbol("l_e0") * 2 - Fraction(1, 2)
    assert str(e) == "c + 2*l_e0 - 1/2"
    assert AffineExpr.parse(str(e)) == e
    assert AffineExpr.parse("3/2") == AffineExpr.constant(Fraction(3, 2))
    assert AffineExpr.parse("c") == AffineExpr.symbol("c")
    assert AffineExpr.parse("-x + 1") == -AffineExpr.symbol("x") + 1


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        AffineExpr.parse("")
    with pytest.raises(ParseError):
        AffineExpr.parse("1//2")


@pytest.mark.parametrize("text", ["1e5000", "2E3", "1e1000000000", "-3/1e2", "1.5e-3"])
def test_exponents_refused(text):
    with pytest.raises(ParseError, match="exponents are not accepted"):
        as_fraction(text)
    with pytest.raises(ParseError):
        AffineExpr.parse(text)


@pytest.mark.parametrize("text", ["1_000", "1_0/3", "3 / 4", "3/ 4"])
def test_rational_grammar_refuses_what_older_pythons_refuse(text):
    # Later Pythons read these in Fraction; the grammar is the same on all.
    with pytest.raises(ParseError, match="not a rational: "):
        as_fraction(text)


@pytest.mark.parametrize(
    "text, value", [(" 3/4 ", Fraction(3, 4)), ("+3", 3), (".5", Fraction(1, 2)), ("5.", 5)]
)
def test_rational_grammar_reads(text, value):
    assert as_fraction(text) == value


def test_plain_rationals_still_read():
    assert as_fraction("-7/21") == Fraction(-1, 3)
    assert as_fraction(" 12 ") == 12
    assert AffineExpr.parse("e + 1") == AffineExpr.symbol("e") + 1


@pytest.mark.parametrize("text", ["1 2", "c d", "2 c", "c 2", "1/2 x", "c + d e", "1. 5"])
def test_parse_rejects_tokens_joined_by_spaces(text):
    with pytest.raises(ParseError, match="missing operator"):
        AffineExpr.parse(text)


def test_spaces_around_operators_still_read():
    assert AffineExpr.parse(" c  +  2 * l_e0 -  1 / 2 ") == AffineExpr.parse("c + 2*l_e0 - 1/2")
    e = AffineExpr.symbol("c") - AffineExpr.symbol("d") * Fraction(3, 2) + 4
    assert AffineExpr.parse(str(e)) == e


@pytest.mark.parametrize("bad", [True, 1.5, "1/0"], ids=["bool", "float", "zero-denominator"])
def test_as_fraction_refuses(bad):
    with pytest.raises(ParseError, match="not a rational"):
        as_fraction(bad)


def test_dangling_sign():
    with pytest.raises(ParseError, match="dangling sign in 'c \\+'"):
        AffineExpr.parse("c +")
