from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermaps.poly import BiPoly, UniPoly
from hypermaps.selftest import require_print_parse, require_ring_axioms

coeffs = st.integers(min_value=-50, max_value=50)
small_exp = st.integers(min_value=0, max_value=6)
laurent_exp = st.integers(min_value=-4, max_value=6)

bipolys = st.dictionaries(
    st.tuples(small_exp, small_exp), coeffs, max_size=8
).map(BiPoly)
unipolys = st.dictionaries(laurent_exp, coeffs, max_size=8).map(UniPoly)


def test_zero_and_const():
    assert not BiPoly.zero().terms
    assert str(BiPoly.zero()) == "0"
    assert str(BiPoly.const(7)) == "7"
    assert str(BiPoly.const(-3)) == "-3"
    assert BiPoly.const(0) == BiPoly.zero()


def test_monomials_print():
    assert str(BiPoly.monomial(1, 1, 0)) == "u"
    assert str(BiPoly.monomial(1, 0, 1)) == "v"
    assert str(BiPoly.monomial(3, 2, 1)) == "3*u^2*v"
    assert str(BiPoly.monomial(-1, 0, 0)) == "-1"


def test_golden_print_order():
    p = BiPoly({(2, 0): 1, (1, 1): 1, (1, 0): 4, (0, 1): 1, (0, 0): 3})
    assert str(p) == "u^2 + u*v + 4*u + v + 3"


def test_parse_round_trip_examples():
    for text in ["u^2 + u*v + 4*u + v + 3", "u + 1", "0", "-u - v", "2"]:
        assert str(BiPoly.parse(text)) == text


def test_parse_whitespace_and_signs():
    assert BiPoly.parse("u^2+u*v+4*u+v+3") == BiPoly.parse(
        "u^2 + u*v + 4*u + v + 3"
    )
    assert BiPoly.parse("-2*u - 3") == BiPoly({(1, 0): -2, (0, 0): -3})


def test_parse_rejects_garbage():
    for bad in ["u +", "* u", "u^", "u v", "3..2", "w + 1"]:
        with pytest.raises(ValueError):
            BiPoly.parse(bad)


@pytest.mark.parametrize("text", ["2*3*u", "u*2", "", "   "])
def test_parse_refuses_forms_never_printed(text):
    # the magnitude comes first in its term, and a polynomial has a term
    with pytest.raises(ValueError):
        BiPoly.parse(text)
    with pytest.raises(ValueError):
        UniPoly.parse(text, var="u")


def test_arithmetic_golden():
    u_plus_1 = BiPoly.parse("u + 1")
    v_plus_1 = BiPoly.parse("v + 1")
    total = u_plus_1 * u_plus_1 + u_plus_1 * v_plus_1 + u_plus_1
    assert total == BiPoly.parse("u^2 + u*v + 4*u + v + 3")


def test_evaluate_exact():
    p = BiPoly.parse("u^2 + u*v + 4*u + v + 3")
    assert p.evaluate(0, 0) == 3
    assert p.evaluate(0, 1) == 4
    assert p.evaluate(2, 2) == 21
    assert p.evaluate(Fraction(1, 2), 2) == Fraction(1, 4) + 1 + 2 + 2 + 3


def test_substitute_v():
    p = BiPoly.parse("u^2 + u*v + 4*u + v + 3")
    at1 = p.substitute_v(1)
    assert at1 == UniPoly({2: 1, 1: 5, 0: 4})


def test_hyperbola_section_is_laurent():
    p = BiPoly.parse("u^2 + u*v + 4*u + v + 3")
    # u -> v^-1: exponent becomes ev - eu
    section = p.hyperbola_section()
    assert section == UniPoly({-2: 1, -1: 4, 0: 4, 1: 1})
    assert section.coefficient(-2) == 1
    assert section.coefficient(1) == 1


def test_swap_variables():
    p = BiPoly.parse("u^2 + 3*v")
    assert p.swap_variables() == BiPoly.parse("v^2 + 3*u")


def test_unipoly_print_and_parse():
    p = UniPoly({3: 2, 2: 5, 1: 3})
    assert p.to_string("x") == "2*x^3 + 5*x^2 + 3*x"
    assert UniPoly.parse("2*x^3 + 5*x^2 + 3*x", var="x") == p
    q = UniPoly({0: -5, 1: 10, 2: -6, 3: 1})
    assert q.to_string("t") == "t^3 - 6*t^2 + 10*t - 5"


def test_unipoly_laurent():
    p = UniPoly({-2: 1, 1: 2})
    assert p.to_string("v") == "2*v + v^-2"
    assert UniPoly.parse("2*v + v^-2", var="v") == p
    assert p.evaluate(2) == 4 + Fraction(1, 4)


def test_unipoly_flip_variable():
    p = UniPoly({2: 1, 1: -3, 0: 2})
    assert p.flip_variable() == UniPoly({2: 1, 1: 3, 0: 2})


def test_zero_to_negative_power_rejected():
    p = UniPoly({-1: 1})
    with pytest.raises(ZeroDivisionError):
        p.evaluate(0)


@pytest.mark.parametrize(
    "cls, text",
    [(BiPoly, "u^2 - 3*u*v + 2"), (UniPoly, "x^3 - 2*x + x^-1")],
)
def test_shared_operations(cls, text):
    p = cls.parse(text)
    assert -p == cls({k: -c for k, c in p.terms.items()})
    assert p - p == cls.zero()
    assert not (p - p).terms and p.terms
    assert p ** 0 == cls.const(1)
    assert p ** 2 == p * p
    with pytest.raises(ValueError):
        p ** -1
    assert p.scalar_multiply(3) == p + p + p
    assert p.scalar_multiply(0) == cls.zero()
    q = cls.parse(text)
    assert q is not p and q == p and hash(q) == hash(p)
    assert repr(p) == f"{cls.__name__}.parse({text!r})"
    assert eval(repr(p)) == p
    assert not hasattr(p, "__dict__")


def test_bivariate_and_univariate_never_equal():
    assert BiPoly.const(1) != UniPoly.const(1)
    assert UniPoly.const(1) != BiPoly.const(1)
    assert BiPoly.zero() != UniPoly.zero()


@given(bipolys, bipolys, bipolys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    require_ring_axioms(a, b, c)


@given(bipolys)
@settings(max_examples=80, deadline=None)
def test_print_parse_round_trip(p):
    require_print_parse(p)


@given(unipolys)
@settings(max_examples=80, deadline=None)
def test_unipoly_round_trip(p):
    require_print_parse(p)


@given(bipolys, st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=60, deadline=None)
def test_evaluation_is_ring_homomorphism(p, x, y):
    q = p * p + p
    assert q.evaluate(x, y) == p.evaluate(x, y) ** 2 + p.evaluate(x, y)
