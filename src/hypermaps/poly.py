"""Sparse exact polynomials in one or two variables.

Terms live in dicts mapping exponent vectors to nonzero Python ints, so
coefficients never overflow and Laurent exponents (negative powers) are
allowed.  Evaluation is exact over the rationals.

The canonical text form is pinned: bivariate terms are sorted by total degree
descending then by the u-exponent descending, univariate terms by exponent
descending; a coefficient of 1 is suppressed except on the constant term;
ASCII only, e.g. ``u^2 + u*v + 4*u + v + 3`` or ``2 + v^-1``.  ``parse``
reads this printed form back, spaced or not around signs and ``*``, and
raises ``ValueError`` on any other text, such as ``u*2`` or an empty one.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Mapping, Tuple, Union

if TYPE_CHECKING:  # fractions loads decimal, so only evaluation imports it
    from fractions import Fraction

    Scalar = Union[int, Fraction]

# One factor of a term: a magnitude, or a variable with an optional exponent.
# Only parse reads it, so it compiles on the first parse, not at import.
_FACTOR = r"\s*(?:(\d+)|([A-Za-z_]\w*)(?:\^(-?\d+))?)\s*"


def _pow(base: Scalar, exp: int) -> Scalar:
    if exp >= 0:
        return base ** exp
    if base == 0:
        raise ZeroDivisionError("zero raised to a negative power")
    from fractions import Fraction
    return Fraction(1, 1) / (Fraction(base) ** (-exp))


def _normalize(value: Fraction) -> Scalar:
    return int(value) if value.denominator == 1 else value


def _parse_terms(text: str, variables: Tuple[str, ...]) -> Dict[Tuple[int, ...], int]:
    """Exponent vector -> coefficient, read by the grammar ``_format_terms``
    prints: terms split at each sign that is not an exponent's, each term a
    magnitude, then variables with optional exponents, joined by ``*``."""
    parts = re.split(r"(?<!\^)([+-])", text)
    if len(parts) > 1 and not parts[0].strip():  # a sign before the first term
        del parts[0]
    else:
        parts.insert(0, "+")
    factor_match = re.compile(_FACTOR).fullmatch  # re caches the compiled form
    terms: Dict[Tuple[int, ...], int] = {}
    for sign, term in zip(parts[::2], parts[1::2]):
        coeff, expo = 1, [0] * len(variables)
        for i, factor in enumerate(term.split("*")):
            m = factor_match(factor)
            if not m or (i and m[1]) or m[2] not in (None,) + variables:
                raise ValueError(f"malformed term {term.strip()!r} in {text!r}")
            if m[1]:
                coeff = int(m[1])
            else:
                expo[variables.index(m[2])] += int(m[3] or 1)
        key = tuple(expo)
        terms[key] = terms.get(key, 0) + (-coeff if sign == "-" else coeff)
    return {k: v for k, v in terms.items() if v}


def _format_terms(
    items: Iterable[Tuple[Tuple[int, ...], int]], variables: Tuple[str, ...]
) -> str:
    parts = []
    for expo, coeff in items:
        factors = []
        mag = abs(coeff)
        if mag != 1 or all(e == 0 for e in expo):
            factors.append(str(mag))
        for var, e in zip(variables, expo):
            if e == 1:
                factors.append(var)
            elif e != 0:
                factors.append(f"{var}^{e}")
        body = "*".join(factors)
        parts.append(("-" if coeff < 0 else "+", body))
    if not parts:
        return "0"
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


class _SparsePoly:
    """Arithmetic shared by both classes: ``terms`` maps keys to nonzero ints.

    Subclasses fix the key shape and supply ``const``, ``monomial``,
    ``parse``, ``*`` and ``evaluate``.  Polynomials of different classes are
    never equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms: Dict = {k: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def collect(cls, counts: Mapping[Tuple, int], exponent: Callable):
        """The polynomial whose term at exponent(*key) sums counts[key]: R,
        chi, C and j are each one call on ``refinement_profile``'s totals."""
        terms: Dict = {}
        for key, c in counts.items():
            e = exponent(*key)
            terms[e] = terms.get(e, 0) + c
        return cls(terms)

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return type(self)(out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scalar_multiply(-1)

    def scalar_multiply(self, c: int):
        return type(self)({k: c * v for k, v in self.terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = self.const(1)
        for _ in range(e):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        return isinstance(other, type(self)) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}.parse({str(self)!r})"


class BiPoly(_SparsePoly):
    """Bivariate polynomial in u and v with integer coefficients."""

    __slots__ = ()

    @classmethod
    def const(cls, c: int) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, coeff: int, eu: int, ev: int) -> "BiPoly":
        return cls({(eu, ev): coeff})

    @classmethod
    def parse(cls, text: str) -> "BiPoly":
        return cls(_parse_terms(text, ("u", "v")))

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        out: Dict[Tuple[int, int], int] = {}
        for (a, b), c in self.terms.items():
            for (d, e), f in other.terms.items():
                k = (a + d, b + e)
                out[k] = out.get(k, 0) + c * f
        return BiPoly(out)

    def evaluate(self, u: Scalar, v: Scalar) -> Scalar:
        from fractions import Fraction
        total = Fraction(0)
        for (eu, ev), c in self.terms.items():
            total += c * Fraction(_pow(u, eu)) * Fraction(_pow(v, ev))
        return _normalize(total)

    def hyperbola_section(self) -> "UniPoly":
        """The Laurent polynomial obtained by setting u = v^-1."""
        return UniPoly.collect(self.terms, lambda eu, ev: ev - eu)

    def sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0])
        )

    def __str__(self) -> str:
        return _format_terms(self.sorted_terms(), ("u", "v"))


class UniPoly(_SparsePoly):
    """Univariate Laurent polynomial with integer coefficients.

    The variable is anonymous; pick its display name at print time.
    """

    __slots__ = ()

    @classmethod
    def const(cls, c: int) -> "UniPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, coeff: int, e: int) -> "UniPoly":
        return cls({e: coeff})

    @classmethod
    def parse(cls, text: str, var: str = "x") -> "UniPoly":
        raw = _parse_terms(text, (var,))
        return cls({k[0]: v for k, v in raw.items()})

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        out: Dict[int, int] = {}
        for a, c in self.terms.items():
            for b, f in other.terms.items():
                out[a + b] = out.get(a + b, 0) + c * f
        return UniPoly(out)

    def evaluate(self, x: Scalar) -> Scalar:
        from fractions import Fraction
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * Fraction(_pow(x, e))
        return _normalize(total)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: -kv[0])

    def to_string(self, var: str = "x") -> str:
        return _format_terms(
            (((e,), c) for e, c in self.sorted_terms()), (var,)
        )

    def __str__(self) -> str:
        return self.to_string()
