"""Operators on Laurent polynomials: substitutions, divided differences, T0/T1, D.

Everything here acts exactly.  The building blocks are two involutions,

    s1 : z -> 1/z          s0 : z -> q/z,

whose composites are the q-shifts s1 s0 : z -> q z and s0 s1 : z -> z/q.
On top of them sit two operators T0, T1 of the form t + r(z)(s - 1) with
rational coefficients r chosen so each satisfies the quadratic relation
(T - t)(T + 1) = 0, a second-order q-difference operator D acting on
symmetric polynomials, a one-sided variant of D acting on everything,
and the composite Y = T1 T0 whose eigenfunctions the polynomial layer
constructs.

Each coefficient r is a small numerator over a binomial, and the
operators use that: T0 and T1 run `laurent.reflection_difference`, D and
the direct form of D' run `laurent.q_difference`, fused kernels that
divide only by binomials and take their constants from the point on each
call.  With N = (1-az)(1-bz)(1-cz)(1-dz),

    T1 f = t1 f + (1-az)(1-bz) (f(1/z) - f(z)) / (1 - z^2)
    T0 f = t0 f + (z-c)(z-d) (f(q/z) - f(z)) / (z^2 - q)
    D' f = [N(z) g1 - z^2 N(1/z) g2] / (1 - z^2),
           g1 = (f(qz) - f(1/z)) / (1 - q z^2),  g2 = z^2 (f(q/z) - f(z)) / (z^2 - q)

and D is the same with f(z) for f(1/z) and f(z/q) for f(q/z), which for
symmetric f changes nothing.  Each division is exact because the
difference vanishes where its binomial does (on the fixed locus of the
involution, or where the q-shift meets it); a nonzero remainder would mean
the operator was fed an input outside its domain and surfaces as
NotDivisibleError rather than a silently wrong answer.

LaurentFraction, a deliberately unreduced quotient num/den, holds the
operator coefficients r1, r0 and A = N / ((1-z^2)(1-qz^2)) themselves, for
the coefficient identities the verifier checks once per run.  It is never
simplified by GCD; equality is decided by cross-multiplication and
`reduce` performs one exact division.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import (
    SUB_INV,
    SUB_Q_OVER_Z,
    SUB_QZ,
    SUB_Z_OVER_Q,
    LaurentPoly,
    exact_quotient,
    q_difference,
    reflection_difference,
)
from .scalars import ParamSet, Scalar


class NotSymmetricError(ValueError):
    """An operator defined only on symmetric polynomials got an asymmetric input."""


def s1(f: LaurentPoly) -> LaurentPoly:
    """Substitute z -> 1/z."""
    return f.substitute(SUB_INV)


def s0(f: LaurentPoly, p: ParamSet) -> LaurentPoly:
    """Substitute z -> q/z."""
    return f.substitute(SUB_Q_OVER_Z, p.q)


def shift_q(f: LaurentPoly, p: ParamSet) -> LaurentPoly:
    """Substitute z -> q*z."""
    return f.substitute(SUB_QZ, p.q)


def shift_q_inv(f: LaurentPoly, p: ParamSet) -> LaurentPoly:
    """Substitute z -> z/q."""
    return f.substitute(SUB_Z_OVER_Q, p.q)


def _as_poly(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.constant(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a Laurent polynomial")


class LaurentFraction:
    """Unreduced quotient of Laurent polynomials with a nonzero denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = LaurentPoly.one() if den is None else _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("fraction with zero denominator")
        self.num = num
        self.den = den

    def __add__(self, other) -> "LaurentFraction":
        if not isinstance(other, LaurentFraction):
            other = LaurentFraction(other)
        if self.den == other.den:
            return LaurentFraction(self.num + other.num, self.den)
        return LaurentFraction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __mul__(self, other) -> "LaurentFraction":
        if not isinstance(other, LaurentFraction):
            other = LaurentFraction(other)
        return LaurentFraction(self.num * other.num, self.den * other.den)

    def substitute(self, rule: str, q: Scalar | None = None) -> "LaurentFraction":
        return LaurentFraction(
            self.num.substitute(rule, q), self.den.substitute(rule, q)
        )

    def reduce(self) -> LaurentPoly:
        """Exact division of num by den."""
        return exact_quotient(self.num, self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = LaurentFraction(other)
        if not isinstance(other, LaurentFraction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"LaurentFraction(({self.num}) / ({self.den}))"


def limit_at_infinity(fr: LaurentFraction) -> Scalar:
    """Limit of the fraction as z grows without bound.

    Zero when the numerator's top degree is below the denominator's, the
    ratio of leading coefficients when they match; diverging fractions are
    a ValueError.
    """
    if fr.num.is_zero():
        return Fraction(0)
    n_top, d_top = fr.num.max_deg, fr.den.max_deg
    if n_top < d_top:
        return Fraction(0)
    if n_top > d_top:
        raise ValueError("fraction diverges as z -> infinity")
    return fr.num.coeff(n_top) / fr.den.coeff(d_top)


def r1_fraction(p: ParamSet) -> LaurentFraction:
    """Coefficient (1 - a z)(1 - b z) / (1 - z^2) in front of (s1 - 1)."""
    z = LaurentPoly.monomial(1)
    num = (1 - p.a * z) * (1 - p.b * z)
    den = 1 - z * z
    return LaurentFraction(num, den)


def r0_fraction(p: ParamSet) -> LaurentFraction:
    """Coefficient (z - c)(z - d) / (z^2 - q) in front of (s0 - 1)."""
    z = LaurentPoly.monomial(1)
    num = (z - p.c) * (z - p.d)
    den = z * z - p.q
    return LaurentFraction(num, den)


def aw_fraction(p: ParamSet) -> LaurentFraction:
    """Coefficient (1-az)(1-bz)(1-cz)(1-dz) / ((1-z^2)(1-q z^2)) of D."""
    z = LaurentPoly.monomial(1)
    num = (1 - p.a * z) * (1 - p.b * z) * (1 - p.c * z) * (1 - p.d * z)
    den = (1 - z * z) * (1 - p.q * z * z)
    return LaurentFraction(num, den)


def apply_T1(f: LaurentPoly, p: ParamSet) -> LaurentPoly:
    """T1 f = t1 f + r1(z) (f(1/z) - f(z)), with t1 = -ab.

    r1 = (1 - az)(1 - bz) / (1 - z^2) = -(1 - (a+b) z + ab z^2) / (z^2 - 1).
    """
    return reflection_difference(f, p.t1, (-1, p.a + p.b, p.t1), 1)


def apply_T0(f: LaurentPoly, p: ParamSet) -> LaurentPoly:
    """T0 f = t0 f + r0(z) (f(q/z) - f(z)), with t0 = -cd/q.

    r0 = (z - c)(z - d) / (z^2 - q) = (cd - (c+d) z + z^2) / (z^2 - q).
    """
    return reflection_difference(f, p.t0, (p.c * p.d, -p.c - p.d, 1), p.q)


def apply_t1_T1_inv(f: LaurentPoly, p: ParamSet) -> LaurentPoly:
    """t1 T1^{-1} f = (T1 - t1 + 1) f, read off from the quadratic relation."""
    return apply_T1(f, p) + f.scale(1 - p.t1)


def apply_t0_T0_inv(f: LaurentPoly, p: ParamSet) -> LaurentPoly:
    """t0 T0^{-1} f = (T0 - t0 + 1) f, read off from the quadratic relation."""
    return apply_T0(f, p) + f.scale(1 - p.t0)


def apply_Y(f: LaurentPoly, p: ParamSet) -> LaurentPoly:
    """Y f = T1 T0 f."""
    return apply_T1(apply_T0(f, p), p)


def apply_D(f: LaurentPoly, p: ParamSet) -> LaurentPoly:
    """Second-order q-difference operator on symmetric Laurent polynomials.

    D f = A(z) (f(qz) - f(z)) + A(1/z) (f(z/q) - f(z)) with A = aw_fraction.
    Neither summand is polynomial on its own; the sum is, provided f is
    symmetric, so the two terms are combined over a common denominator
    before the one exact division.
    """
    if not f.is_symmetric():
        raise NotSymmetricError("D is defined on symmetric polynomials only")
    return q_difference(f, (p.a, p.b, p.c, p.d), p.q, one_sided=False)


def apply_D_prime(
    f: LaurentPoly, p: ParamSet, form: str = "factored"
) -> LaurentPoly:
    """One-sided relative of D, defined on all Laurent polynomials.

    form "factored" computes (T1 + 1)(T0 - t0) f.  form "direct" computes
    A(z)(f(qz) - f(1/z)) + A(1/z)(f(q/z) - f(z)), which agrees with the
    factored form identically; keeping both routes lets the verifier compare
    them rather than trusting either one.
    """
    if form == "factored":
        g = apply_T0(f, p) - f.scale(p.t0)
        return apply_T1(g, p) + g
    if form == "direct":
        return q_difference(f, (p.a, p.b, p.c, p.d), p.q, one_sided=True)
    raise ValueError(f"unknown form {form!r}; expected 'factored' or 'direct'")
