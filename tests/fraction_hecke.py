"""Reference operators assembled from LaurentFraction, one long division each.

The oracle for the fused kernels in awlab.hecke: these are the operator
bodies that built each image as a LaurentFraction (numerator times the
operator coefficient, over its denominator) and divided once at the end.
LaurentFraction, a deliberately unreduced quotient num/den, and the
coefficient fractions r1, r0 and A = N / ((1-z^2)(1-qz^2)) live here;
the package checks the coefficients on plain numerator and denominator
pairs instead.  These operators share the substitution rules with the
package, but neither its division nor the kernels' integer arithmetic:
`reduce` divides by the long division of the Fraction reference
(tests/fraction_laurent.py).  The substitutions z -> q/z, z -> qz and
z -> z/q that they apply live here, as s0, shift_q and shift_q_inv; the
two q-shifts also go through the Fraction reference, since the package
has no rule for them.
"""

from __future__ import annotations

from fractions import Fraction

import fraction_laurent as ref
from awlab.hecke import NotSymmetricError, s1
from awlab.laurent import SUB_INV, SUB_Q_OVER_Z, LaurentPoly, NotDivisibleError
from awlab.scalars import ParamSet, Scalar


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
        """Exact division of num by den, by the Fraction reference."""
        try:
            return LaurentPoly(ref.exact_quotient(dict(self.num.items()),
                                                  dict(self.den.items())))
        except ref.RefNotDivisible as err:
            raise NotDivisibleError(LaurentPoly(err.remainder)) from None

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


def s0(f: LaurentPoly, p) -> LaurentPoly:
    """Substitute z -> q/z."""
    return f.substitute(SUB_Q_OVER_Z, p.q)


def shift_q(f: LaurentPoly, p) -> LaurentPoly:
    """Substitute z -> q*z."""
    return LaurentPoly(ref.substitute(dict(f.items()), ref.SUB_QZ, p.q))


def shift_q_inv(f: LaurentPoly, p) -> LaurentPoly:
    """Substitute z -> z/q."""
    return LaurentPoly(ref.substitute(dict(f.items()), ref.SUB_Z_OVER_Q, p.q))


def apply_T1(f: LaurentPoly, p) -> LaurentPoly:
    """T1 f = t1 f + r1(z) (f(1/z) - f(z)), with t1 = -ab."""
    r = r1_fraction(p)
    delta = s1(f) - f
    return f.scale(p.t1) + LaurentFraction(r.num * delta, r.den).reduce()


def apply_T0(f: LaurentPoly, p) -> LaurentPoly:
    """T0 f = t0 f + r0(z) (f(q/z) - f(z)), with t0 = -cd/q."""
    r = r0_fraction(p)
    delta = s0(f, p) - f
    return f.scale(p.t0) + LaurentFraction(r.num * delta, r.den).reduce()


def apply_D(f: LaurentPoly, p) -> LaurentPoly:
    """D f = A(z) (f(qz) - f(z)) + A(1/z) (f(z/q) - f(z)), f symmetric."""
    if not f.is_symmetric():
        raise NotSymmetricError("D is defined on symmetric polynomials only")
    A = aw_fraction(p)
    A_inv = A.substitute(SUB_INV)
    fr = A * (shift_q(f, p) - f) + A_inv * (shift_q_inv(f, p) - f)
    return fr.reduce()


def apply_D_prime(f: LaurentPoly, p, form: str = "factored") -> LaurentPoly:
    """(T1 + 1)(T0 - t0) f, or A(z)(f(qz) - f(1/z)) + A(1/z)(f(q/z) - f(z))."""
    if form == "factored":
        g = apply_T0(f, p) - f.scale(p.t0)
        return apply_T1(g, p) + g
    if form == "direct":
        A = aw_fraction(p)
        A_inv = A.substitute(SUB_INV)
        sf = s1(f)
        fr = A * (shift_q(f, p) - sf) + A_inv * (shift_q_inv(sf, p) - f)
        return fr.reduce()
    raise ValueError(f"unknown form {form!r}; expected 'factored' or 'direct'")
