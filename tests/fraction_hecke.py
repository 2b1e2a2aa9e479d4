"""Reference operators assembled from LaurentFraction, one long division each.

The oracle for the fused kernels in awlab.hecke: these are the operator
bodies that built each image as a LaurentFraction (numerator times the
operator coefficient, over its denominator) and divided once at the end.
LaurentFraction, a deliberately unreduced quotient num/den, and the
coefficient fractions r1, r0 and A = N / ((1-z^2)(1-qz^2)) live here;
the package checks the coefficients on plain numerator and denominator
pairs instead.  Every sum, product, substitution and division here is the
{degree: Fraction} dict arithmetic of the Fraction reference
(tests/fraction_laurent.py), so these operators share no arithmetic with
the package.  LaurentPoly is touched only at the edges: an input is read
through `items()`, and a result is built by the constructor.  apply_D's
guard asks the input's own `is_symmetric`, so that a test which bypasses
the package's guard bypasses this one too.  The substitutions z -> 1/z,
z -> q/z, z -> qz and z -> z/q that the operators apply are the
reference's rules; s0, shift_q and shift_q_inv expose the last three on
LaurentPoly values.
"""

from __future__ import annotations

from fractions import Fraction

import fraction_laurent as ref
from awlab.hecke import NotSymmetricError
from awlab.laurent import LaurentPoly, NotDivisibleError
from awlab.scalars import ParamSet, Scalar

Poly = ref.Poly


def _as_dict(x) -> Poly:
    """x as a reference dict: a LaurentPoly through items(), or a scalar."""
    if isinstance(x, LaurentPoly):
        return dict(x.items())
    if isinstance(x, (int, Fraction)):
        return ref.clean({0: x})
    if isinstance(x, dict):
        return ref.clean(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a Laurent polynomial")


class LaurentFraction:
    """Unreduced quotient of reference dicts with a nonzero denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_dict(num)
        den = {0: Fraction(1)} if den is None else _as_dict(den)
        if not den:
            raise ZeroDivisionError("fraction with zero denominator")
        self.num = num
        self.den = den

    def __add__(self, other) -> "LaurentFraction":
        if not isinstance(other, LaurentFraction):
            other = LaurentFraction(other)
        if self.den == other.den:
            return LaurentFraction(ref.add(self.num, other.num), self.den)
        return LaurentFraction(
            ref.add(ref.mul(self.num, other.den), ref.mul(other.num, self.den)),
            ref.mul(self.den, other.den))

    def __mul__(self, other) -> "LaurentFraction":
        if not isinstance(other, LaurentFraction):
            other = LaurentFraction(other)
        return LaurentFraction(ref.mul(self.num, other.num),
                               ref.mul(self.den, other.den))

    def substitute(self, rule: str, q: Scalar | None = None) -> "LaurentFraction":
        """One of the reference's substitutions, on num and den."""
        return LaurentFraction(ref.substitute(self.num, rule, q),
                               ref.substitute(self.den, rule, q))

    def reduce_dict(self) -> Poly:
        """Exact division of num by den, by the Fraction reference."""
        try:
            return ref.exact_quotient(self.num, self.den)
        except ref.RefNotDivisible as err:
            raise NotDivisibleError(LaurentPoly(err.remainder)) from None

    def reduce(self) -> LaurentPoly:
        return LaurentPoly(self.reduce_dict())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = LaurentFraction(other)
        if not isinstance(other, LaurentFraction):
            return NotImplemented
        return ref.mul(self.num, other.den) == ref.mul(other.num, self.den)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"LaurentFraction(({self.num}) / ({self.den}))"


def limit_at_infinity(fr: LaurentFraction) -> Scalar:
    """Limit of the fraction as z grows without bound.

    Zero when the numerator's top degree is below the denominator's, the
    ratio of leading coefficients when they match; diverging fractions are
    a ValueError.
    """
    if not fr.num:
        return Fraction(0)
    n_top, d_top = max(fr.num), max(fr.den)
    if n_top < d_top:
        return Fraction(0)
    if n_top > d_top:
        raise ValueError("fraction diverges as z -> infinity")
    return fr.num[n_top] / fr.den[d_top]


def _linear(c0, c1) -> Poly:
    """c0 + c1 z."""
    return ref.clean({0: c0, 1: c1})


def r1_fraction(p: ParamSet) -> LaurentFraction:
    """Coefficient (1 - a z)(1 - b z) / (1 - z^2) in front of (s1 - 1)."""
    return LaurentFraction(ref.mul(_linear(1, -p.a), _linear(1, -p.b)),
                           {0: Fraction(1), 2: Fraction(-1)})


def r0_fraction(p: ParamSet) -> LaurentFraction:
    """Coefficient (z - c)(z - d) / (z^2 - q) in front of (s0 - 1)."""
    return LaurentFraction(ref.mul(_linear(-p.c, 1), _linear(-p.d, 1)),
                           {0: -p.q, 2: Fraction(1)})


def aw_fraction(p: ParamSet) -> LaurentFraction:
    """Coefficient (1-az)(1-bz)(1-cz)(1-dz) / ((1-z^2)(1-q z^2)) of D."""
    num = {0: Fraction(1)}
    for x in (p.a, p.b, p.c, p.d):
        num = ref.mul(num, _linear(1, -x))
    den = ref.mul({0: Fraction(1), 2: Fraction(-1)}, {0: Fraction(1), 2: -p.q})
    return LaurentFraction(num, den)


def s0(f: LaurentPoly, p) -> LaurentPoly:
    """Substitute z -> q/z."""
    return LaurentPoly(ref.substitute(dict(f.items()), ref.SUB_Q_OVER_Z, p.q))


def shift_q(f: LaurentPoly, p) -> LaurentPoly:
    """Substitute z -> q*z."""
    return LaurentPoly(ref.substitute(dict(f.items()), ref.SUB_QZ, p.q))


def shift_q_inv(f: LaurentPoly, p) -> LaurentPoly:
    """Substitute z -> z/q."""
    return LaurentPoly(ref.substitute(dict(f.items()), ref.SUB_Z_OVER_Q, p.q))


def _T(f: Poly, r: LaurentFraction, t, rule: str, q) -> Poly:
    """t f + r(z) (s f - f), s the substitution named by rule."""
    delta = ref.sub(ref.substitute(f, rule, q), f)
    return ref.add(ref.scale(f, t),
                   LaurentFraction(ref.mul(r.num, delta), r.den).reduce_dict())


def _T1(f: Poly, p) -> Poly:
    return _T(f, r1_fraction(p), p.t1, ref.SUB_INV, p.q)


def _T0(f: Poly, p) -> Poly:
    return _T(f, r0_fraction(p), p.t0, ref.SUB_Q_OVER_Z, p.q)


def apply_T1(f: LaurentPoly, p) -> LaurentPoly:
    """T1 f = t1 f + r1(z) (f(1/z) - f(z)), with t1 = -ab."""
    return LaurentPoly(_T1(dict(f.items()), p))


def apply_T0(f: LaurentPoly, p) -> LaurentPoly:
    """T0 f = t0 f + r0(z) (f(q/z) - f(z)), with t0 = -cd/q."""
    return LaurentPoly(_T0(dict(f.items()), p))


def _A_sum(f_at_qz: Poly, f1: Poly, f_at_z_over_q: Poly, f2: Poly, p) -> Poly:
    """A(z) (f_at_qz - f1) + A(1/z) (f_at_z_over_q - f2), one division."""
    A = aw_fraction(p)
    A_inv = A.substitute(ref.SUB_INV)
    fr = A * LaurentFraction(ref.sub(f_at_qz, f1)) \
        + A_inv * LaurentFraction(ref.sub(f_at_z_over_q, f2))
    return fr.reduce_dict()


def apply_D(f: LaurentPoly, p) -> LaurentPoly:
    """D f = A(z) (f(qz) - f(z)) + A(1/z) (f(z/q) - f(z)), f symmetric."""
    if not f.is_symmetric():
        raise NotSymmetricError("D is defined on symmetric polynomials only")
    rf, q = dict(f.items()), p.q
    return LaurentPoly(_A_sum(ref.substitute(rf, ref.SUB_QZ, q), rf,
                              ref.substitute(rf, ref.SUB_Z_OVER_Q, q), rf, p))


def apply_D_prime(f: LaurentPoly, p, form: str = "factored") -> LaurentPoly:
    """(T1 + 1)(T0 - t0) f, or A(z)(f(qz) - f(1/z)) + A(1/z)(f(q/z) - f(z))."""
    rf, q = dict(f.items()), p.q
    if form == "factored":
        g = ref.sub(_T0(rf, p), ref.scale(rf, p.t0))
        return LaurentPoly(ref.add(_T1(g, p), g))
    if form == "direct":
        sf = ref.substitute(rf, ref.SUB_INV)
        return LaurentPoly(_A_sum(ref.substitute(rf, ref.SUB_QZ, q), sf,
                                  ref.substitute(sf, ref.SUB_Z_OVER_Q, q), rf, p))
    raise ValueError(f"unknown form {form!r}; expected 'factored' or 'direct'")
