"""Reference operators assembled from LaurentFraction, one long division each.

The oracle for the fused kernels in awlab.hecke: these are the operator
bodies that built each image as a LaurentFraction (numerator times the
operator coefficient, over its denominator) and divided once at the end.
They share the substitutions, the coefficient fractions and
exact_quotient with the package, but none of the kernels' integer
arithmetic.
"""

from __future__ import annotations

from awlab.hecke import (
    LaurentFraction,
    NotSymmetricError,
    aw_fraction,
    r0_fraction,
    r1_fraction,
    s0,
    s1,
    shift_q,
    shift_q_inv,
)
from awlab.laurent import SUB_INV, LaurentPoly


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
