"""Operators on Laurent polynomials: divided differences, T0/T1, D.

Everything here acts exactly.  The building blocks are two involutions,

    s1 : z -> 1/z          s0 : z -> q/z,

names of notation only: both are `LaurentPoly.reflect(u)`, the one map
z -> u/z, at u = 1 and at u = q.  Their composites are the q-shifts
s1 s0 : z -> q z and s0 s1 : z -> z/q.  On top of them sit two operators
T0, T1 of the form t + r(z)(s - 1) with rational coefficients r chosen so
each satisfies the quadratic relation (T - t)(T + 1) = 0, a second-order
q-difference operator D acting on symmetric polynomials, a one-sided
variant of D acting on everything, and the composite Y = T1 T0 whose
eigenfunctions the polynomial layer constructs.

Each coefficient r is a small numerator over a binomial, and the
operators use that: T0 and T1 run `laurent.reflection_difference`, D and
the direct form of D' run `laurent.q_difference`, fused kernels that
divide only by binomials.  By the quadratic relation, t_i T_i^{-1} is
T_i - t_i + 1, and the factored D' is (T1 + 1)(T0 - t0); each such T_i
plus a scalar, the symmetrizer T1 + 1 included, is one pass of T_i's
kernel with another diagonal coefficient.  Their constants come from a
`laurent.Plan` per operator and point, built at the operator's first
call there and kept in the point's store (`scalars.memo`); the plans of
T0 and D read the powers of q from the point's one table
(`scalars.powers`), which the closed forms share.  With
N = (1-az)(1-bz)(1-cz)(1-dz),

    T1 f = t1 f + (1-az)(1-bz) (f(1/z) - f(z)) / (1 - z^2)
    T0 f = t0 f + (z-c)(z-d) (f(q/z) - f(z)) / (z^2 - q)
    D' f = [N(z) g1 - z^2 N(1/z) g2] / (1 - z^2),
           g1 = (f(qz) - f(1/z)) / (1 - q z^2),  g2 = z^2 (f(q/z) - f(z)) / (z^2 - q)

and D is the same with f(z) for f(1/z) and f(z/q) for f(q/z), which for
symmetric f changes nothing.  Since g2(z) = g1(1/z), the kernel forms
g1 and N g1 only, and reads the second term as N g1 reversed; for D it
first tests, at each call, that the input's coefficient list equals its
reverse, and refuses it otherwise.  Each division is exact because the
difference vanishes where its binomial does (on the fixed locus of the
involution, or where the q-shift meets it); a nonzero remainder would mean
the operator was fed an input outside its domain and surfaces as
NotDivisibleError rather than a silently wrong answer.

Every image here is exact but unreduced: the kernels return their
numerators over the denominator they formed, so an image that is only
zero-tested or summed again pays for no gcd pass.  Equality and hashing
reduce a value first; the constructions in the polynomial layer reduce
what they keep.

The coefficients themselves, r1, r0 and A = N / ((1-z^2)(1-qz^2)), appear
only in the verifier, which checks r + s(r) = t + 1 and the limits of A
on numerator and denominator Laurent polynomials kept apart.
"""

from __future__ import annotations

from .laurent import LaurentPoly, Plan, q_difference, reflection_difference
from .scalars import ParamSet, Powers, e1, e3, memo, powers


class NotSymmetricError(ValueError):
    """An operator defined only on symmetric polynomials got an asymmetric input."""


# The plans of T1, T0 and D (which direct D' shares), read through memo;
# a plan has no index, so n is None.


def _t1_plan(_, p: ParamSet) -> Plan:
    return Plan(Powers(1), (-1, p.a + p.b, p.t1), p.t1)


def _t0_plan(_, p: ParamSet) -> Plan:
    return Plan(powers(p), (p.c * p.d, -p.c - p.d, 1), p.t0)


def _d_plan(_, p: ParamSet) -> Plan:
    # N(z) = (1-az)(1-bz)(1-cz)(1-dz) = 1 - e1 z + e2 z^2 - e3 z^3 + e4 z^4
    a, b, c, d = p.a, p.b, p.c, p.d
    e2 = a * b + a * c + a * d + b * c + b * d + c * d
    return Plan(powers(p), (1, -e1(p), e2, -e3(p), p.abcd))


def apply_T1(f: LaurentPoly, p: ParamSet) -> LaurentPoly:
    """T1 f = t1 f + r1(z) (f(1/z) - f(z)), with t1 = -ab.

    r1 = (1 - az)(1 - bz) / (1 - z^2) = -(1 - (a+b) z + ab z^2) / (z^2 - 1).
    """
    plan = memo("T1", _t1_plan, None, p)
    return reflection_difference(f, plan, plan.t)


def apply_T0(f: LaurentPoly, p: ParamSet) -> LaurentPoly:
    """T0 f = t0 f + r0(z) (f(q/z) - f(z)), with t0 = -cd/q.

    r0 = (z - c)(z - d) / (z^2 - q) = (cd - (c+d) z + z^2) / (z^2 - q).
    """
    plan = memo("T0", _t0_plan, None, p)
    return reflection_difference(f, plan, plan.t)


def apply_t1_T1_inv(f: LaurentPoly, p: ParamSet) -> LaurentPoly:
    """t1 T1^{-1} f = (T1 - t1 + 1) f, read off from the quadratic relation:
    T1's kernel with diagonal 1."""
    plan = memo("T1", _t1_plan, None, p)
    return reflection_difference(f, plan, plan.den)


def apply_t0_T0_inv(f: LaurentPoly, p: ParamSet) -> LaurentPoly:
    """t0 T0^{-1} f = (T0 - t0 + 1) f, read off from the quadratic relation:
    T0's kernel with diagonal 1."""
    plan = memo("T0", _t0_plan, None, p)
    return reflection_difference(f, plan, plan.den)


def symmetrize(f: LaurentPoly, p: ParamSet) -> LaurentPoly:
    """(T1 + 1) f, which is always symmetric: T1's kernel with diagonal
    t1 + 1."""
    plan = memo("T1", _t1_plan, None, p)
    return reflection_difference(f, plan, plan.t + plan.den)


def apply_Y(f: LaurentPoly, p: ParamSet) -> LaurentPoly:
    """Y f = T1 T0 f."""
    return apply_T1(apply_T0(f, p), p)


def apply_D(f: LaurentPoly, p: ParamSet) -> LaurentPoly:
    """Second-order q-difference operator on symmetric Laurent polynomials.

    D f = A(z) (f(qz) - f(z)) + A(1/z) (f(z/q) - f(z)),
    A = (1-az)(1-bz)(1-cz)(1-dz) / ((1-z^2)(1-q z^2)).
    Neither summand is polynomial on its own; the sum is, provided f is
    symmetric, so the two terms are combined over a common denominator
    before the one exact division.
    """
    if not f.is_symmetric():
        raise NotSymmetricError("D is defined on symmetric polynomials only")
    return q_difference(f, memo("D", _d_plan, None, p), one_sided=False)


def apply_D_prime(
    f: LaurentPoly, p: ParamSet, form: str = "factored"
) -> LaurentPoly:
    """One-sided relative of D, defined on all Laurent polynomials.

    form "factored" computes (T1 + 1)(T0 - t0) f, two kernel passes with
    diagonals 0 and t1 + 1.  form "direct" computes
    A(z)(f(qz) - f(1/z)) + A(1/z)(f(q/z) - f(z)), which agrees with the
    factored form identically; keeping both routes lets the verifier compare
    them rather than trusting either one.
    """
    if form == "factored":
        g = reflection_difference(f, memo("T0", _t0_plan, None, p), 0)
        return symmetrize(g, p)
    if form == "direct":
        return q_difference(f, memo("D", _d_plan, None, p), one_sided=True)
    raise ValueError(f"unknown form {form!r}; expected 'factored' or 'direct'")
