"""Operator layer: reflections, shifts, T0/T1, Y, D and D'."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_laurent as ref
from fraction_hecke import (
    LaurentFraction,
    aw_fraction,
    limit_at_infinity,
    r0_fraction,
    r1_fraction,
    s0,
    shift_q,
    shift_q_inv,
)
from awlab.hecke import (
    NotSymmetricError,
    apply_D,
    apply_D_prime,
    apply_T0,
    apply_t0_T0_inv,
    apply_T1,
    apply_t1_T1_inv,
    apply_Y,
)
from awlab.laurent import LaurentPoly, combination
from awlab.scalars import check_genericity, lambda_n

P8 = check_genericity(F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11), 8)

Z = LaurentPoly.monomial(1)
ZI = LaurentPoly.monomial(-1)

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)

laurents = st.dictionaries(
    st.integers(min_value=-5, max_value=5), small_fractions, max_size=6
).map(LaurentPoly)

symmetric_laurents = st.dictionaries(
    st.integers(min_value=0, max_value=5), small_fractions, max_size=5
).map(lambda d: LaurentPoly({**{k: v for k, v in d.items()},
                             **{-k: v for k, v in d.items() if k}}))


def test_reflections_on_monomials():
    f = LaurentPoly({3: 2, -1: 5})
    assert f.reflect(1) == LaurentPoly({-3: 2, 1: 5})
    # s0 sends z^k to (q/z)^k
    assert s0(Z, P8) == LaurentPoly({-1: F(1, 2)})
    assert s0(ZI, P8) == LaurentPoly({1: 2})


def test_shift_substitutions():
    assert shift_q(Z, P8) == Z.scale(F(1, 2))
    assert shift_q_inv(Z, P8) == Z.scale(2)
    f = LaurentPoly({2: 1, -3: 4})
    assert shift_q_inv(shift_q(f, P8), P8) == f


@given(laurents)
def test_reflection_compositions_give_shifts(f):
    # s1 s0 = (z -> qz) and s0 s1 = (z -> z/q)
    assert s0(f, P8).reflect(1) == shift_q(f, P8)
    assert s0(f.reflect(1), P8) == shift_q_inv(f, P8)
    assert f.reflect(1).reflect(1) == f
    assert s0(s0(f, P8), P8) == f


def test_r_fraction_cocycle():
    # r1 + s1(r1) = 1 + t1 and r0 + s0(r0) = 1 + t0
    one = LaurentPoly.one()
    r1 = r1_fraction(P8)
    lhs = r1 + r1.substitute(ref.SUB_INV)
    assert lhs == LaurentFraction(one.scale(1 + P8.t1), one)
    r0 = r0_fraction(P8)
    lhs0 = r0 + r0.substitute(ref.SUB_Q_OVER_Z, P8.q)
    assert lhs0 == LaurentFraction(one.scale(1 + P8.t0), one)


def test_t1_action_on_degree_one():
    # T1 z = z^-1 - (a + b); the z coefficient cancels exactly
    a, b = P8.a, P8.b
    assert apply_T1(Z, P8) == LaurentPoly({-1: 1, 0: -(a + b)})
    # T1 z^-1 = -ab z + (a + b) - (1 + ab) z^-1
    assert apply_T1(ZI, P8) == LaurentPoly(
        {1: -a * b, 0: a + b, -1: -(1 + a * b)})


def test_t0_action_on_degree_one():
    c, d, q, t0 = P8.c, P8.d, P8.q, P8.t0
    assert apply_T0(Z, P8) == LaurentPoly(
        {1: t0 - 1, 0: c + d, -1: -c * d})
    # T0 z^-1 = z/q - (c + d)/q; the z^-1 coefficient cancels exactly
    assert apply_T0(ZI, P8) == LaurentPoly({1: 1 / q, 0: -(c + d) / q})


def test_t_operators_fix_constants():
    one = LaurentPoly.one()
    assert apply_T1(one, P8) == one.scale(P8.t1)
    assert apply_T0(one, P8) == one.scale(P8.t0)


@given(laurents)
def test_quadratic_relations(f):
    # (T_i - t_i)(T_i + 1) f = 0
    g1 = combination(((1, apply_T1(f, P8)), (1, f)))
    assert apply_T1(g1, P8) == g1.scale(P8.t1)
    g0 = combination(((1, apply_T0(f, P8)), (1, f)))
    assert apply_T0(g0, P8) == g0.scale(P8.t0)


@given(laurents)
def test_scaled_inverses(f):
    # (t_i T_i^-1) T_i = t_i id, both ways round
    assert apply_t1_T1_inv(apply_T1(f, P8), P8) == f.scale(P8.t1)
    assert apply_T1(apply_t1_T1_inv(f, P8), P8) == f.scale(P8.t1)
    assert apply_t0_T0_inv(apply_T0(f, P8), P8) == f.scale(P8.t0)
    assert apply_T0(apply_t0_T0_inv(f, P8), P8) == f.scale(P8.t0)


@given(symmetric_laurents)
def test_t1_fixes_symmetric_input_up_to_scale(f):
    # on s1-invariant input T1 acts by t1
    assert apply_T1(f, P8) == f.scale(P8.t1)


def test_y_on_constants_and_monomials():
    one = LaurentPoly.one()
    assert apply_Y(one, P8) == one.scale(P8.t1 * P8.t0)
    # Y z^-1 has z^-1 coefficient exactly mu_{-1} = 1/q
    y = apply_Y(ZI, P8)
    assert y.coeff(-1) == 2
    assert y.max_deg <= 1


def test_d_requires_symmetric_input():
    with pytest.raises(NotSymmetricError):
        apply_D(Z, P8)
    with pytest.raises(NotSymmetricError):
        apply_D(LaurentPoly({2: 1, -2: 1, 1: 1}), P8)


def test_d_annihilates_constants():
    assert not apply_D(LaurentPoly.one(), P8)
    assert not apply_D(LaurentPoly.zero(), P8)


def test_d_on_first_symmetric_monomial():
    # D(z + 1/z) = lambda_1 (z + 1/z) + constant, and the constant is
    # pinned by D applied to the monic eigenpolynomial
    m1 = LaurentPoly({1: 1, -1: 1})
    out = apply_D(m1, P8)
    assert out.coeff(1) == lambda_n(1, P8)
    assert out.coeff(-1) == lambda_n(1, P8)
    assert tuple(k for k, _ in out.items()) in ((0, -1, 1), (-1, 0, 1),
                                                (-1, 1))


@given(symmetric_laurents)
@settings(max_examples=40)
def test_d_preserves_symmetric_degree(f):
    out = apply_D(f, P8)
    assert out.is_symmetric()
    if f:
        assert not out or out.max_deg <= f.max_deg


def test_d_prime_annihilates_constants():
    assert not apply_D_prime(LaurentPoly.one(), P8)


def test_d_prime_on_z():
    # D' z = (abcd - 1)(z + 1/z) + (a+b)(1 - cd) + (c+d)(1 - ab)
    a, b, c, d = P8.a, P8.b, P8.c, P8.d
    expected = LaurentPoly({
        1: P8.abcd - 1,
        -1: P8.abcd - 1,
        0: (a + b) * (1 - c * d) + (c + d) * (1 - a * b),
    })
    assert apply_D_prime(Z, P8) == expected
    assert apply_D_prime(Z, P8, form="direct") == expected


@given(laurents)
@settings(max_examples=60)
def test_d_prime_forms_agree(f):
    assert apply_D_prime(f, P8, form="factored") == \
        apply_D_prime(f, P8, form="direct")


def test_d_prime_rejects_unknown_form():
    with pytest.raises(ValueError):
        apply_D_prime(Z, P8, form="other")


@given(symmetric_laurents)
@settings(max_examples=40)
def test_d_prime_restricts_to_d_on_symmetric_input(f):
    assert apply_D_prime(f, P8) == apply_D(f, P8)


def test_aw_fraction_limits():
    # the two rational coefficients of D tend to abcd/q and 1 at infinity
    A = aw_fraction(P8)
    assert limit_at_infinity(A) == P8.abcd / P8.q
    assert limit_at_infinity(A.substitute(ref.SUB_INV)) == 1
