"""Laurent polynomial arithmetic, substitution, division, serialization."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awlab.hecke import LaurentFraction, limit_at_infinity
from awlab.identities import BOTH_ZERO, proportional
from awlab.laurent import (
    SUB_INV,
    SUB_Q_OVER_Z,
    SUB_QZ,
    SUB_Z_OVER_Q,
    LaurentPoly,
    NotDivisibleError,
    _binomial_quotient,
    exact_quotient,
)

import fraction_laurent as ref

Q = F(1, 2)

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)

laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6), small_fractions, max_size=7
).map(LaurentPoly)

nonzero_laurents = laurents.filter(lambda f: not f.is_zero())


def test_constructor_drops_zero_coefficients():
    f = LaurentPoly({2: F(0), 1: 3, -1: F(1, 2), 0: 0})
    assert f.support() == (-1, 1)
    assert f.coeff(2) == 0
    assert f.coeff(1) == F(3)
    assert isinstance(f.coeff(1), F)


def test_named_constructors():
    assert LaurentPoly.zero().is_zero()
    assert LaurentPoly.one() == 1
    assert LaurentPoly.constant(F(3, 4)) == F(3, 4)
    m = LaurentPoly.monomial(-3, 5)
    assert m.items() == [(-3, F(5))]
    assert LaurentPoly.monomial(2) == LaurentPoly({2: 1})


def test_degree_bounds():
    f = LaurentPoly({-2: 1, 3: 4})
    assert f.min_deg == -2
    assert f.max_deg == 3
    assert LaurentPoly.zero().min_deg is None
    assert LaurentPoly.zero().max_deg is None


def test_equality_lifts_scalars():
    assert LaurentPoly.constant(2) == 2
    assert LaurentPoly.constant(F(1, 3)) == F(1, 3)
    assert LaurentPoly({1: 1}) != 1
    assert LaurentPoly.zero() == 0


def test_hash_consistent_with_equality():
    f = LaurentPoly({1: F(2, 4), -1: 3})
    g = LaurentPoly({-1: F(6, 2), 1: F(1, 2)})
    assert f == g
    assert hash(f) == hash(g)
    assert len({f, g}) == 1


def test_scalar_arithmetic_mixing():
    f = LaurentPoly({1: 1})
    assert (f + 1).coeff(0) == 1
    assert (1 + f) == f + 1
    assert (f - F(1, 2)) + F(1, 2) == f
    assert (2 - f) == -(f - 2)
    assert (3 * f) == f * 3 == f.scale(3)


@given(laurents, laurents, laurents)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + LaurentPoly.zero() == f
    assert f * LaurentPoly.one() == f
    assert f - f == LaurentPoly.zero()


@given(laurents)
def test_substitution_involutions(f):
    assert f.substitute(SUB_INV).substitute(SUB_INV) == f
    assert f.substitute(SUB_QZ, Q).substitute(SUB_Z_OVER_Q, Q) == f
    assert f.substitute(SUB_Q_OVER_Z, Q).substitute(SUB_Q_OVER_Z, Q) == f


@given(laurents, laurents)
def test_substitution_is_a_ring_map(f, g):
    for rule in (SUB_INV, SUB_QZ, SUB_Z_OVER_Q, SUB_Q_OVER_Z):
        assert (f * g).substitute(rule, Q) == \
            f.substitute(rule, Q) * g.substitute(rule, Q)
        assert (f + g).substitute(rule, Q) == \
            f.substitute(rule, Q) + g.substitute(rule, Q)


def test_substitution_on_monomials():
    z3 = LaurentPoly.monomial(3)
    assert z3.substitute(SUB_QZ, Q) == LaurentPoly.monomial(3, F(1, 8))
    assert z3.substitute(SUB_Z_OVER_Q, Q) == LaurentPoly.monomial(3, 8)
    assert z3.substitute(SUB_INV) == LaurentPoly.monomial(-3)
    assert z3.substitute(SUB_Q_OVER_Z, Q) == LaurentPoly.monomial(-3, F(1, 8))


def test_substitution_requires_q_when_scaling():
    f = LaurentPoly({1: 1})
    f.substitute(SUB_INV)  # fine without q
    with pytest.raises(ValueError):
        f.substitute(SUB_QZ)
    with pytest.raises(ValueError):
        f.substitute(SUB_QZ, 0)
    with pytest.raises(ValueError):
        f.substitute("z^2", Q)


def test_is_symmetric():
    assert LaurentPoly({1: 2, -1: 2, 0: 5}).is_symmetric()
    assert LaurentPoly.zero().is_symmetric()
    assert LaurentPoly.constant(3).is_symmetric()
    assert not LaurentPoly({1: 2, -1: 3}).is_symmetric()
    assert not LaurentPoly({2: 1}).is_symmetric()


def test_exact_quotient_plain_cases():
    z = LaurentPoly.monomial(1)
    one = LaurentPoly.one()
    assert exact_quotient(z * z - one, z - one) == z + one
    # Laurent division reaches into negative degrees
    f = LaurentPoly({1: 1, -1: -1})          # z - 1/z
    g = LaurentPoly({0: 1, 2: -1})           # 1 - z^2
    assert exact_quotient(f, g) == LaurentPoly.monomial(-1, -1)
    assert exact_quotient(LaurentPoly.zero(), g).is_zero()


def test_exact_quotient_remainder_reported():
    z = LaurentPoly.monomial(1)
    with pytest.raises(NotDivisibleError) as err:
        exact_quotient(z * z + 1, z + 1)
    assert not err.value.remainder.is_zero()
    with pytest.raises(ZeroDivisionError):
        exact_quotient(z, LaurentPoly.zero())


@given(laurents, nonzero_laurents)
def test_exact_quotient_inverts_multiplication(f, g):
    assert exact_quotient(f * g, g) == f


@given(nonzero_laurents, nonzero_laurents)
@settings(max_examples=60)
def test_exact_quotient_never_silently_wrong(f, g):
    # whenever division succeeds the product reproduces the numerator
    try:
        h = exact_quotient(f, g)
    except NotDivisibleError as err:
        assert f - err.remainder != f  # remainder is nonzero
    else:
        assert h * g == f


def test_proportional():
    f = LaurentPoly({2: 1, 0: -3})
    assert proportional(f.scale(F(7, 3)), f) == F(7, 3)
    assert proportional(f, f) == 1
    assert proportional(LaurentPoly.zero(), f) == 0
    assert proportional(LaurentPoly.zero(), LaurentPoly.zero()) is BOTH_ZERO
    assert proportional(f + 1, f) is None
    assert proportional(LaurentPoly({1: 1}), LaurentPoly({2: 1})) is None


def test_laurent_fraction_equality_by_cross_multiplication():
    z = LaurentPoly.monomial(1)
    one = LaurentPoly.one()
    a = LaurentFraction(one, z)
    b = LaurentFraction(LaurentPoly.monomial(-1), one)
    assert a == b
    c = LaurentFraction(z * z - 1, z - 1)
    assert c == LaurentFraction(z + 1, one)
    assert c != a


def test_laurent_fraction_arithmetic_and_reduce():
    z = LaurentPoly.monomial(1)
    one = LaurentPoly.one()
    half = LaurentFraction(one, z + 1)
    total = half + LaurentFraction(z, z + 1)
    assert total.reduce() == one
    prod = LaurentFraction(z - 1, z + 1) * LaurentFraction(z + 1, one)
    assert prod.reduce() == z - 1
    with pytest.raises(NotDivisibleError):
        LaurentFraction(z * z + 1, z + 1).reduce()


def test_laurent_fraction_substitute():
    z = LaurentPoly.monomial(1)
    fr = LaurentFraction(z, z + 1).substitute(SUB_INV)
    # z -> 1/z turns z/(z+1) into 1/(1+z) after clearing z powers
    assert fr == LaurentFraction(LaurentPoly.one(), z + 1)


def test_limit_at_infinity():
    z = LaurentPoly.monomial(1)
    one = LaurentPoly.one()
    assert limit_at_infinity(LaurentFraction(one, z)) == 0
    assert limit_at_infinity(LaurentFraction(3 * z * z + 1, z * z - 5)) == 3
    with pytest.raises(ValueError):
        limit_at_infinity(LaurentFraction(z * z, z))
    with pytest.raises(ZeroDivisionError):
        limit_at_infinity(LaurentFraction(one, LaurentPoly.zero()))


def test_json_round_trip():
    f = LaurentPoly({-2: F(1, 3), 0: -4, 5: F(7, 2)})
    doc = f.to_json_dict()
    assert doc == {"var": "z",
                   "coeffs": {"-2": "1/3", "0": "-4", "5": "7/2"}}
    assert LaurentPoly.from_json_dict(doc) == f
    assert LaurentPoly.from_json_dict(LaurentPoly.zero().to_json_dict()) \
        == LaurentPoly.zero()


def test_from_json_rejects_other_variables():
    with pytest.raises(ValueError):
        LaurentPoly.from_json_dict({"var": "x", "coeffs": {"0": "1"}})


@given(laurents)
def test_json_round_trip_property(f):
    assert LaurentPoly.from_json_dict(f.to_json_dict()) == f


def test_str_formatting():
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly.one()) == "1"
    assert str(LaurentPoly({1: 1, 0: F(-430, 577), -1: 1})) \
        == "z - 430/577 + z^-1"
    assert str(LaurentPoly({2: F(1, 2), -2: -1})) == "1/2*z^2 - z^-2"


# --- the integer-numerator core against the Fraction reference -------------

fraction_dicts = st.dictionaries(
    st.integers(min_value=-6, max_value=6), small_fractions, max_size=7)
nonzero_fraction_dicts = fraction_dicts.filter(lambda d: any(d.values()))
# q of either sign, as the substitutions see it from the operator layer
q_values = st.fractions(min_value=-3, max_value=3,
                        max_denominator=7).filter(lambda x: x != 0)
scalars = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def _assert_canonical(p):
    assert p._den > 0
    assert all(type(v) is int and v for v in p._num.values())
    content = 0
    for v in p._num.values():
        content = gcd(content, v)
    assert gcd(content, p._den) == 1   # gcd(0, den) == den pins zero to 1


def _agrees(p, ref):
    _assert_canonical(p)
    assert p.items() == sorted(ref.items())
    assert all(type(v) is F for _, v in p.items())


@given(fraction_dicts, fraction_dicts, scalars)
def test_arithmetic_matches_fraction_reference(f, g, c):
    pf, pg = LaurentPoly(f), LaurentPoly(g)
    rf, rg = ref.clean(f), ref.clean(g)
    _agrees(pf, rf)
    _agrees(pf + pg, ref.add(rf, rg))
    _agrees(pf - pg, ref.sub(rf, rg))
    _agrees(-pf, ref.neg(rf))
    _agrees(pf * pg, ref.mul(rf, rg))
    _agrees(pf.scale(c), ref.scale(rf, c))
    _agrees(pf * c, ref.scale(rf, c))


@given(fraction_dicts, q_values)
def test_substitutions_match_fraction_reference(f, q):
    pf, rf = LaurentPoly(f), ref.clean(f)
    for rule in (SUB_INV, SUB_QZ, SUB_Z_OVER_Q, SUB_Q_OVER_Z):
        _agrees(pf.substitute(rule, q), ref.substitute(rf, rule, q))


@given(fraction_dicts, nonzero_fraction_dicts)
@settings(max_examples=150)
def test_exact_quotient_matches_fraction_reference(f, g):
    pf, pg = LaurentPoly(f), LaurentPoly(g)
    rf, rg = ref.clean(f), ref.clean(g)
    for num, rnum in ((pf, rf), (pf * pg, ref.mul(rf, rg))):
        try:
            expected = ref.exact_quotient(rnum, rg)
        except ref.RefNotDivisible as err:
            with pytest.raises(NotDivisibleError) as got:
                exact_quotient(num, pg)
            _agrees(got.value.remainder, err.remainder)
        else:
            _agrees(exact_quotient(num, pg), expected)


@given(fraction_dicts, q_values)
def test_zero_results_are_canonical(f, q):
    pf = LaurentPoly(f)
    for zero in (pf - pf, pf + (-pf), pf.scale(0), pf * LaurentPoly.zero(),
                 (pf - pf).substitute(SUB_QZ, q)):
        _assert_canonical(zero)
        assert zero.items() == []
        assert zero == LaurentPoly.zero() == 0
        assert hash(zero) == hash(LaurentPoly.zero())


@given(fraction_dicts, fraction_dicts, q_values)
def test_equal_values_by_different_routes_hash_equal(f, g, q):
    pf, pg = LaurentPoly(f), LaurentPoly(g)
    pairs = [
        (pf * pg, pg * pf),
        ((pf + pg) - pg, pf),
        (pf.scale(F(6, 35)).scale(F(35, 6)), pf),
        (pf.substitute(SUB_QZ, q).substitute(SUB_Z_OVER_Q, q), pf),
        (pf.substitute(SUB_Q_OVER_Z, q).substitute(SUB_Q_OVER_Z, q), pf),
        (LaurentPoly(dict(pf.items())), pf),
    ]
    for left, right in pairs:
        assert left == right
        assert hash(left) == hash(right)


def test_negative_q_keeps_denominator_positive():
    f = LaurentPoly({-3: F(2, 5), 1: 1, 4: F(-7, 3)})
    q = F(-2, 3)
    for rule in (SUB_QZ, SUB_Z_OVER_Q, SUB_Q_OVER_Z):
        g = f.substitute(rule, q)
        _assert_canonical(g)
        _agrees(g, ref.substitute(ref.clean(dict(f.items())), rule, q))


def test_exact_quotient_divisor_with_content_and_rational_coefficients():
    # numerators 18z^2 + 4z - 10 over 15: content 2, not primitive
    den = LaurentPoly({2: F(6, 5), 1: F(4, 15), 0: F(-2, 3)})
    h = LaurentPoly({-2: F(5, 7), 0: F(-3, 4), 3: F(11, 6)})
    num = h * den
    got = exact_quotient(num, den)
    assert got == h
    _agrees(got, ref.exact_quotient(dict(num.items()), dict(den.items())))
    assert exact_quotient(num, h) == den


@pytest.mark.parametrize("num, den, remainder", [
    # the first division step is inexact over the integers (1/2, 1/2, 2/3)
    ({3: 1, 0: 1}, {1: 2, 0: 1}, {0: F(7, 8)}),
    ({4: 1, 0: 3}, {2: 2, 0: 1}, {0: F(13, 4)}),
    ({3: F(1, 3), 0: F(2, 5), -1: 1}, {1: F(4, 3), 0: F(2, 9)},
     {-1: F(18149, 19440)}),
    # the degree bound stops it before any step
    ({2: 1}, {1: 2, 0: 1}, {2: 1}),
])
def test_not_divisible_remainder_is_pinned(num, den, remainder):
    with pytest.raises(NotDivisibleError) as err:
        exact_quotient(LaurentPoly(num), LaurentPoly(den))
    assert err.value.remainder.items() == sorted(remainder.items())


@given(quot=st.lists(st.integers(-40, 40), min_size=1, max_size=7),
       lo=st.integers(-4, 4),
       binomial=st.sampled_from([(1, -1), (-1, 1), (2, -3), (-3, 5), (5, 2)]),
       slip=st.one_of(st.none(), st.tuples(st.integers(0, 8), st.integers(-3, 3))))
def test_binomial_quotient_agrees_with_exact_quotient(quot, lo, binomial, slip):
    # r = quot * (A z^2 + B), knocked off by one coefficient: a slip at the
    # top makes a division step inexact, one at the bottom leaves only a
    # remainder; both must raise the error exact_quotient raises
    A, B = binomial
    r = [B * c for c in quot] + [0, 0]
    for j, c in enumerate(quot):
        r[j + 2] += A * c
    if slip is not None:
        r[slip[0] % len(r)] += slip[1]
    num = LaurentPoly(dict(enumerate(r, lo)))
    try:
        want = exact_quotient(num, LaurentPoly({2: A, 0: B}))
    except NotDivisibleError as err:
        with pytest.raises(NotDivisibleError) as got:
            _binomial_quotient(r, lo, A, B)
        assert got.value.remainder == err.remainder
    else:
        assert LaurentPoly(dict(enumerate(_binomial_quotient(r, lo, A, B), lo))) == want
