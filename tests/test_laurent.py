"""Laurent polynomial arithmetic, reflection, division, serialization."""

from fractions import Fraction as F
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_hecke
from awlab import laurent
from awlab.hecke import apply_D, apply_D_prime, apply_T0, apply_T1
from awlab.laurent import (
    BasisImages,
    LaurentPoly,
    NotDivisibleError,
    combination,
    exact_quotient,
)
from awlab.scalars import check_genericity, parse_scalar

import fraction_laurent as ref
from fraction_hecke import LaurentFraction, limit_at_infinity

Q = F(1, 2)

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)

laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6), small_fractions, max_size=7
).map(LaurentPoly)

nonzero_laurents = laurents.filter(bool)


def _sum(*fs):
    """The sum of fs, through combination, unreduced."""
    return combination([(1, f) for f in fs])


def test_constructor_drops_zero_coefficients():
    f = LaurentPoly({2: F(0), 1: 3, -1: F(1, 2), 0: 0})
    assert [k for k, _ in f.items()] == [-1, 1]
    assert f.coeff(2) == 0
    assert f.coeff(1) == F(3)
    assert isinstance(f.coeff(1), F)


def test_named_constructors():
    assert not LaurentPoly.zero()
    assert LaurentPoly.one() == LaurentPoly({0: 1})
    assert LaurentPoly({0: F(3, 4)}).items() == [(0, F(3, 4))]
    m = LaurentPoly({-3: 5})
    assert m.items() == [(-3, F(5))]
    assert LaurentPoly.monomial(2) == LaurentPoly({2: 1})


def test_degree_bounds():
    f = LaurentPoly({-2: 1, 3: 4})
    assert f.min_deg == -2
    assert f.max_deg == 3
    assert LaurentPoly.zero().min_deg is None
    assert LaurentPoly.zero().max_deg is None


def test_hash_consistent_with_equality():
    f = LaurentPoly({1: F(2, 4), -1: 3})
    g = LaurentPoly({-1: F(6, 2), 1: F(1, 2)})
    assert f == g
    assert hash(f) == hash(g)
    assert len({f, g}) == 1


@pytest.mark.parametrize("make", [
    lambda: LaurentPoly({0: 0.1}),
    lambda: LaurentPoly({1: 0.0}),
    lambda: LaurentPoly.one().scale(0.5),
    lambda: LaurentPoly.zero().scale(0.5),
    lambda: LaurentPoly.one().reflect(0.5),
    lambda: LaurentPoly.zero().reflect(0.5),
], ids=["constructor", "constructor-zero", "scale", "scale-zero", "reflect",
        "reflect-zero"])
def test_binary_floats_are_refused(make):
    # 0.1 is 3602879701896397/36028797018963968 exactly, which no caller
    # means; check_genericity refuses a float the same way
    with pytest.raises(TypeError, match="must be an exact rational, not a float"):
        make()


def test_polynomials_do_not_mix_with_scalars():
    # sums go through combination, scalar multiples through scale, and *
    # multiplies two polynomials only; a scalar is not a polynomial
    f = LaurentPoly({1: 1})
    for op in (lambda: f + f, lambda: f + 1, lambda: 1 + f, lambda: f - f,
               lambda: 2 - f, lambda: -f, lambda: 3 * f, lambda: f * F(1, 2)):
        with pytest.raises(TypeError):
            op()
    assert LaurentPoly({0: 2}) != 2
    assert LaurentPoly.zero() != 0


@given(laurents, laurents, laurents)
def test_ring_laws(f, g, h):
    assert _sum(f, g) == _sum(g, f)
    assert f * g == g * f
    assert _sum(_sum(f, g), h) == _sum(f, _sum(g, h))
    assert (f * g) * h == f * (g * h)
    assert f * _sum(g, h) == _sum(f * g, f * h)
    assert _sum(f, LaurentPoly.zero()) == f
    assert f * LaurentPoly.one() == f
    assert combination(((1, f), (-1, f))) == LaurentPoly.zero()


@given(laurents)
def test_substitution_involutions(f):
    assert f.reflect(1).reflect(1) == f
    rf = dict(f.items())
    assert ref.substitute(ref.substitute(rf, ref.SUB_QZ, Q),
                          ref.SUB_Z_OVER_Q, Q) == rf
    assert f.reflect(Q).reflect(Q) == f


@given(laurents, laurents)
def test_substitution_is_a_ring_map(f, g):
    for u in (1, Q):
        assert (f * g).reflect(u) == f.reflect(u) * g.reflect(u)
        assert _sum(f, g).reflect(u) == _sum(f.reflect(u), g.reflect(u))


def test_substitution_on_monomials():
    z3 = LaurentPoly.monomial(3)
    assert ref.substitute({3: F(1)}, ref.SUB_QZ, Q) == {3: F(1, 8)}
    assert ref.substitute({3: F(1)}, ref.SUB_Z_OVER_Q, Q) == {3: F(8)}
    assert z3.reflect(1) == LaurentPoly.monomial(-3)
    assert z3.reflect(Q) == LaurentPoly({-3: F(1, 8)})


def test_reflect_requires_nonzero_u():
    f = LaurentPoly({1: 1})
    for g in (f, LaurentPoly.zero()):
        for u in (0, F(0)):
            with pytest.raises(ValueError):
                g.reflect(u)
    with pytest.raises(TypeError):
        f.reflect()  # u has no default


def test_is_symmetric():
    assert LaurentPoly({1: 2, -1: 2, 0: 5}).is_symmetric()
    assert LaurentPoly.zero().is_symmetric()
    assert LaurentPoly({0: 3}).is_symmetric()
    assert not LaurentPoly({1: 2, -1: 3}).is_symmetric()
    assert not LaurentPoly({2: 1}).is_symmetric()


def test_exact_quotient_plain_cases():
    # dividends listed from degree lo up: (z^2 - 1) / (z^2 - 1) = 1
    assert exact_quotient([-1, 0, 1], 0, 1, -1) == [1]
    # Laurent division reaches into negative degrees: (z - 1/z) / (1 - z^2)
    assert exact_quotient([-1, 0, 1], -1, -1, 1) == [-1]
    assert exact_quotient([0, 0, 0, 0], -2, 2, 3) == [0, 0]
    # (z - 4)(2 z^2 + 3), through the divmod steps of A = 2
    assert exact_quotient([-12, 3, -8, 2], 0, 2, 3) == [-4, 1]


BINOMIALS = [(1, -1), (-1, 1), (2, -3), (-3, 5), (5, 2)]


@given(nonzero_laurents, st.sampled_from(BINOMIALS))
def test_exact_quotient_inverts_multiplication(f, binomial):
    # a primitive factor keeps f's denominator, so the product's integer
    # numerators divide back to f's
    A, B = binomial
    num = f * LaurentPoly({2: A, 0: B})
    assert exact_quotient(num._num, num._lo, A, B) == f._num


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=9),
       st.integers(-4, 4), st.sampled_from(BINOMIALS))
@settings(max_examples=60)
def test_exact_quotient_never_silently_wrong(r, lo, binomial):
    # a quotient multiplies back to the dividend; a remainder is nonzero,
    # sits at the dividend's two lowest degrees, and what it leaves divides
    A, B = binomial
    binom = LaurentPoly({2: A, 0: B})
    num = LaurentPoly(dict(enumerate(r, lo)))
    try:
        quot = exact_quotient(r, lo, A, B)
    except NotDivisibleError as err:
        rem = err.remainder
        low = num.min_deg
        assert rem and low <= rem.min_deg <= rem.max_deg <= low + 1
        rest = combination(((1, num), (-1, rem))).scale(rem._den)  # integer numerators
        if rest:
            exact_quotient(rest._num, rest._lo, A, B)
    else:
        assert LaurentPoly(dict(enumerate(quot, lo))) * binom == num


def test_laurent_fraction_equality_by_cross_multiplication():
    z = LaurentPoly.monomial(1)
    one = LaurentPoly.one()
    a = LaurentFraction(one, z)
    b = LaurentFraction(LaurentPoly.monomial(-1), one)
    assert a == b
    c = LaurentFraction(LaurentPoly({2: 1, 0: -1}), LaurentPoly({1: 1, 0: -1}))
    assert c == LaurentFraction(LaurentPoly({1: 1, 0: 1}), one)
    assert c != a


def test_laurent_fraction_arithmetic_and_reduce():
    z = LaurentPoly.monomial(1)
    one = LaurentPoly.one()
    z_plus_1, z_minus_1 = LaurentPoly({1: 1, 0: 1}), LaurentPoly({1: 1, 0: -1})
    half = LaurentFraction(one, z_plus_1)
    total = half + LaurentFraction(z, z_plus_1)
    assert total.reduce() == one
    prod = LaurentFraction(z_minus_1, z_plus_1) * LaurentFraction(z_plus_1, one)
    assert prod.reduce() == z_minus_1
    with pytest.raises(NotDivisibleError):
        LaurentFraction(LaurentPoly({2: 1, 0: 1}), z_plus_1).reduce()


def test_laurent_fraction_substitute():
    z = LaurentPoly.monomial(1)
    z_plus_1 = LaurentPoly({1: 1, 0: 1})
    fr = LaurentFraction(z, z_plus_1).substitute(ref.SUB_INV)
    # z -> 1/z turns z/(z+1) into 1/(1+z) after clearing z powers
    assert fr == LaurentFraction(LaurentPoly.one(), z_plus_1)


def test_limit_at_infinity():
    z = LaurentPoly.monomial(1)
    one = LaurentPoly.one()
    assert limit_at_infinity(LaurentFraction(one, z)) == 0
    assert limit_at_infinity(LaurentFraction(LaurentPoly({2: 3, 0: 1}),
                                             LaurentPoly({2: 1, 0: -5}))) == 3
    with pytest.raises(ValueError):
        limit_at_infinity(LaurentFraction(LaurentPoly.monomial(2), z))
    with pytest.raises(ZeroDivisionError):
        limit_at_infinity(LaurentFraction(one, LaurentPoly.zero()))


def _from_json(doc: dict) -> LaurentPoly:
    """The polynomial in z that a to_json_dict document holds."""
    assert doc["var"] == "z"
    return LaurentPoly({int(k): parse_scalar(v)
                        for k, v in doc["coeffs"].items()})


def test_json_round_trip():
    f = LaurentPoly({-2: F(1, 3), 0: -4, 5: F(7, 2)})
    doc = f.to_json_dict()
    assert doc == {"var": "z",
                   "coeffs": {"-2": "1/3", "0": "-4", "5": "7/2"}}
    assert _from_json(doc) == f
    assert _from_json(LaurentPoly.zero().to_json_dict()) == LaurentPoly.zero()


@given(laurents)
def test_json_round_trip_property(f):
    assert _from_json(f.to_json_dict()) == f


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


def _assert_trimmed(p):
    """p's numerator list is integer with nonzero end entries, or p is zero
    stored as (0, [], 1)."""
    assert p._den and all(type(v) is int for v in p._num)
    if p._num:
        assert p._num[0] and p._num[-1]
    else:
        assert (p._lo, p._num, p._den) == (0, [], 1)


def _assert_canonical(p):
    _assert_trimmed(p)
    assert p._den > 0
    content = 0
    for v in p._num:
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
    _agrees(_sum(pf, pg).canonical(), ref.add(rf, rg))
    _agrees(combination(((1, pf), (-1, pg))).canonical(), ref.sub(rf, rg))
    _agrees(pf.scale(-1).canonical(), ref.neg(rf))
    _agrees((pf * pg).canonical(), ref.mul(rf, rg))
    _agrees(pf.scale(c).canonical(), ref.scale(rf, c))
    # z^e with coefficient 1 shifts degrees; other monomials multiply
    for f, r in ((pf, rf), (LaurentPoly.zero(), {})):
        for e in range(-2, 3):
            for m in (1, -1, F(1, 2)):
                mono = LaurentPoly({e: m})
                _agrees((mono * f).canonical(), ref.mul({e: F(m)}, r))
                _agrees((f * mono).canonical(), ref.mul(r, {e: F(m)}))


@given(fraction_dicts, q_values)
def test_substitutions_match_fraction_reference(f, q):
    pf, rf = LaurentPoly(f), ref.clean(f)
    for u, rule in ((1, ref.SUB_INV), (q, ref.SUB_Q_OVER_Z)):
        _agrees(pf.reflect(u).canonical(), ref.substitute(rf, rule, q))


@given(fraction_dicts, q_values)
def test_zero_results_are_canonical(f, q):
    pf = LaurentPoly(f)
    for zero in (combination(((1, pf), (-1, pf))), _sum(pf, pf.scale(-1)),
                 pf.scale(0), pf * LaurentPoly.zero(), LaurentPoly.zero() * pf,
                 LaurentPoly.zero().scale(q), LaurentPoly.zero().reflect(q),
                 combination(((1, pf), (-1, pf))).reflect(q)):
        _assert_canonical(zero)
        assert zero.items() == []
        assert zero == LaurentPoly.zero()
        assert hash(zero) == hash(LaurentPoly.zero())


@given(fraction_dicts, fraction_dicts, q_values)
def test_equal_values_by_different_routes_hash_equal(f, g, q):
    pf, pg = LaurentPoly(f), LaurentPoly(g)
    pairs = [
        (pf * pg, pg * pf),
        (combination(((1, _sum(pf, pg)), (-1, pg))), pf),
        (pf.scale(F(6, 35)).scale(F(35, 6)), pf),
        (pf.reflect(q).reflect(1),
         LaurentPoly(ref.substitute(dict(pf.items()), ref.SUB_QZ, q))),
        (pf.reflect(q).reflect(q), pf),
        (LaurentPoly(dict(pf.items())), pf),
    ]
    for left, right in pairs:
        assert left == right
        assert hash(left) == hash(right)


def test_negative_q_keeps_denominator_positive():
    f = LaurentPoly({-3: F(2, 5), 1: 1, 4: F(-7, 3)})
    q = F(-2, 3)
    g = f.reflect(q).canonical()
    _assert_canonical(g)
    _agrees(g, ref.substitute(ref.clean(dict(f.items())), ref.SUB_Q_OVER_Z, q))


@pytest.mark.parametrize("num, den, remainder", [
    # the first division step is inexact over the integers (1/2)
    ({3: 1, 0: 1}, {2: 2, 0: 1}, {0: 1, 1: F(-1, 2)}),
    ({4: 1, 0: 3}, {2: 2, 0: 1}, {0: F(13, 4)}),
    # A = -1: every step is exact and the remainder is left at the bottom,
    # above the dividend's leading zeros
    ({-3: 0, -2: 0, -1: 1, 1: -1, 2: 5}, {2: -1, 0: 1}, {0: 5}),
    # past its leading zeros the dividend is too short for any step
    ({-1: 0, 0: 0, 1: 3}, {2: 1, 0: -1}, {1: 3}),
])
def test_not_divisible_remainder_is_pinned(num, den, remainder):
    # num lists the dividend's entries from its lowest degree, zeros too
    lo = min(num)
    r = [num.get(k, 0) for k in range(lo, max(num) + 1)]
    with pytest.raises(NotDivisibleError) as err:
        exact_quotient(r, lo, den[2], den[0])
    assert err.value.remainder.items() == sorted(remainder.items())


@given(quot=st.lists(st.integers(-40, 40), min_size=1, max_size=7),
       lo=st.integers(-4, 4),
       lead=st.integers(0, 3),
       binomial=st.sampled_from(BINOMIALS),
       slip=st.one_of(st.none(), st.tuples(st.integers(0, 11), st.integers(-3, 3))))
def test_binomial_quotient_agrees_with_exact_quotient(quot, lo, lead, binomial, slip):
    # r = quot * (A z^2 + B) after `lead` zero entries, knocked off by one
    # coefficient: a slip at the top makes a division step inexact, one at
    # the bottom leaves only a remainder, one in the leading zeros moves the
    # lowest degree; the quotient or the remainder is that of the Fraction
    # reference's general long division
    A, B = binomial
    r = [0] * lead + [B * c for c in quot] + [0, 0]
    for j, c in enumerate(quot, lead):
        r[j + 2] += A * c
    if slip is not None:
        r[slip[0] % len(r)] += slip[1]
    num = {k: F(v) for k, v in enumerate(r, lo) if v}
    try:
        want = ref.exact_quotient(num, {2: F(A), 0: F(B)})
    except ref.RefNotDivisible as err:
        with pytest.raises(NotDivisibleError) as got:
            exact_quotient(r, lo, A, B)
        _agrees(got.value.remainder, err.remainder)
    else:
        got = exact_quotient(r, lo, A, B)
        _agrees(LaurentPoly(dict(enumerate(got, lo))), want)


@given(nonzero_fraction_dicts, st.sampled_from(BINOMIALS))
@settings(max_examples=150)
def test_exact_quotient_matches_fraction_reference(f, binomial):
    # a rational f = N / den divides through its integer numerators N, so
    # the quotient and the remainder are N's over den
    A, B = binomial
    rg = {2: F(A), 0: F(B)}
    pf = LaurentPoly(f)
    rf = ref.clean(f)
    for num, rnum in ((pf, rf), (pf * LaurentPoly(rg), ref.mul(rf, rg))):
        try:
            expected = ref.exact_quotient(rnum, rg)
        except ref.RefNotDivisible as err:
            with pytest.raises(NotDivisibleError) as got:
                exact_quotient(num._num, num._lo, A, B)
            _agrees(got.value.remainder.scale(F(1, num._den)).canonical(),
                    err.remainder)
        else:
            quot = exact_quotient(num._num, num._lo, A, B)
            got = LaurentPoly(dict(enumerate(quot, num._lo))).scale(F(1, num._den))
            _agrees(got.canonical(), expected)


# --- canonical form on demand ------------------------------------------------

# nonzero multipliers, of either sign, that take a value out of lowest terms
multipliers = st.integers(min_value=-30, max_value=30).filter(bool)


def _unreduced(poly, k):
    """poly with its numerators and denominator multiplied by k, unreduced."""
    return LaurentPoly._raw(poly._lo, [v * k for v in poly._num], poly._den * k)


def _chained(terms):
    """The sum of c f over the (c, f) pairs in terms, by the Fraction
    reference."""
    total = {}
    for c, f in terms:
        total = ref.add(total, ref.scale(dict(f.items()), c))
    return LaurentPoly(total)


def _same_form(got, want):
    """got, once reduced, has exactly want's canonical numerators."""
    got.canonical()
    _assert_canonical(got)
    assert (got._lo, got._num, got._den) == (want._lo, want._num, want._den)


@given(st.lists(st.tuples(scalars, fraction_dicts, multipliers), max_size=5))
def test_combination_matches_chained_sums(raw):
    terms = [(c, LaurentPoly(f)) for c, f, _ in raw]
    want = _chained(terms)
    # the same values, each out of lowest terms, some over a negative
    # denominator; and the int scalar 1 beside Fraction scalars
    loose = [(c, _unreduced(f, k)) for (c, f), (_, _, k) in zip(terms, raw)]
    for got in (combination(terms), combination(loose),
                combination(loose + [(1, want), (-1, want)])):
        assert got == want
        _same_form(got, want)
    # adding every term's negation cancels to the canonical zero
    zero = combination(loose + [(-c, f) for c, f in terms])
    assert not zero and (zero._lo, zero._num, zero._den) == (0, [], 1)


def test_combination_edge_cases():
    f = LaurentPoly({-2: F(1, 3), 0: -4, 5: F(7, 2)})
    g = LaurentPoly({1: F(-5, 6), 5: 1})
    assert combination([]) == LaurentPoly.zero() and combination([])._den == 1
    # zero scalars and zero polynomials drop out
    _same_form(combination([(0, f), (F(0), g), (2, LaurentPoly.zero())]),
               LaurentPoly.zero())
    _same_form(combination([(0, f), (F(3, 4), g)]), g.scale(F(3, 4)).canonical())
    # a negative unreduced denominator and a sum that cancels
    for k in (-1, -6, 35):
        cancel = combination([(F(2, 5), _unreduced(f, k)), (F(-2, 5), f)])
        assert (cancel._lo, cancel._num, cancel._den) == (0, [], 1)
        _same_form(combination([(1, _unreduced(f, k)), (-1, g)]),
                   _chained([(1, f), (-1, g)]))


@given(fraction_dicts, multipliers, multipliers, scalars)
def test_unreduced_and_canonical_values_compare_and_hash_equal(f, k, j, c):
    pf = LaurentPoly(f)
    for left, right in ((_unreduced(pf, k), pf), (pf, _unreduced(pf, k)),
                        (_unreduced(pf, k), _unreduced(pf, j))):
        assert left == right
        assert hash(left) == hash(right)
    loose = _unreduced(pf, k)
    # scaling an unreduced input reaches the same canonical form
    _same_form(loose.scale(c), pf.scale(c).canonical())
    # the operations that keep the denominator keep the value
    _same_form(LaurentPoly.monomial(3) * _unreduced(pf, k),
               LaurentPoly.monomial(3) * pf)
    _same_form(_unreduced(pf, k).reflect(1), pf.reflect(1))
    assert _unreduced(pf, k).items() == pf.items()
    assert str(_unreduced(pf, k)) == str(pf)


def test_scale_mul_and_reflect_leave_common_factors():
    # scale, * and reflect(q) keep a common factor of their result's
    # numerators and denominator; canonical() divides it out
    for value, loose, reduced in (
            (LaurentPoly({0: 2}).scale(F(1, 2)), (0, [2], 2), (0, [1], 1)),
            (LaurentPoly({0: 2, 1: 2}) * LaurentPoly({0: F(1, 2), 1: F(1, 2)}),
             (0, [2, 4, 2], 2), (0, [1, 2, 1], 1)),
            (LaurentPoly({1: F(1, 2), 2: F(1, 2)}).reflect(2),
             (-2, [4, 2], 2), (-2, [2, 1], 1))):
        assert (value._lo, value._num, value._den) == loose
        value.canonical()
        assert (value._lo, value._num, value._den) == reduced


def test_kernel_remainder_compares_by_value(p8, monkeypatch):
    # past apply_D's guard the D kernel refuses an asymmetric f with the
    # remainder f - f(1/z), here (2 z^-1 - 2 z) / 2, out of lowest terms
    monkeypatch.setattr(LaurentPoly, "is_symmetric", lambda self: True)
    f = LaurentPoly({1: F(1, 2), -1: F(3, 2)})
    with pytest.raises(NotDivisibleError) as err:
        apply_D(f, p8)
    assert err.value.remainder == combination(((1, f), (-1, f.reflect(1))))


# q = -3/5 makes the kernels' factor s = (qn qd)^K negative for odd K, so
# their unreduced images come over negative denominators
NEG_Q = check_genericity(F(-3, 5), F(2, 7), F(-5, 3), F(7, 4), F(3, 11), 6)


def test_kernel_images_at_negative_q_have_negative_denominators():
    z = LaurentPoly.monomial(1)
    image = apply_T0(z, NEG_Q)
    assert image._den < 0
    _same_form(image, fraction_hecke.apply_T0(z, NEG_Q))


@settings(max_examples=60, deadline=None)
@given(laurents)
def test_kernel_images_at_negative_q_match_reference(f):
    fs = _sum(f, f.reflect(1))
    images = [
        (apply_T0(f, NEG_Q), fraction_hecke.apply_T0(f, NEG_Q)),
        (apply_T1(f, NEG_Q), fraction_hecke.apply_T1(f, NEG_Q)),
        (apply_D(fs, NEG_Q), fraction_hecke.apply_D(fs, NEG_Q)),
    ]
    for form in ("direct", "factored"):
        images.append((apply_D_prime(f, NEG_Q, form=form),
                       fraction_hecke.apply_D_prime(f, NEG_Q, form=form)))
    for got, want in images:
        assert got.items() == want.items()
        _same_form(got, want)


# --- dense storage: nonzero end entries --------------------------------------

# a term that spans past any `laurents` value at both ends
WIDE = LaurentPoly({-8: 1, 8: F(-2, 3)})


@settings(max_examples=60, deadline=None)
@given(laurents, nonzero_laurents, st.integers(-4, 4).filter(bool))
def test_every_value_has_nonzero_end_entries(p8, f, g, e):
    values = []
    for p in (p8, NEG_Q):  # unreduced kernel images, at q = 1/2 and q = -3/5
        fs = _sum(f, f.reflect(1))
        values += [apply_T0(f, p), apply_T1(f, p), apply_D(fs, p),
                   apply_D_prime(f, p, form="direct"),
                   apply_D_prime(f, p, form="factored")]
    # sums that cancel at the top, at the bottom, at both ends and in full
    values += [combination(((1, _sum(f, WIDE)), (-1, WIDE))),
               combination(((1, _sum(f, g)), (-1, g))),
               combination(((1, _sum(g, f)), (-1, f),
                            (F(1, 2), combination(((1, f), (-1, f)))))),
               combination(((1, f), (-1, f))),
               combination(((3, f), (F(-3, 2), _sum(f, f))))]
    # zero times a shift z^e, on either side, is the zero form
    z_e = LaurentPoly.monomial(e)
    values += [LaurentPoly.zero() * z_e, z_e * combination(((1, f), (-1, f))),
               f * z_e]
    for value in values:
        _assert_trimmed(value)


# --- basis images: the table read-off against the combination path ----------

NEGATIVE_Q = check_genericity(F(-2, 3), F(3, 5), F(-7, 2), F(5, 11), F(2, 13), 6)


def _symmetric(j):
    return LaurentPoly({j: 1, -j: 1}) if j else LaurentPoly.one()


def _mono(k):
    return LaurentPoly.monomial(k)


def _images_of(name, p):
    """(op, basis, lowest, f -> its input): T0, T1 and factored D' on the
    monomials over all of f, T0 on them from degree 0, and D on the
    symmetric basis 1, z^j + z^-j, whose input is f made symmetric."""
    def ident(f):
        return f

    def sym(f):
        return _sum(f, f.reflect(1))
    return {
        "T0": (lambda f: apply_T0(f, p), _mono, None, ident),
        "T1": (lambda f: apply_T1(f, p), _mono, None, ident),
        "D_prime": (lambda f: apply_D_prime(f, p), _mono, None, ident),
        "T0-from-0": (lambda f: apply_T0(f, p), _mono, 0, ident),
        "D": (lambda f: apply_D(f, p), _symmetric, 0, sym),
    }[name]


def _combination_sum(op, basis, f, lowest):
    """The sum of f_k op(basis(k)) as one combination, with no table."""
    return combination([(c, op(basis(k))) for k, c in f.items()
                        if lowest is None or k >= lowest])


def _assert_residual_matches(images, op, basis, value, f, lowest):
    built = []

    def counted(terms):
        built.append(terms)
        return combination(terms)

    with patch.object(laurent, "combination", counted):
        got = images.residual(value, f, lowest)
    want = combination(((1, value), (-1, _combination_sum(op, basis, f, lowest))))
    assert (not got) == (not want)
    assert got == want
    # the difference is built only when it is nonzero
    assert len(built) == bool(want)
    assert images.read_off(f, lowest) == _combination_sum(op, basis, f, lowest)


OPERATOR_NAMES = ["T0", "T1", "D_prime", "T0-from-0", "D"]


@settings(max_examples=40, deadline=None)
@given(f=laurents, g=laurents, name=st.sampled_from(OPERATOR_NAMES),
       negative=st.booleans(),
       case=st.sampled_from(["exact", "plus-g", "outside", "short", "zero"]))
def test_residual_is_the_combination_residual(p8, f, g, name, negative, case):
    # zero exactly when value - sum_k f_k op(basis(k)) is, and otherwise
    # that difference, for values that match, differ anywhere, differ only
    # outside the table's degrees, stop short of the sum's top, or vanish
    p = NEGATIVE_Q if negative else p8
    op, basis, lowest, prepare = _images_of(name, p)
    f = prepare(f)
    total = _combination_sum(op, basis, f, lowest)
    value = {
        "exact": lambda: op(f),
        "plus-g": lambda: _sum(op(f), g),
        # every image of a degree-6 input lies within degrees -8..8
        "outside": lambda: _sum(total, LaurentPoly({20: F(2, 3), -20: -1})),
        "short": lambda: combination(((1, total), (-total.coeff(total.max_deg),
                                                  _mono(total.max_deg))))
        if total else total,
        "zero": LaurentPoly.zero,
    }[case]()
    _assert_residual_matches(BasisImages(op, basis), op, basis, value, f, lowest)


@settings(max_examples=30, deadline=None)
@given(f=laurents, g=laurents, name=st.sampled_from(OPERATOR_NAMES),
       negative=st.booleans())
def test_table_is_read_again_after_an_image_is_added(p8, f, g, name, negative):
    p = NEGATIVE_Q if negative else p8
    op, basis, lowest, prepare = _images_of(name, p)
    f, g = prepare(f), prepare(g)
    images = BasisImages(op, basis)
    for h in (f, g, _sum(f, g)):
        _assert_residual_matches(images, op, basis, op(h), h, lowest)
        images(7)  # an image past every input's degrees, made between reads
        _assert_residual_matches(images, op, basis, _sum(op(h), g), h, lowest)


def test_images_are_made_once_each_in_the_order_first_read():
    made = []

    def op(f):
        made.append(f.min_deg)
        return f.scale(3)

    images = BasisImages(op, _mono)
    f = LaurentPoly({-2: 1, 0: F(1, 2), 3: -4})
    assert images.read_off(f) == f.scale(3)
    assert made == [-2, 0, 3]
    assert images(0) == LaurentPoly({0: 3}) and made == [-2, 0, 3]
    assert images.residual(f.scale(3), LaurentPoly({1: 1, 3: 2}), 2) \
        == LaurentPoly({-2: 3, 0: F(3, 2), 3: -18})
    assert made == [-2, 0, 3]  # z^1 is below lowest, z^3 is held
    assert not images.residual(LaurentPoly({4: 3}), LaurentPoly({4: 1}))
    assert made == [-2, 0, 3, 4]
