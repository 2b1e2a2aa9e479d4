"""Polynomial families: dual constructions, eigenrelations, recurrence."""

import copy
import inspect
import json
import pickle
import sys
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import product_askey_wilson as ref
from awlab.cli import main
from awlab.hecke import apply_D, apply_Y, symmetrize
from awlab.identities import _finish_proportional
from awlab.laurent import LaurentPoly, combination
from awlab.polynomials import (
    EigenSolveError,
    askey_wilson_P,
    exponent_at,
    nonsymmetric_E,
    position,
    recurrence_ratio,
    y_matrix,
)
from awlab.scalars import (
    GenericityError,
    HorizonError,
    ParamSet,
    c_n,
    check_genericity,
    lambda_n,
    mu_n,
    parse_scalar,
    random_param_sets,
)
from awlab.verify import run_suite
from eigen_oracles import askey_wilson_P_oracle, d_matrix, nonsymmetric_E_oracle
from test_scalars import param_set_from_json


def test_position_and_exponent_are_inverse_bijections():
    assert [position(n) for n in (0, -1, 1, -2, 2, -3, 3)] == list(range(7))
    for i in range(25):
        assert position(exponent_at(i)) == i
    for n in range(-12, 13):
        assert exponent_at(position(n)) == n


def test_y_matrix_diagonal_carries_mu(p8):
    k = 4
    mat = y_matrix(k, p8)
    assert len(mat) == 2 * k + 1
    for i in range(2 * k + 1):
        assert mat[i][i] == mu_n(exponent_at(i), p8)
        # strictly lower entries vanish: the matrix is upper triangular
        for j in range(i):
            assert mat[i][j] == 0


def test_y_matrix_nests(p8):
    # the position ordering is nested, so each window extends the last
    for k in range(1, 5):
        small, big = y_matrix(k - 1, p8), y_matrix(k, p8)
        assert tuple(row[:2 * k - 1] for row in big[:2 * k - 1]) == small


def test_y_matrix_columns_are_images_of_monomials(p8):
    k = 4
    mat = y_matrix(k, p8)
    for j in range(2 * k + 1):
        column = LaurentPoly({exponent_at(i): mat[i][j]
                              for i in range(2 * k + 1)})
        assert column == apply_Y(LaurentPoly.monomial(exponent_at(j)), p8)


def test_d_matrix_diagonal_carries_lambda(p8):
    k = 5
    mat = d_matrix(k, p8)
    assert len(mat) == k + 1
    for i in range(k + 1):
        assert mat[i][i] == lambda_n(i, p8)
        for j in range(i):
            assert mat[i][j] == 0


def test_p0_and_p1(p8):
    assert askey_wilson_P(0, p8) == LaurentPoly.one()
    assert askey_wilson_P(1, p8) == LaurentPoly(
        {1: 1, 0: F(-430, 577), -1: 1})


def test_p_is_monic_symmetric_with_full_support(p8):
    for n in range(9):
        poly = askey_wilson_P(n, p8)
        assert poly.coeff(n) == 1
        assert poly.is_symmetric()
        assert poly.max_deg == n
        assert poly.min_deg == (-n if n else 0)


def test_two_constructions_agree(p8):
    for n in range(9):
        assert askey_wilson_P(n, p8) == askey_wilson_P_oracle(n, p8)


def test_two_constructions_agree_at_second_point():
    p = random_param_sets(11, 1, 6)[0]
    for n in range(6):
        assert askey_wilson_P(n, p) == askey_wilson_P_oracle(n, p)


def test_p_satisfies_q_difference_eigenrelation(p8):
    for n in (0, 1, 4, 8):
        poly = askey_wilson_P(n, p8)
        assert apply_D(poly, p8) == poly.scale(lambda_n(n, p8))


def test_p_index_validation(p8):
    with pytest.raises(ValueError):
        askey_wilson_P(-1, p8)
    with pytest.raises(HorizonError):
        askey_wilson_P(9, p8)
    with pytest.raises(HorizonError):
        askey_wilson_P_oracle(9, p8)


def test_e0_is_one_and_e_normalization(p8):
    assert nonsymmetric_E(0, p8) == LaurentPoly.one()
    for n in (-3, -1, 1, 2, 4):
        poly = nonsymmetric_E(n, p8)
        assert poly.coeff(n) == 1
        k = abs(n)
        assert -k <= poly.min_deg and poly.max_deg <= k


def test_e_minus_one_value(p8):
    # constant term is (ab(c+d) - (a+b)) / (1 - abcd)
    a, b, c, d = p8.a, p8.b, p8.c, p8.d
    const = (a * b * (c + d) - (a + b)) / (1 - p8.abcd)
    assert const == F(-299, 577)
    assert nonsymmetric_E(-1, p8) == LaurentPoly({-1: 1, 0: const})


def test_e_satisfies_y_eigenrelation(p8):
    for n in (-4, -2, -1, 0, 1, 3, 5):
        poly = nonsymmetric_E(n, p8)
        assert apply_Y(poly, p8) == poly.scale(mu_n(n, p8))


def test_e_horizon(p8):
    with pytest.raises(HorizonError):
        nonsymmetric_E(9, p8)
    with pytest.raises(HorizonError):
        nonsymmetric_E(-9, p8)


def test_symmetrize_maps_e_onto_p(p8):
    for n in (-3, -1, 2):
        image = symmetrize(nonsymmetric_E(n, p8), p8)
        target = askey_wilson_P(abs(n), p8)
        assert _finish_proportional("x", p8, n, image, target).passed


def test_recurrence_ratio_matches_closed_form(p8):
    for n in range(2, 8):
        assert recurrence_ratio(n, p8) == c_n(n, p8)


def test_three_term_recurrence_holds_exactly(p8):
    from awlab.scalars import alpha_n
    m = LaurentPoly({1: 1, -1: 1})
    for n in range(2, 8):
        lhs = m * askey_wilson_P(n, p8)
        rhs = combination(((1, askey_wilson_P(n + 1, p8)),
                           (alpha_n(n, p8), askey_wilson_P(n, p8)),
                           (c_n(n, p8), askey_wilson_P(n - 1, p8))))
        assert lhs == rhs


def test_recurrence_ratio_validation(p8):
    with pytest.raises(ValueError):
        recurrence_ratio(1, p8)
    with pytest.raises(HorizonError):
        recurrence_ratio(8, p8)  # needs P_9, one past the horizon


def test_degenerate_point_raises_eigen_solve_error():
    # abcd = 1/q makes mu_1 = mu_{-1}, so the Y eigenspace is a plane;
    # the point sits outside what check_genericity would certify
    bad = ParamSet(F(1, 2), F(2), F(1), F(1), F(1), 2)
    assert mu_n(1, bad) == mu_n(-1, bad)
    # E_-1 sits below z^1 in the window, so only a check of the whole
    # diagonal, not just the entries above it, sees the collision
    for n in (-1, 1):
        with pytest.raises(EigenSolveError):
            nonsymmetric_E(n, bad)
    # abcd = 1/q^2 makes lambda_1 = lambda_2, a repeated diagonal entry
    # of the D matrix
    bad2 = ParamSet(F(1, 2), F(4), F(1), F(1), F(1), 3)
    assert lambda_n(1, bad2) == lambda_n(2, bad2)
    with pytest.raises(EigenSolveError):
        askey_wilson_P_oracle(2, bad2)


def test_eigenvectors_match_golden_fixture(p8):
    # recorded from the general Gauss-Jordan nullspace solver that the
    # triangular back-substitution replaced; exact arithmetic means the
    # coefficients must agree exactly
    golden = json.loads(
        (Path(__file__).parent / "data" / "p8_eigenvectors.json").read_text())
    assert golden["params"] == p8.as_json_dict()
    assert sorted(map(int, golden["E"])) == list(range(-8, 9))
    assert sorted(map(int, golden["P_oracle"])) == list(range(9))
    for n, coeffs in golden["E"].items():
        assert nonsymmetric_E(int(n), p8).to_json_dict()["coeffs"] == coeffs
    for n, coeffs in golden["P_oracle"].items():
        assert askey_wilson_P_oracle(int(n), p8).to_json_dict()["coeffs"] \
            == coeffs


def e_normalizer_closed_form(m, p):
    """c_m in P_m = E_m + c_m E_-m."""
    q = p.q
    return (1 - q**m) * (1 - p.c * p.d * q ** (m - 1)) \
        / (1 - p.abcd * q ** (2 * m - 1))


def test_e_minus_m_normalizer_matches_closed_form(p8, seeded_points):
    # G1, G4 and G3 keep every factor of the closed form nonzero, so the
    # normalizer of E_-m never vanishes at a certified point
    negative_q = check_genericity(F(-2, 3), F(3, 5), F(-7, 2), F(5, 11),
                                  F(2, 13), 6)
    for p in (p8, negative_q, *seeded_points):
        for m in range(1, p.n_max + 1):
            pm, em = askey_wilson_P(m, p), nonsymmetric_E(m, p)
            c = combination(((1, pm), (-1, em))).coeff(-m)
            assert c == e_normalizer_closed_form(m, p) != 0
            assert pm == combination(((1, em), (c, nonsymmetric_E(-m, p))))


def test_e_minus_m_normalizer_guard_fires_off_the_certified_set():
    # cd = 1 makes c_1 = 0: P_1 is E_1 itself and has no E_-1 component
    bad = ParamSet(F(1, 2), F(3), F(5), F(2), F(1, 2), 1)
    with pytest.raises(GenericityError):
        check_genericity(bad.q, bad.a, bad.b, bad.c, bad.d, 1)
    assert nonsymmetric_E(1, bad) == askey_wilson_P(1, bad)
    with pytest.raises(EigenSolveError):
        nonsymmetric_E(-1, bad)


small_nonzero = st.fractions(min_value=-7, max_value=7, max_denominator=7) \
    .filter(bool)


@given(q=small_nonzero, a=small_nonzero, b=small_nonzero, c=small_nonzero,
       d=small_nonzero, n_max=st.integers(min_value=1, max_value=5))
@settings(deadline=None)
def test_spectral_projection_matches_eigen_solve(q, a, b, c, d, n_max):
    try:
        p = check_genericity(q, a, b, c, d, n_max)
    except GenericityError:
        assume(False)
    for n in range(-n_max, n_max + 1):
        assert nonsymmetric_E(n, p) == nonsymmetric_E_oracle(n, p)


def test_polynomial_document_shape(p8, capsys):
    # the JSON record that `awlab gen P` prints for one polynomial
    assert main(["gen", "P", "--n", "1",
                 "--params", "q=1/2,a=1/3,b=1/5,c=1/7,d=1/11"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "kind": "P",
        "n": 1,
        "params": {**p8.as_json_dict(), "nmax": 1},  # gen certifies to |n|
        "var": "z",
        "coeffs": {"-1": "1", "0": "-430/577", "1": "1"},
    }
    back = LaurentPoly({int(k): parse_scalar(v)
                        for k, v in doc["coeffs"].items()})
    assert back == askey_wilson_P(1, p8)


# perfbench/workloads.draw_points(seed, 1, nmax): the deep-n24 points of
# seeds 1-3 and the points of seeds 4 and 5 certified at nmax 40
BENCHMARK_POINTS = (
    (24, (F(17, 19), F(17, 29), F(-29, 31), F(-17, 29), F(-29, 31))),
    (24, (F(-17, 31), F(23, 19), F(-23, 19), F(31, 19), F(29, 23))),
    (24, (F(19, 31), F(-31, 29), F(31, 17), F(-23, 19), F(29, 31))),
    (40, (F(-19, 23), F(-29, 31), F(-17, 31), F(-29, 23), F(19, 23))),
    (40, (F(-19, 31), F(19, 29), F(-19, 29), F(17, 19), F(-19, 31))),
)


def test_p_matches_product_reference_at_fixture_points(p8, seeded_points):
    negative_q = (F(-2, 3), F(3, 5), F(-7, 2), F(5, 11), F(2, 13))
    points = [(10, point) for point in (
        negative_q, *((s.q, s.a, s.b, s.c, s.d) for s in (p8, *seeded_points)))]
    for n_max, point in points + list(BENCHMARK_POINTS):
        p = check_genericity(*point, n_max)
        for n in range(n_max + 1):
            assert askey_wilson_P(n, p) == ref.askey_wilson_P(n, p)


def test_p_is_built_bottom_up(p8):
    # a cold build of P_60 must fit in 40 frames above this one: a
    # construction that recursed on n - 1 would need at least 60
    p = check_genericity(p8.q, p8.a, p8.b, p8.c, p8.d, 60)
    want = ref.askey_wilson_P(60, p)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        got = askey_wilson_P(60, p)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


@given(q=small_nonzero, a=small_nonzero, b=small_nonzero, c=small_nonzero,
       d=small_nonzero)
@settings(max_examples=60, deadline=None)
def test_p_matches_product_reference(q, a, b, c, d):
    try:
        p = check_genericity(q, a, b, c, d, 10)
    except GenericityError:
        assume(False)
    for n in range(11):
        assert askey_wilson_P(n, p) == ref.askey_wilson_P(n, p)


def test_q_pochhammer():
    q = F(1, 2)
    assert ref.q_pochhammer(F(1, 3), 0, q) == 1
    assert ref.q_pochhammer(q, 3, q) == F(1, 2) * F(3, 4) * F(7, 8)
    assert ref.q_pochhammer(F(2), 2, q) == (1 - 2) * (1 - 1)  # hits zero factor


def test_recertified_point_starts_with_an_empty_store(p8):
    p = check_genericity(p8.q, p8.a, p8.b, p8.c, p8.d, 4)
    built = nonsymmetric_E(-3, p)
    assert p.memo
    again = param_set_from_json(p.as_json_dict())
    assert again == p and hash(again) == hash(p)
    assert again.memo == {} and again.memo is not p.memo
    assert nonsymmetric_E(-3, again) == built


def test_pickled_point_drops_its_store(p8):
    p = check_genericity(p8.q, p8.a, p8.b, p8.c, p8.d, 3)
    askey_wilson_P(3, p)
    assert p.memo
    for copied in (pickle.loads(pickle.dumps(p)), copy.copy(p)):
        assert copied == p and hash(copied) == hash(p)
        assert copied.memo == {}
    assert p.memo


@pytest.mark.parametrize("point", [
    (F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11)),
    (F(-2, 3), F(3, 5), F(-7, 2), F(5, 11), F(2, 13)),
])
def test_stored_constructions_stay_canonical(point):
    # the checks' residuals stay unreduced, but what the point stores and
    # every later step builds on must not: an unreduced P_n doubles the
    # coefficient bits at n40
    p = check_genericity(*point, 12)
    run_suite(p, trials=2)
    stored = list(p.memo["P"]) + [v for key, v in p.memo.items()
                                  if isinstance(key, tuple) and key[0] == "E"]
    assert len(stored) == 13 + 24  # P_0..P_12, E_n for 0 < |n| <= 12
    for poly in stored:
        reduced = LaurentPoly(dict(poly.items()))
        assert (poly._lo, poly._num, poly._den) == \
            (reduced._lo, reduced._num, reduced._den)
        content = 0
        for v in poly._num:
            content = gcd(content, v)
        assert poly._den > 0 and gcd(content, poly._den) == 1
