"""The fused operator kernels against the LaurentFraction reference.

tests/fraction_hecke.py holds the operator bodies that assembled each
image as one LaurentFraction and divided once; the kernels in awlab.hecke
must give the same polynomial, coefficient for coefficient.
"""

import copy
import json
import pickle
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_hecke as ref
from awlab import hecke
from awlab.hecke import apply_D, apply_D_prime, apply_T0, apply_T1
from awlab.laurent import LaurentPoly, NotDivisibleError
from awlab.polynomials import askey_wilson_P, nonsymmetric_E
from awlab.scalars import check_genericity

NEGATIVE_Q = check_genericity(F(-2, 3), F(3, 5), F(-7, 2), F(5, 11), F(2, 13), 6)
# q's numerator is not +-1, so the kernels' divisions take floor divmod
# steps on negative dividends
BIG_POINTS = [(F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11)),
              (F(-3, 5), F(2, 7), F(-5, 3), F(7, 4), F(3, 11))]

small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6), small_fractions, max_size=8
).map(LaurentPoly)
symmetric_laurents = st.dictionaries(
    st.integers(min_value=0, max_value=6), small_fractions, max_size=6
).map(lambda d: LaurentPoly({**d, **{-k: v for k, v in d.items()}}))
point_index = st.integers(min_value=0, max_value=6)


@pytest.fixture(scope="module")
def points(p8, seeded_points):
    return [p8, NEGATIVE_Q, *seeded_points]


@settings(max_examples=60, deadline=None)
@given(f=laurents, i=point_index)
def test_hecke_generators_match_reference(points, f, i):
    p = points[i]
    assert apply_T1(f, p) == ref.apply_T1(f, p)
    assert apply_T0(f, p) == ref.apply_T0(f, p)


@settings(max_examples=60, deadline=None)
@given(f=laurents, i=point_index)
def test_d_prime_both_forms_match_reference(points, f, i):
    p = points[i]
    for form in ("direct", "factored"):
        assert apply_D_prime(f, p, form=form) == ref.apply_D_prime(f, p, form=form)


@settings(max_examples=60, deadline=None)
@given(f=symmetric_laurents, i=point_index)
def test_d_matches_reference_and_direct_d_prime(points, f, i):
    p = points[i]
    df = apply_D(f, p)
    assert df == ref.apply_D(f, p)
    assert df == apply_D_prime(f, p, form="direct")


def test_zero_and_constants(p8):
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    for op in (apply_T0, apply_T1, apply_D, apply_D_prime):
        assert op(zero, p8) == zero
    assert apply_T1(one, p8) == one.scale(p8.t1)
    assert apply_D(one, p8) == zero


@pytest.mark.parametrize("f", [
    LaurentPoly.monomial(1),
    LaurentPoly({2: 1, -1: 3}),
    LaurentPoly({3: F(2, 7), 0: 1, -3: F(-5, 4)}),
])
def test_d_kernel_rejects_asymmetric_input_without_guard(p8, monkeypatch, f):
    # with the symmetry guard bypassed, the kernel's own remainder checks
    # must refuse an input whose D-image is not a Laurent polynomial
    monkeypatch.setattr(LaurentPoly, "is_symmetric", lambda self: True)
    for p in (p8, NEGATIVE_Q):
        with pytest.raises(NotDivisibleError):
            apply_D(f, p)
        with pytest.raises(NotDivisibleError):
            ref.apply_D(f, p)
    with pytest.raises(NotDivisibleError):
        apply_D(nonsymmetric_E(1, p8), p8)


def test_images_match_golden_fixture(p8):
    # recorded with the LaurentFraction operators: T0, T1, D and D' (direct)
    # of P_0..P_8 and E_-8..E_8 at p8 (D of P_n and E_0 only)
    golden = json.loads(
        (Path(__file__).parent / "data" / "operator_images.json").read_text())
    assert golden["params"] == p8.as_json_dict()
    ops = {"T0": apply_T0, "T1": apply_T1, "D": apply_D,
           "D_prime": lambda f, p: apply_D_prime(f, p, form="direct")}
    for family, build, ns in (("P", askey_wilson_P, range(9)),
                              ("E", nonsymmetric_E, range(-8, 9))):
        assert sorted(map(int, golden[family])) == list(ns)
        for n, images in golden[family].items():
            f = build(int(n), p8)
            assert set(images) == ({"T0", "T1", "D", "D_prime"}
                                   if f.is_symmetric() else {"T0", "T1", "D_prime"})
            for op, coeffs in images.items():
                assert ops[op](f, p8).to_json_dict()["coeffs"] == coeffs, (n, op)


@pytest.mark.parametrize("values", BIG_POINTS)
def test_big_coefficient_images_match_reference(values):
    # P_16..P_24 and E_+-24 carry coefficients of 1000 to 2000 bits, far
    # beyond the small random inputs and the golden fixture's n <= 8
    p = check_genericity(*values, 24)
    fs = [askey_wilson_P(n, p) for n in range(16, 25)]
    fs += [nonsymmetric_E(24, p), nonsymmetric_E(-24, p)]
    for f in fs:
        assert apply_T0(f, p) == ref.apply_T0(f, p)
        assert apply_T1(f, p) == ref.apply_T1(f, p)
        assert (apply_D_prime(f, p, form="direct")
                == ref.apply_D_prime(f, p, form="direct"))
        if f.is_symmetric():
            assert apply_D(f, p) == ref.apply_D(f, p)


def test_plans_are_kept_on_the_point_object(p8, monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return plan_type(*args)

    plan_type = hecke.Plan
    monkeypatch.setattr(hecke, "Plan", counted)
    f = LaurentPoly({2: 1, 0: 3, -2: 1})
    ops = (apply_T0, apply_T1, apply_D,
           lambda f, p: apply_D_prime(f, p, form="direct"))
    p = check_genericity(p8.q, p8.a, p8.b, p8.c, p8.d, 3)
    images = [op(f, p) for op in ops]
    assert len(built) == 3  # T0, T1, and D shared with direct D'
    plans = [v for v in p.memo.values() if isinstance(v, plan_type)]
    assert len(plans) == 3
    assert [op(f, p) for op in ops] == images
    assert len(built) == 3
    assert [v for v in p.memo.values() if isinstance(v, plan_type)] == plans
    again = check_genericity(p8.q, p8.a, p8.b, p8.c, p8.d, 3)
    assert again == p and again.memo == {}
    assert [op(f, again) for op in ops] == images
    assert len(built) == 6
    for copied in (pickle.loads(pickle.dumps(p)), copy.copy(p)):
        assert copied == p and copied.memo == {}
    assert [v for v in p.memo.values() if isinstance(v, plan_type)] == plans
