"""Identity checks, the suite runner, fault injection, negative controls."""

import random
from fractions import Fraction

import pytest

from awlab import identities
from awlab.identities import (
    FAULT_TARGETS,
    IdentityReport,
    ScalarView,
    _finish_proportional,
    check_alpha_beta,
    check_E_eigen,
    check_intertwiner,
    check_leading_coefficient,
    check_lowering_via_d,
    check_lowering_via_hecke,
    check_lowering_via_hecke_n1,
    check_projection,
    check_q_difference,
    check_raising_via_d,
    check_raising_via_hecke,
    check_recurrence,
    check_symmetrization,
)
from awlab.laurent import LaurentPoly
from awlab.scalars import (
    InputError,
    check_genericity,
    lambda_n,
    random_param_sets,
)
from awlab.verify import (
    check_bridge_identity,
    check_factorization,
    check_hecke_relations,
    random_laurent,
    random_symmetric_laurent,
    run_suite,
    suite_plan,
)


def _at_horizon(p, n_max):
    """p's values certified at the horizon n_max."""
    return check_genericity(p.q, p.a, p.b, p.c, p.d, n_max)


EXPECTED_FAULT_SETS = {
    "lambda": {"q-difference-eigen", "raising-via-d", "lowering-via-d"},
    "alpha": {"three-term-recurrence", "raising-via-d", "lowering-via-d",
              "alpha-beta"},
    "beta": {"raising-via-hecke", "lowering-via-hecke",
             "lowering-via-hecke-n1"},
    "kappa": {"intertwiner"},
}


def test_report_json_schema(p8):
    rep = check_q_difference(3, p8, ScalarView(p8))
    assert rep.passed and rep.residual_witness is None
    doc = rep.as_json_dict(seed=42)
    assert doc == {
        "identity": "q-difference-eigen",
        "n": 3,
        "passed": True,
        "residual": None,
        "params": p8.as_json_dict(),
        "seed": 42,
    }


def test_individual_checks_pass(p8):
    v = ScalarView(p8)
    assert check_q_difference(0, p8, v).passed
    assert check_E_eigen(-5, p8, v).passed
    assert check_recurrence(4, p8, v).passed
    assert check_raising_via_d(3, p8, v).passed
    assert check_lowering_via_d(3, p8, v).passed
    assert check_raising_via_hecke(0, p8, v).passed
    assert check_raising_via_hecke(5, p8, v).passed
    assert check_lowering_via_hecke(4, p8, v).passed
    assert check_lowering_via_hecke_n1(1, p8, v).passed
    assert check_leading_coefficient(2, p8, v).passed
    assert check_alpha_beta(1, p8, v).passed
    assert check_alpha_beta(8, p8, v).passed
    assert check_symmetrization(-2, p8, v).passed
    assert check_projection(0, p8, v).passed
    assert check_projection(4, p8, v).passed
    assert check_intertwiner(-2, p8, v).passed
    assert check_intertwiner(0, p8, v).passed
    assert check_intertwiner(3, p8, v).passed


def test_check_argument_validation(p8):
    v = ScalarView(p8)
    with pytest.raises(ValueError):
        check_raising_via_hecke(-1, p8, v)
    with pytest.raises(ValueError):
        check_lowering_via_hecke_n1(0, p8, v)
    with pytest.raises(ValueError):
        check_lowering_via_hecke(0, p8, v)
    with pytest.raises(ValueError):
        check_alpha_beta(0, p8, v)
    with pytest.raises(ValueError):
        check_symmetrization(0, p8, v)
    with pytest.raises(ValueError):
        check_projection(-1, p8, v)


def test_trial_based_checks_pass(p8):
    assert check_hecke_relations(p8, trials=10).passed
    assert check_factorization(p8, trials=10).passed
    assert check_bridge_identity(p8, trials=10).passed


@pytest.mark.parametrize("field, witness", [
    ("t0", LaurentPoly({2: Fraction(1, 2), 0: Fraction(-1, 2), -2: Fraction(1, 8)})),
    ("t1", LaurentPoly({2: 1, 0: -2, -2: 1})),
])
def test_coefficient_identities_pin_their_witness(p8, field, witness):
    # r + s(r) = t + 1 is the first relation hecke-relations tests, so a
    # point whose t is off by one fails there, with (num s(den) + s(num)
    # den - (1 + t) den s(den)) as the witness
    p = _at_horizon(p8, 8)
    object.__setattr__(p, field, getattr(p, field) + 1)
    report = check_hecke_relations(p, trials=1)
    assert not report.passed
    assert report.residual_witness == witness


@pytest.mark.parametrize("trials", [0, -3])
def test_trials_below_one_are_rejected(p8, trials):
    # with both values bad, the trials rule is the one named
    for window in (6, 0):
        for check in (check_hecke_relations, check_factorization,
                      check_bridge_identity):
            with pytest.raises(InputError, match="trials must be at least 1"):
                check(p8, trials=trials, degree_window=window)
        with pytest.raises(InputError, match="trials must be at least 1"):
            run_suite(_at_horizon(p8, 2), trials=trials, degree_window=window)


@pytest.mark.parametrize("window", [0, -2])
def test_degree_window_below_one_is_rejected(p8, window):
    with pytest.raises(InputError, match="degree_window must be at least 1"):
        check_hecke_relations(p8, trials=1, degree_window=window)
    with pytest.raises(InputError, match="degree_window must be at least 1"):
        run_suite(_at_horizon(p8, 2), trials=1, degree_window=window)


@pytest.mark.parametrize("bad", [True, 2.5, "3"])
def test_counts_that_are_not_integers_are_input_errors(p8, bad):
    # True once passed for 1, and 2.5 or "3" raised a TypeError
    p = _at_horizon(p8, 2)
    for check in (check_hecke_relations, check_factorization,
                  check_bridge_identity):
        with pytest.raises(InputError, match="trials must be an integer"):
            check(p8, trials=bad)
        with pytest.raises(InputError, match="degree_window must be an integer"):
            check(p8, trials=1, degree_window=bad)
    with pytest.raises(InputError, match="trials must be an integer"):
        run_suite(p, trials=bad)
    with pytest.raises(InputError, match="degree_window must be an integer"):
        run_suite(p, trials=1, degree_window=bad)
    with pytest.raises(InputError, match="n_max must be an integer"):
        suite_plan(bad)


@pytest.mark.parametrize("check", [check_factorization, check_bridge_identity])
def test_negative_degree_window_is_input_error(p8, check):
    # these two prove their relations on the window z^0 alone, so 0 is a
    # window; -1 is none, and once raised a plain ValueError from the draws
    assert check(p8, trials=1, degree_window=0).passed
    with pytest.raises(InputError, match="degree_window must be nonnegative"):
        check(p8, trials=1, degree_window=-1)


def test_negative_horizon_is_input_error():
    with pytest.raises(InputError, match="n_max must be nonnegative"):
        suite_plan(-1)


def test_random_laurent_generators():
    rng = random.Random(0)
    for _ in range(40):
        f = random_laurent(rng, degree_window=4)
        assert f
        assert -4 <= f.min_deg and f.max_deg <= 4
        g = random_symmetric_laurent(rng, degree_window=4)
        assert g.is_symmetric() and g


@pytest.mark.parametrize("draw, window, message", [
    (random_laurent, True, "degree_window must be an integer"),
    (random_laurent, -1, "degree_window must be nonnegative"),
    (random_symmetric_laurent, 2.5, "degree_window must be an integer"),
], ids=["laurent-bool", "laurent-negative", "symmetric-float"])
def test_generators_apply_the_count_rule(draw, window, message):
    # True once drew over degrees -1..1, -1 raised a plain ValueError and
    # 2.5 a TypeError
    with pytest.raises(InputError, match=message):
        draw(random.Random(0), window)


def _dict_draws(rng, degrees):
    # the draws as first written: a Fraction per coefficient, in a dict
    while True:
        coeffs = {}
        for k in degrees:
            if rng.random() < 0.5:
                num = rng.randint(-9, 9)
                if num:
                    coeffs[k] = Fraction(num, rng.randint(1, 9))
        if coeffs:
            return coeffs


def _dict_laurent(rng, w):
    return LaurentPoly(_dict_draws(rng, range(-w, w + 1)))


def _dict_symmetric_laurent(rng, w):
    half = _dict_draws(rng, range(w + 1))
    return LaurentPoly({**half, **{-k: v for k, v in half.items()}})


@pytest.mark.parametrize("draw, oracle", [
    (random_laurent, _dict_laurent),
    (random_symmetric_laurent, _dict_symmetric_laurent),
])
def test_draws_match_the_dict_built_oracle(draw, oracle):
    # the same polynomial in the same canonical triple, with the generator
    # left in the same state, so the guards' inputs are unchanged
    for seed in range(200):
        for w in (1, 3, 6):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                got, want = draw(rng, w), oracle(ref, w)
                assert (got._lo, got._num, got._den) == \
                    (want._lo, want._num, want._den), (seed, w)
            assert rng.getstate() == ref.getstate()


def test_suite_plan_full_horizon():
    plan = dict(suite_plan(8))
    assert plan["q-difference-eigen"] == tuple(range(9))
    assert plan["y-eigen"] == tuple(range(-7, 8))
    assert plan["three-term-recurrence"] == tuple(range(2, 8))
    assert plan["raising-via-hecke"] == tuple(range(8))
    assert plan["lowering-via-hecke-n1"] == (1,)
    assert plan["alpha-beta"] == tuple(range(1, 9))
    assert plan["symmetrization"] == tuple(n for n in range(-7, 8) if n)
    assert plan["intertwiner"] == tuple(range(-7, 8))
    assert plan["hecke-relations"] is None
    assert plan["factorization"] is None
    assert plan["bridge-symmetric"] is None
    assert plan["control-lambda-q-difference"] == (2,)
    assert plan["control-beta-raising-via-hecke"] == (1,)


def test_suite_plan_small_horizons():
    plan1 = dict(suite_plan(1))
    assert plan1["q-difference-eigen"] == (0, 1)
    assert plan1["three-term-recurrence"] == ()
    assert plan1["lowering-via-hecke-n1"] == (1,)
    assert plan1["control-lambda-q-difference"] == ()
    plan0 = dict(suite_plan(0))
    assert plan0["y-eigen"] == (0,)
    assert plan0["intertwiner"] == ()
    assert plan0["lowering-via-hecke-n1"] == ()


def test_run_suite_clean(p8):
    reports = run_suite(p8, trials=5)
    assert all(r.passed for r in reports)
    ids = [r.identity_id for r in reports]
    # one report per planned (identity, n) pair, in plan order
    expected = []
    for identity_id, ns in suite_plan(8):
        expected.extend([identity_id] * (1 if ns is None else len(ns)))
    assert ids == expected
    control_ids = {i for i in ids if i.startswith("control-")}
    assert len(control_ids) == 5


def test_run_suite_deterministic(p8):
    p4 = _at_horizon(p8, 4)
    a = [r.as_json_dict(9) for r in run_suite(p4, trials=6, seed=9)]
    b = [r.as_json_dict(9) for r in run_suite(p4, trials=6, seed=9)]
    assert a == b


def test_run_suite_rejects_unknown_fault(p8):
    with pytest.raises(ValueError):
        run_suite(_at_horizon(p8, 2), trials=2, fault="gamma")


def test_unknown_fault_is_input_error(p8):
    # an unknown target once raised a plain ValueError
    for make in (lambda: ScalarView(p8, "gamma"),
                 lambda: run_suite(_at_horizon(p8, 2), trials=2, fault="gamma")):
        with pytest.raises(InputError, match="unknown fault target 'gamma'"):
            make()


@pytest.mark.parametrize("fault", FAULT_TARGETS)
def test_fault_injection_flips_exactly_dependent_checks(fault, p8):
    reports = run_suite(p8, trials=5, fault=fault)
    failed = {r.identity_id for r in reports if not r.passed}
    assert failed == EXPECTED_FAULT_SETS[fault]
    for r in reports:
        if not r.passed:
            assert r.residual_witness is not None
            assert r.residual_witness
        if r.identity_id.startswith("control-"):
            assert r.passed


def test_identity_report_value_semantics(p8):
    witness = LaurentPoly({1: 2})
    report = IdentityReport("alpha-beta", p8, 3, False, witness)
    assert repr(report) == (
        f"IdentityReport(identity_id='alpha-beta', params={p8!r}, n=3, "
        f"passed=False, residual_witness={witness!r})")
    assert report == IdentityReport("alpha-beta", p8, 3, False, witness)
    assert report != IdentityReport("alpha-beta", p8, 4, False, witness)
    assert report != tuple(report)
    assert not report == tuple(report)
    with pytest.raises(TypeError):
        hash(report)
    assert report.as_json_dict(7)["residual"] == {"var": "z",
                                                  "coeffs": {"1": "2"}}


_F = LaurentPoly({2: 1, 0: -3})
_ZERO = LaurentPoly.zero()


# (f, g, witness of "f is a nonzero multiple of g"; None when it passes)
@pytest.mark.parametrize("f, g, witness", [
    (_F.scale(Fraction(7, 3)), _F, None),
    (_F, _F, None),
    (_ZERO, _F, _F),  # f vanished although g did not
    (_ZERO, _ZERO, LaurentPoly.one()),  # vacuous: both sides vanished
    (LaurentPoly({2: 1, 0: -2}), _F, LaurentPoly.one()),  # f - 1*g, f = _F + 1
    (LaurentPoly({1: 1}), LaurentPoly({2: 1}), LaurentPoly({1: 1})),  # c = 0
    (LaurentPoly.one(), _ZERO, LaurentPoly.one()),  # g vanished, f did not
    (LaurentPoly({-2: 3, 1: -1}), _ZERO, LaurentPoly({-2: 3, 1: -1})),
], ids=["seven-thirds-times", "equal", "f-zero", "both-zero", "f-plus-1",
        "z-vs-z2", "g-zero-const", "g-zero-poly"])
def test_proportionality_to_zero_fails_with_the_other_side_as_witness(
        p8, f, g, witness):
    report = _finish_proportional("x", p8, 1, f, g)
    assert report.passed is (witness is None)
    assert report.residual_witness == witness


def test_n1_lowering_with_a_vanishing_left_side_fails(p8, monkeypatch):
    # no terms: the left side is the zero polynomial, no nonzero multiple
    # of P_0 = 1
    monkeypatch.setattr(identities, "_lowering_lhs", lambda n, p, v: [])
    report = check_lowering_via_hecke_n1(1, p8, ScalarView(p8))
    assert not report.passed
    assert report.residual_witness == LaurentPoly.one()


# Each check of a suite run, computed alone with a view of its own: the
# run's fault where it reaches the check, the clean view elsewhere.
CHECKS = {
    "q-difference-eigen": check_q_difference,
    "y-eigen": check_E_eigen,
    "three-term-recurrence": check_recurrence,
    "raising-via-d": check_raising_via_d,
    "lowering-via-d": check_lowering_via_d,
    "raising-via-hecke": check_raising_via_hecke,
    "lowering-via-hecke": check_lowering_via_hecke,
    "lowering-via-hecke-n1": check_lowering_via_hecke_n1,
    "leading-coefficient": check_leading_coefficient,
    "alpha-beta": check_alpha_beta,
    "symmetrization": check_symmetrization,
    "projection": check_projection,
    "intertwiner": check_intertwiner,
    "hecke-relations": lambda n, p, v: check_hecke_relations(p, trials=2),
    "factorization": lambda n, p, v: check_factorization(p, trials=2),
    "bridge-symmetric": lambda n, p, v: check_bridge_identity(p, trials=2),
}
# the perturbed check behind each negative control; the control passes
# exactly when it fails
CONTROLS = {
    "control-lambda-q-difference": lambda n, p: check_q_difference(
        n, p, ScalarView(p, "lambda")),
    "control-alpha-recurrence": lambda n, p: check_recurrence(
        n, p, ScalarView(p, "alpha")),
    "control-swap-raising-via-d": lambda n, p: check_raising_via_d(
        n, p, ScalarView(p), lam_prev=lambda_n(n + 1, p),
        lam_next=lambda_n(n - 1, p)),
    "control-kappa-intertwiner": lambda n, p: check_intertwiner(
        n, p, ScalarView(p, "kappa")),
    "control-beta-raising-via-hecke": lambda n, p: check_raising_via_hecke(
        n, p, ScalarView(p, "beta")),
}


def _outcome(r):
    return (r.identity_id, r.n, r.passed, r.residual_witness)


def _alone(identity_id, n, p, fault):
    if identity_id in CONTROLS:
        passed = not CONTROLS[identity_id](n, p).passed
        return (identity_id, n, passed, None if passed else LaurentPoly.one())
    if fault is not None and identity_id in EXPECTED_FAULT_SETS[fault]:
        return _outcome(CHECKS[identity_id](n, p, ScalarView(p, fault)))
    return _outcome(CHECKS[identity_id](n, p, ScalarView(p)))


@pytest.mark.parametrize("fault", [None, *FAULT_TARGETS])
def test_run_table_changes_no_report(p8, fault):
    # the run's shared ingredients give every report the value it has when
    # its check runs alone
    p6 = _at_horizon(p8, 6)
    reports = run_suite(p6, trials=2, fault=fault)
    assert len(reports) == sum(1 if ns is None else len(ns)
                               for _, ns in suite_plan(6))
    failed = {r.identity_id for r in reports if not r.passed}
    assert failed == (EXPECTED_FAULT_SETS[fault] if fault else set())
    for r in reports:
        assert _outcome(r) == _alone(r.identity_id, r.n, p6, fault)


def test_nothing_survives_a_run():
    # points no other test uses, so that each fault run is the first to
    # touch its point; the clean run after it must be what a clean run on
    # its own is at a certified point: every check passes, no witness
    points = random_param_sets(2718, len(FAULT_TARGETS), 6)
    for fault, p in zip(FAULT_TARGETS, points):
        faulted = run_suite(p, trials=2, fault=fault)
        assert {r.identity_id for r in faulted if not r.passed} \
            == EXPECTED_FAULT_SETS[fault]
        after = [_outcome(r) for r in run_suite(p, trials=2)]
        assert after == [(r.identity_id, r.n, True, None) for r in faulted], fault


def test_faults_after_a_warm_store_flip_exactly_their_sets():
    # one point object throughout: the clean run fills its store, every
    # fault run reads that store, and nothing a fault adds may be stored
    p = random_param_sets(3141, 1, 6)[0]
    first = [_outcome(r) for r in run_suite(p, trials=2)]
    assert all(passed for _, _, passed, _ in first)
    for fault in FAULT_TARGETS:
        faulted = run_suite(p, trials=2, fault=fault)
        assert {r.identity_id for r in faulted if not r.passed} \
            == EXPECTED_FAULT_SETS[fault], fault
    assert [_outcome(r) for r in run_suite(p, trials=2)] == first
