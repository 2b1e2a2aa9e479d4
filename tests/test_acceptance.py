"""Acceptance gate: one test per shipping criterion.

Criteria 1-7 run against five certified random parameter points drawn
with a fixed seed at horizon 9 (the seeded_points session fixture), so
every index range below stays inside each point's horizon.  Criterion 1
holds the recurrence-built P_n to the terminating hypergeometric sum
(tests/product_askey_wilson.py) and to the D eigenvector.  Criterion 8
uses the reference point and criterion 9 shells out to the installed
console script.  The hook in conftest.py prints a PASS/FAIL line per
criterion after the run.
"""

import subprocess
import sys
import time

import product_askey_wilson as ref
from awlab.hecke import apply_D, apply_Y
from awlab.identities import (
    FAULT_TARGETS,
    ScalarView,
    check_alpha_beta,
    check_intertwiner,
    check_leading_coefficient,
    check_lowering_via_d,
    check_lowering_via_hecke,
    check_lowering_via_hecke_n1,
    check_projection,
    check_raising_via_d,
    check_raising_via_hecke,
    check_symmetrization,
)
from awlab.polynomials import askey_wilson_P, nonsymmetric_E, recurrence_ratio
from eigen_oracles import askey_wilson_P_oracle
from awlab.scalars import lambda_n, mu_n
from awlab.verify import (
    check_bridge_identity,
    check_factorization,
    check_hecke_relations,
    run_suite,
)

P8_STR = "q=1/2,a=1/3,b=1/5,c=1/7,d=1/11"

EXPECTED_FAULT_SETS = {
    "lambda": {"q-difference-eigen", "raising-via-d", "lowering-via-d"},
    "alpha": {"three-term-recurrence", "raising-via-d", "lowering-via-d",
              "alpha-beta"},
    "beta": {"raising-via-hecke", "lowering-via-hecke",
             "lowering-via-hecke-n1"},
    "kappa": {"intertwiner"},
}


def test_criterion_1_dual_constructions_agree(seeded_points):
    started = time.perf_counter()
    for p in seeded_points:
        for n in range(9):
            pn = askey_wilson_P(n, p)
            assert pn == ref.askey_wilson_P(n, p)
            assert pn == askey_wilson_P_oracle(n, p)
    assert time.perf_counter() - started < 30.0


def test_criterion_2_eigenrelations(seeded_points):
    for p in seeded_points:
        for n in range(9):
            poly = askey_wilson_P(n, p)
            assert apply_D(poly, p) == poly.scale(lambda_n(n, p))
        for n in range(-6, 7):
            poly = nonsymmetric_E(n, p)
            assert apply_Y(poly, p) == poly.scale(mu_n(n, p))


def test_criterion_3_ladders_via_d(seeded_points):
    for p in seeded_points:
        v = ScalarView(p)
        for n in range(2, 8):
            assert check_raising_via_d(n, p, v).passed
            assert check_lowering_via_d(n, p, v).passed
            # the proportionality multiples are nonzero, so both ladder
            # relations genuinely produce the neighbour polynomial
            assert lambda_n(n + 1, p) != lambda_n(n - 1, p)
            assert recurrence_ratio(n, p) != 0


def test_criterion_4_ladders_via_hecke(seeded_points):
    for p in seeded_points:
        v = ScalarView(p)
        for n in range(8):
            assert check_raising_via_hecke(n, p, v).passed
        assert check_lowering_via_hecke_n1(1, p, v).passed
        for n in range(2, 9):
            assert check_lowering_via_hecke(n, p, v).passed
        for n in range(9):
            assert check_leading_coefficient(n, p, v).passed


def test_criterion_5_hecke_relations(seeded_points):
    for p in seeded_points:
        assert check_hecke_relations(p, trials=25).passed
        assert check_factorization(p, trials=25).passed


def test_criterion_6_proportionality(seeded_points):
    for p in seeded_points:
        v = ScalarView(p)
        for n in (-4, -3, -2, -1, 1, 2, 3, 4):
            assert check_symmetrization(n, p, v).passed
        for n in range(5):
            assert check_projection(n, p, v).passed
        for n in range(-3, 4):
            assert check_intertwiner(n, p, v).passed


def test_criterion_7_scalar_links(seeded_points):
    for p in seeded_points:
        v = ScalarView(p)
        for n in range(1, 9):
            assert check_alpha_beta(n, p, v).passed
        assert check_bridge_identity(p, trials=20).passed


def test_criterion_8_fault_injection(p8):
    for fault in FAULT_TARGETS:
        reports = run_suite(p8, trials=5, fault=fault)
        failed = {r.identity_id for r in reports if not r.passed}
        assert failed == EXPECTED_FAULT_SETS[fault], fault
        assert all(r.passed for r in reports
                   if r.identity_id.startswith("control-"))
    proc = subprocess.run(
        [sys.executable, "-m", "awlab", "verify", "--params", P8_STR,
         "--nmax", "3", "--trials", "2", "--inject-fault", "lambda"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1


def test_criterion_9_determinism_and_budget():
    command = [sys.executable, "-m", "awlab", "verify", "--random",
               "--seed", "42", "--trials", "5", "--nmax", "8", "--json"]
    first = subprocess.run(command, capture_output=True, timeout=120)
    second = subprocess.run(command, capture_output=True, timeout=120)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.count(b"\n") > 100

    started = time.perf_counter()
    default = subprocess.run(
        [sys.executable, "-m", "awlab", "verify", "--params", P8_STR],
        capture_output=True, text=True, timeout=120,
    )
    assert time.perf_counter() - started < 60.0
    assert default.returncode == 0
    assert default.stdout.splitlines()[-1].endswith(
        "(nmax=8, trials=25, seed=42)")
