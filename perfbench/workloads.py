"""The three benchmark workloads and the oracle that checks their outputs.

Each workload is a function of the workload seed alone and runs in a fresh
interpreter (see child.py), because awlab's module-level lru_caches would
otherwise turn every run after the first into a warm-cache run.

deep-n24    `awlab verify --params P --seed S --nmax 24 --json` through the
            CLI: 358 checks at one point.  Stresses the polynomials layer
            (E_n elimination dominates) and is the user's time to a result
            at a large horizon.
wide-n8     run_suite through the library over a batch of certified random
            points at the default horizon 8.  Caches start cold at each
            point and accumulate across points.  Stresses laurent and hecke;
            elimination is a small share, so a polynomials-layer change is
            predicted flat here.
faults-n12  one point at nmax=12: a clean run_suite, then one run per fault
            target.  Runs 2-5 reuse warm constructions and the failure path
            builds and serialises nonzero residual witnesses, so cache
            scoping and failure-path cost show here and nowhere else.

Points are drawn from the workload seed with every parameter a ratio of two
distinct 5-bit primes, so the input size (the height of q, a, b, c, d, which
sets how many bits the coefficients grow to) is the same for every seed.
With the CLI's own `--random` draw, heights range over 1..64 and the
coefficient size of E_n varies by about 30% between seeds.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

TRIALS = 25
WIDE_POINTS = 8

#: Which checks each fault target must flip, held by the benchmark itself.
DEPENDENCE = {
    "lambda": {"q-difference-eigen", "raising-via-d", "lowering-via-d"},
    "alpha": {"three-term-recurrence", "raising-via-d", "lowering-via-d",
              "alpha-beta"},
    "beta": {"raising-via-hecke", "lowering-via-hecke", "lowering-via-hecke-n1"},
    "kappa": {"intertwiner"},
}

NMAX = {"deep-n24": 24, "wide-n8": 8, "faults-n12": 12}

PRIMES = (17, 19, 23, 29, 31)


def draw_points(seed: int, count: int, nmax: int) -> list:
    """`count` certified points, deterministic in the seed, of fixed height.

    q = +-p/p' with p < p', and a, b, c, d = +-p/p' with p != p', all p, p'
    from PRIMES; draws that fail certification are drawn again.
    """
    from awlab import GenericityError, check_genericity

    rng = random.Random(seed)

    def ratio(ordered: bool) -> Fraction:
        num, den = rng.sample(PRIMES, 2)
        if ordered and num > den:
            num, den = den, num
        return Fraction(rng.choice((-1, 1)) * num, den)

    points = []
    while len(points) < count:
        q = ratio(True)
        try:
            points.append(check_genericity(q, *(ratio(False) for _ in range(4)), nmax))
        except GenericityError:
            continue
    return points


def _outcomes(reports) -> list:
    return [[r.identity_id, r.n, r.passed] for r in reports]


def run_deep(seed: int) -> dict:
    from awlab import cli

    point = draw_points(seed, 1, NMAX["deep-n24"])[0].as_json_dict()
    params = ",".join(f"{k}={point[k]}" for k in ("q", "a", "b", "c", "d"))
    argv = ["verify", "--params", params, "--seed", str(seed),
            "--nmax", str(NMAX["deep-n24"]), "--json"]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue().encode()
    docs = [json.loads(line) for line in text.splitlines()]
    return {
        "exit_code": code,
        "stdout_sha256": hashlib.sha256(text).hexdigest(),
        "stdout_bytes": len(text),
        "suites": [{"fault": None,
                    "outcomes": [[d["identity"], d["n"], d["passed"]] for d in docs]}],
    }


def run_wide(seed: int) -> dict:
    from awlab import run_suite

    suites = []
    for p in draw_points(seed, WIDE_POINTS, NMAX["wide-n8"]):
        suites.append({"fault": None,
                       "outcomes": _outcomes(run_suite(p, trials=TRIALS, seed=seed))})
    return {"exit_code": 0, "stdout_bytes": 0, "suites": suites}


def run_faults(seed: int) -> dict:
    from awlab import FAULT_TARGETS, run_suite

    p = draw_points(seed, 1, NMAX["faults-n12"])[0]
    suites = []
    for fault in (None, *FAULT_TARGETS):
        reports = run_suite(p, trials=TRIALS, seed=seed, fault=fault)
        for r in reports:
            json.dumps(r.as_json_dict(seed))
        suites.append({"fault": fault, "outcomes": _outcomes(reports)})
    return {"exit_code": 0, "stdout_bytes": 0, "suites": suites}


RUNNERS = {"deep-n24": run_deep, "wide-n8": run_wide, "faults-n12": run_faults}


def expected_suites(workload: str) -> int:
    if workload == "wide-n8":
        return WIDE_POINTS
    if workload == "faults-n12":
        return 1 + len(DEPENDENCE)
    return 1


def wrong_checks(result: dict, plan_count: int) -> int:
    """Checks whose outcome differs from the expected one in one child run.

    Every suite must report exactly `plan_count` checks (the count implied
    by suite_plan(nmax)).  In a clean suite every check passes; under a
    fault exactly the checks in DEPENDENCE[fault] fail, controls included
    among the ones that must pass.  A nonzero CLI exit on a clean run
    counts all of that run's checks as wrong.
    """
    wrong = 0
    for suite in result["suites"]:
        fault = suite["fault"]
        outcomes = suite["outcomes"]
        if fault is not None and fault not in DEPENDENCE:
            wrong += max(plan_count, len(outcomes))
            continue
        must_fail = DEPENDENCE[fault] if fault else set()
        bad = sum(passed != (identity not in must_fail)
                  for identity, _, passed in outcomes)
        wrong += min(plan_count, bad + abs(len(outcomes) - plan_count))
    if result["exit_code"] != 0:
        wrong = plan_count * len(result["suites"])
    return wrong
