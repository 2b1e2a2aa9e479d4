"""The identity suite: randomized relation checks, controls and the runner.

`run_suite` runs every identity check (awlab.identities, plus the
randomized-input checks defined here) over its full index range at one
certified point.  The suite is one table, `_SUITE`: a row per identity
family gives its id, its n values as a function of the horizon, and its
check.  `suite_plan` (which the CLI's SKIP lines come from) and
`run_suite` both walk that table.  The three random-input rows call
their check by its module-level name at run time rather than holding the
function, so a wrapper bound over that name later (a profiler, a tracer)
still sees every call.  Two safeguards keep the suite honest:

* Negative controls, the rows whose id starts with "control-", run in
  every suite: each perturbs one constant and passes only when the
  perturbed check fails with a nonzero witness.  They guard against
  vacuous passes (a zero polynomial satisfies every linear identity).

* Fault injection (`run_suite(..., fault="beta")`) adds 1 to one scalar
  family at the reporting layer, leaving the constructions untouched.
  Exactly the checks that depend on that scalar must flip to failed;
  the test suite pins down those dependence sets.

Random inputs are drawn from a generator seeded per identity id, so a
suite run is a pure function of (params, n_max, trials, seed).  Reports
carry no timing: a caller that wants it times the calls from outside.

The random-input checks test each identity as lhs - rhs == 0, with the
two sides' terms summed by `laurent.combination`, which needs no gcd
pass, and build the canonical witness lhs - rhs only when it is nonzero.
The products one trial reads more than once (z f, z^-1 f, (z + 1/z) f,
T1 f + f) are formed once, and the scalars of a point once per check.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .hecke import (
    apply_D,
    apply_D_prime,
    apply_T0,
    apply_T1,
    apply_t0_T0_inv,
    apply_t1_T1_inv,
    s1,
)
from .identities import (
    _M,
    _Z,
    _ZI,
    IdentityReport,
    ScalarView,
    _finish,
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
from .laurent import SUB_INV, SUB_Q_OVER_Z, LaurentPoly, combination
from .scalars import HorizonError, ParamSet, e1, e3, lambda_n

# ---------------------------------------------------------------------------
# randomized-input checks
# ---------------------------------------------------------------------------

_HEIGHT = 9  # random coefficients are r/s with |r| and s at most _HEIGHT


def random_laurent(rng: random.Random, degree_window: int = 6) -> LaurentPoly:
    """Random nonzero Laurent polynomial with support inside [-w, w]."""
    if degree_window < 0:
        raise ValueError("degree_window must be nonnegative")
    while True:
        coeffs = {}
        for k in range(-degree_window, degree_window + 1):
            if rng.random() < 0.5:
                num = rng.randint(-_HEIGHT, _HEIGHT)
                if num:
                    coeffs[k] = Fraction(num, rng.randint(1, _HEIGHT))
        f = LaurentPoly(coeffs)
        if not f.is_zero():
            return f


def random_symmetric_laurent(rng: random.Random,
                             degree_window: int = 6) -> LaurentPoly:
    """Random nonzero Laurent polynomial invariant under z -> 1/z."""
    if degree_window < 0:
        raise ValueError("degree_window must be nonnegative")
    while True:
        coeffs = {}
        for k in range(degree_window + 1):
            if rng.random() < 0.5:
                num = rng.randint(-_HEIGHT, _HEIGHT)
                if num:
                    val = Fraction(num, rng.randint(1, _HEIGHT))
                    coeffs[k] = val
                    coeffs[-k] = val
        f = LaurentPoly(coeffs)
        if not f.is_zero():
            return f


def random_asymmetric_laurent(rng: random.Random,
                              degree_window: int = 6) -> LaurentPoly:
    """Random Laurent polynomial guaranteed NOT to be symmetric."""
    if degree_window < 1:
        raise ValueError("an asymmetric polynomial needs degree_window >= 1")
    f = random_laurent(rng, degree_window)
    if f.is_symmetric():
        # break the symmetry at the top degree
        f = f + LaurentPoly.monomial(degree_window, 1)
    return f


def _require_trials(trials: int) -> None:
    # zero trials would let a randomized check pass without testing anything
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def check_hecke_relations(p: ParamSet, trials: int = 25, *, seed: int = 42,
                          degree_window: int = 6) -> IdentityReport:
    """Defining relations of the T0/T1 pair on random inputs.

    Covers, for each random f: the quadratic relation (T_i - t_i)(T_i + 1) = 0,
    invertibility ((T_i - t_i + 1) T_i f = t_i f), all three commutation
    relations between multiplication by z and the T's, and the symmetry
    criterion (T1 f = t1 f exactly for symmetric f, and (T1 + 1) f is always
    symmetric).  The coefficient identities r_i + s_i(r_i) = t_i + 1 are
    checked once, as cleared-denominator Laurent identities.  Each relation
    zero-tests the combination lhs - rhs; the first that is nonzero gives
    the witness lhs - rhs.
    """
    _require_trials(trials)
    rng = random.Random(f"{seed}:hecke-relations")
    q, t0, t1 = p.q, p.t0, p.t1

    def fail(residual):
        return _finish("hecke-relations", p, None, residual)

    # coefficient identities r + s(r) = t + 1 with r = num / den, cleared
    # of denominators: num s(den) + s(num) den = (1 + t) den s(den)
    z = _Z
    for num, den, rule, t in (
        ((1 - p.a * z) * (1 - p.b * z), 1 - z * z, SUB_INV, t1),
        ((z - p.c) * (z - p.d), z * z - q, SUB_Q_OVER_Z, t0),
    ):
        s_num, s_den = num.substitute(rule, q), den.substitute(rule, q)
        left, right, both = num * s_den, s_num * den, den * s_den
        if combination(((1, left), (1, right), (-1 - t, both))):
            return fail(left + right - both.scale(1 + t))

    a_b, c_d, t1_1 = p.a + p.b, p.c + p.d, t1 - 1
    for _ in range(trials):
        f = random_laurent(rng, degree_window)
        zif = _ZI * f
        t1f = apply_T1(f, p)  # reused by a commutation
        t0f = apply_T0(f, p)
        h1 = combination(((1, t1f), (1, f)))  # reused by the symmetrizer
        h0 = combination(((1, t0f), (1, f)))
        for h, tf, apply_T, t, apply_inv in (
            (h1, t1f, apply_T1, t1, apply_t1_T1_inv),
            (h0, t0f, apply_T0, t0, apply_t0_T0_inv),
        ):
            lhs = apply_T(h, p)  # (T - t)(T + 1) f = 0
            if combination(((1, lhs), (-t, h))):
                return fail(lhs - h.scale(t))
            lhs = apply_inv(tf, p)  # t T^{-1} T f = t f
            if combination(((1, lhs), (-t, f))):
                return fail(lhs - f.scale(t))
        # commutation: z t0 T0^{-1} = q T0 z^{-1} + (c + d)
        lhs = _Z * apply_t0_T0_inv(f, p)
        t0zif = apply_T0(zif, p)
        if combination(((1, lhs), (-q, t0zif), (-c_d, f))):
            return fail(lhs - (t0zif.scale(q) + f.scale(c_d)))
        # commutation: (T1 + 1) z^{-1} = t1 z^{-1} + z T1 + (a + b)
        lhs = apply_T1(zif, p)
        zt1f = _Z * t1f
        if combination(((1, lhs), (-t1_1, zif), (-1, zt1f), (-a_b, f))):
            return fail(lhs - (zif.scale(t1_1) + zt1f + f.scale(a_b)))
        # commutation: t1 (T1 + 1) z = t1 z + z^{-1} t1 (T1 - t1 + 1) - t1 (a + b),
        # compared without the factor t1 = -ab, which G2 keeps nonzero
        lhs = apply_T1(_Z * f, p)
        zi_inv = _ZI * apply_t1_T1_inv(f, p)
        if combination(((1, lhs), (-1, zi_inv), (a_b, f))):
            return fail((lhs - (zi_inv - f.scale(a_b))).scale(t1))
        # symmetry criterion, both directions, and the symmetrizer
        fs = random_symmetric_laurent(rng, degree_window)
        lhs = apply_T1(fs, p)
        if combination(((1, lhs), (-t1, fs))):
            return fail(lhs - fs.scale(t1))
        fa = random_asymmetric_laurent(rng, degree_window)
        if not combination(((1, apply_T1(fa, p)), (-t1, fa))):
            return fail(LaurentPoly.one())  # asymmetric f must not be fixed
        if not h1.is_symmetric():
            return fail(h1 - s1(h1))
    return _finish("hecke-relations", p, None, None)


def check_factorization(p: ParamSet, trials: int = 25, *, seed: int = 42,
                        degree_window: int = 6) -> IdentityReport:
    """(T1 + 1)(T0 - t0) agrees with the direct form of D' on random f,
    and D' agrees with D on random symmetric f.  The first pair of images
    whose difference is nonzero gives the witness lhs - rhs."""
    _require_trials(trials)
    rng = random.Random(f"{seed}:factorization")
    for _ in range(trials):
        f = random_laurent(rng, degree_window)
        lhs = apply_D_prime(f, p, form="factored")
        rhs = apply_D_prime(f, p, form="direct")
        if combination(((1, lhs), (-1, rhs))):
            return _finish("factorization", p, None, lhs - rhs)
        fs = random_symmetric_laurent(rng, degree_window)
        lhs, rhs = apply_D_prime(fs, p), apply_D(fs, p)
        if combination(((1, lhs), (-1, rhs))):
            return _finish("factorization", p, None, lhs - rhs)
    return _finish("factorization", p, None, None)


def check_bridge_identity(p: ParamSet, trials: int = 25, *, seed: int = 42,
                          degree_window: int = 6) -> IdentityReport:
    """Mixed identity tying D' to D on every symmetric f:

    [(1 - q^2) D'z + q^2 D (z + 1/z) - q (z + 1/z) D] f
      = (1 - q) [(e1 - e3) - (1 - abcd)(z + 1/z)] f

    where D'z and D (z+1/z) multiply first and then apply the operator,
    while (z+1/z) D applies D first.  The combination lhs - rhs is
    zero-tested; if it is nonzero, the canonical lhs - rhs is the witness.
    """
    _require_trials(trials)
    rng = random.Random(f"{seed}:bridge-symmetric")
    q = p.q
    q2 = q**2
    one_q2 = 1 - q2
    k_const = (1 - q) * (e1(p) - e3(p))
    k_m = (1 - q) * (1 - p.abcd)
    for _ in range(trials):
        f = random_symmetric_laurent(rng, degree_window)
        mf = _M * f
        dpzf = apply_D_prime(_Z * f, p)
        dmf = apply_D(mf, p)
        mdf = _M * apply_D(f, p)
        if combination(((one_q2, dpzf), (q2, dmf), (-q, mdf),
                        (-k_const, f), (k_m, mf))):
            lhs = dpzf.scale(one_q2) + dmf.scale(q2) - mdf.scale(q)
            rhs = f.scale(k_const) - mf.scale(k_m)
            return _finish("bridge-symmetric", p, None, lhs - rhs)
    return _finish("bridge-symmetric", p, None, None)


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

# (id, n values at horizon N or None for a random-input family, check).
# Per-index checks take (n, p, v), v being the run's scalar view;
# random-input checks take (p, trials=, seed=, degree_window=).  The
# "control-" rows build their own views, relative to the clean scalars.
_SUITE = (
    ("q-difference-eigen", lambda N: range(N + 1), check_q_difference),
    ("y-eigen", lambda N: range(1 - N, N) if N else (0,), check_E_eigen),
    ("three-term-recurrence", lambda N: range(2, N), check_recurrence),
    ("raising-via-d", lambda N: range(2, N), check_raising_via_d),
    ("lowering-via-d", lambda N: range(2, N), check_lowering_via_d),
    ("raising-via-hecke", range, check_raising_via_hecke),
    ("lowering-via-hecke", lambda N: range(2, N), check_lowering_via_hecke),
    ("lowering-via-hecke-n1", lambda N: (1,) if N >= 1 else (),
     check_lowering_via_hecke_n1),
    ("leading-coefficient", range, check_leading_coefficient),
    ("alpha-beta", lambda N: range(1, N + 1), check_alpha_beta),
    ("symmetrization", lambda N: [n for n in range(1 - N, N) if n],
     check_symmetrization),
    ("projection", range, check_projection),
    ("intertwiner", lambda N: range(1 - N, N), check_intertwiner),
    # looked up by name when called, so wrappers bound later still apply
    ("hecke-relations", None, lambda p, **kw: check_hecke_relations(p, **kw)),
    ("factorization", None, lambda p, **kw: check_factorization(p, **kw)),
    ("bridge-symmetric", None, lambda p, **kw: check_bridge_identity(p, **kw)),
    ("control-lambda-q-difference", lambda N: (2,) if N >= 2 else (),
     lambda n, p, v: check_q_difference(n, p, ScalarView(p, "lambda"))),
    ("control-alpha-recurrence", lambda N: (2,) if N >= 3 else (),
     lambda n, p, v: check_recurrence(n, p, ScalarView(p, "alpha"))),
    ("control-swap-raising-via-d", lambda N: (2,) if N >= 3 else (),
     lambda n, p, v: check_raising_via_d(n, p, ScalarView(p),
                                         lam_prev=lambda_n(n + 1, p),
                                         lam_next=lambda_n(n - 1, p))),
    ("control-kappa-intertwiner", lambda N: (1,) if N >= 2 else (),
     lambda n, p, v: check_intertwiner(n, p, ScalarView(p, "kappa"))),
    ("control-beta-raising-via-hecke", lambda N: (1,) if N >= 2 else (),
     lambda n, p, v: check_raising_via_hecke(n, p, ScalarView(p, "beta"))),
)


def _rows(n_max: int):
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    for identity_id, n_values, check in _SUITE:
        ns = None if n_values is None else tuple(n_values(n_max))
        yield identity_id, ns, check


def suite_plan(n_max: int) -> list[tuple[str, tuple[int, ...] | None]]:
    """Identity families with the n values the suite runs at this horizon.

    Trial-based families carry None instead of an n tuple; families whose
    n-range is empty at this horizon carry an empty tuple, so callers can
    report them as skipped rather than silently absent.
    """
    return [(identity_id, ns)
            for identity_id, ns, _ in _rows(n_max)]


def run_suite(p: ParamSet, n_max: int | None = None, trials: int = 25,
              seed: int = 42, *, degree_window: int = 6,
              fault: str | None = None) -> list[IdentityReport]:
    """Run every identity check over its full valid n-range.

    Deterministic given (p, n_max, trials, seed).  n_max defaults to the
    horizon p was certified for and may not exceed it; trials must be at
    least 1, so no randomized check passes vacuously, and degree_window at
    least 1, which the asymmetric random inputs need.  `fault` corrupts
    one scalar family (see FAULT_TARGETS) at the checking layer so that
    exactly the dependent checks fail; the negative controls stay
    relative to the clean scalars, and each passes exactly when its
    perturbed check fails.
    """
    if n_max is None:
        n_max = p.n_max
    if n_max > p.n_max:
        raise HorizonError(
            f"suite horizon {n_max} exceeds the certified horizon {p.n_max}"
        )
    _require_trials(trials)
    # the asymmetric inputs of hecke-relations need a degree besides 0;
    # reject before any check runs rather than at the first such draw
    if degree_window < 1:
        raise ValueError(f"degree_window must be at least 1, got {degree_window}")
    v = ScalarView(p, fault)

    reports: list[IdentityReport] = []
    for identity_id, ns, check in _rows(n_max):
        if ns is None:
            reports.append(check(p, trials=trials, seed=seed,
                                 degree_window=degree_window))
            continue
        for n in ns:
            report = check(n, p, v)
            if identity_id.startswith("control-"):
                passed = not report.passed
                report = IdentityReport(identity_id, p, n, passed,
                                        None if passed else LaurentPoly.one())
            reports.append(report)
    return reports
