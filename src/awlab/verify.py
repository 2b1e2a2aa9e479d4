"""Exact identity checks and the suite runner.

Every check computes a residual in exact rational arithmetic and passes
only when that residual is literally the zero polynomial; proportionality
claims ("f is a nonzero multiple of g") pass only with a certified nonzero
scalar.  Failures are never exceptions: each check returns an
IdentityReport whose residual_witness is a nonzero polynomial explaining
what went wrong.

Two safeguards keep the suite honest:

* Negative controls deliberately perturb one constant and pass only when
  the perturbed check fails with a nonzero witness.  They guard against
  vacuous passes (a zero polynomial satisfies every linear identity).

* Fault injection (`run_suite(..., fault="beta")`) adds 1 to one scalar
  family at the reporting layer, leaving the constructions untouched.
  Exactly the checks that depend on that scalar must flip to failed;
  the test suite pins down those dependence sets.

Random inputs are drawn from a generator seeded per identity id, so a
suite run is a pure function of (params, n_max, trials, seed).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .hecke import (
    apply_D,
    apply_D_prime,
    apply_T0,
    apply_T1,
    apply_t0_T0_inv,
    apply_t1_T1_inv,
    apply_Y,
    aw_fraction,
    r0_fraction,
    r1_fraction,
    s1,
)
from .laurent import (
    BOTH_ZERO,
    SUB_INV,
    SUB_Q_OVER_Z,
    LaurentPoly,
    limit_at_infinity,
    proportional,
)
from .polynomials import askey_wilson_P, nonsymmetric_E, recurrence_ratio
from .scalars import (
    HorizonError,
    ParamSet,
    alpha_n,
    beta_n,
    e1,
    e3,
    kappa_n,
    lambda_n,
    mu_n,
)

#: Scalar families the suite can deliberately corrupt, one at a time.
FAULT_TARGETS = ("lambda", "alpha", "beta", "kappa")

_Z = LaurentPoly.monomial(1)
_ZI = LaurentPoly.monomial(-1)
_M = LaurentPoly({1: 1, -1: 1})  # multiplication by z + 1/z


@dataclass
class IdentityReport:
    """Outcome of one identity check at one parameter point.

    passed is true iff residual_witness is None or the zero polynomial;
    on failure the witness is a nonzero polynomial (or constant) showing
    the discrepancy.
    """

    identity_id: str
    params: ParamSet
    n: int | None
    passed: bool
    residual_witness: LaurentPoly | None
    elapsed: float

    def as_json_dict(self, seed: int) -> dict:
        residual = None
        if not self.passed and self.residual_witness is not None:
            residual = self.residual_witness.to_json_dict()
        return {
            "identity": self.identity_id,
            "n": self.n,
            "passed": self.passed,
            "residual": residual,
            "params": self.params.as_json_dict(),
            "seed": seed,
        }


class _ScalarView:
    """Access to the named scalar families with optional +1 fault injection.

    Faults live here, at the checking layer, and never inside the
    polynomial constructions; a fault models a bug in one closed-form
    constant so the suite can demonstrate which identities notice it.
    """

    __slots__ = ("p", "fault")

    def __init__(self, p: ParamSet, fault: str | None = None):
        if fault is not None and fault not in FAULT_TARGETS:
            raise ValueError(
                f"unknown fault target {fault!r}; expected one of {FAULT_TARGETS}"
            )
        self.p = p
        self.fault = fault

    def _bump(self, name: str) -> int:
        return 1 if self.fault == name else 0

    def lam(self, n: int) -> Fraction:
        return lambda_n(n, self.p) + self._bump("lambda")

    def alpha(self, n: int) -> Fraction:
        return alpha_n(n, self.p) + self._bump("alpha")

    def beta(self, n: int) -> Fraction:
        return beta_n(n, self.p) + self._bump("beta")

    def kappa(self, n: int) -> Fraction:
        return kappa_n(n, self.p) + self._bump("kappa")


def _finish(identity_id: str, p: ParamSet, n: int | None,
            residual: LaurentPoly | None, started: float) -> IdentityReport:
    elapsed = time.perf_counter() - started
    if residual is None or residual.is_zero():
        return IdentityReport(identity_id, p, n, True, None, elapsed)
    return IdentityReport(identity_id, p, n, False, residual, elapsed)


def _finish_proportional(identity_id: str, p: ParamSet, n: int | None,
                         f: LaurentPoly, g: LaurentPoly,
                         started: float) -> IdentityReport:
    """Pass iff f = c*g for a nonzero scalar c."""
    c = proportional(f, g)
    if c is BOTH_ZERO:
        witness = LaurentPoly.one()  # vacuous: both sides vanished
    elif c is None:
        ref = g.max_deg
        witness = f - g.scale(f.coeff(ref) / g.coeff(ref))
    elif c == 0:
        witness = g  # f vanished although g did not
    else:
        witness = None
    return _finish(identity_id, p, n, witness, started)


# ---------------------------------------------------------------------------
# per-index checks (inner versions take a _ScalarView so the suite can
# inject faults; the public functions always use the clean view)
# ---------------------------------------------------------------------------

def _q_difference(n: int, p: ParamSet, v: _ScalarView) -> IdentityReport:
    started = time.perf_counter()
    pn = askey_wilson_P(n, p)
    residual = apply_D(pn, p) - pn.scale(v.lam(n))
    return _finish("q-difference-eigen", p, n, residual, started)


def check_q_difference(n: int, p: ParamSet) -> IdentityReport:
    """D P_n = lambda_n P_n, exactly."""
    return _q_difference(n, p, _ScalarView(p))


def _recurrence(n: int, p: ParamSet, v: _ScalarView) -> IdentityReport:
    started = time.perf_counter()
    c = recurrence_ratio(n, p)
    pn = askey_wilson_P(n, p)
    residual = (_M * pn - askey_wilson_P(n + 1, p) - pn.scale(v.alpha(n))
                - askey_wilson_P(n - 1, p).scale(c))
    return _finish("three-term-recurrence", p, n, residual, started)


def check_recurrence(n: int, p: ParamSet) -> IdentityReport:
    """(z + 1/z) P_n = P_{n+1} + alpha_n P_n + c_n P_{n-1}, n >= 2."""
    return _recurrence(n, p, _ScalarView(p))


def _raising_via_d(n: int, p: ParamSet, v: _ScalarView,
                   lam_prev: Fraction | None = None,
                   lam_next: Fraction | None = None) -> IdentityReport:
    started = time.perf_counter()
    lp = v.lam(n - 1) if lam_prev is None else lam_prev
    ln = v.lam(n)
    lx = v.lam(n + 1) if lam_next is None else lam_next
    multiple = lx - lp
    if multiple == 0:
        return _finish("raising-via-d", p, n, LaurentPoly.one(), started)
    pn = askey_wilson_P(n, p)
    mp = _M * pn
    residual = (apply_D(mp, p) - mp.scale(lp)
                - pn.scale(v.alpha(n) * (ln - lp))
                - askey_wilson_P(n + 1, p).scale(multiple))
    return _finish("raising-via-d", p, n, residual, started)


def check_raising_via_d(n: int, p: ParamSet) -> IdentityReport:
    """[D (z+1/z) - lambda_{n-1} (z+1/z) - alpha_n (lambda_n - lambda_{n-1})] P_n
    = (lambda_{n+1} - lambda_{n-1}) P_{n+1}, with a certified nonzero multiple.

    Here "D (z+1/z)" means multiply by z + 1/z first, then apply D.
    """
    return _raising_via_d(n, p, _ScalarView(p))


def _lowering_via_d(n: int, p: ParamSet, v: _ScalarView) -> IdentityReport:
    started = time.perf_counter()
    c = recurrence_ratio(n, p)
    multiple = c * (v.lam(n - 1) - v.lam(n + 1))
    if multiple == 0:
        return _finish("lowering-via-d", p, n, LaurentPoly.one(), started)
    pn = askey_wilson_P(n, p)
    g = _M * pn - pn.scale(v.alpha(n))
    residual = (apply_D(g, p) - g.scale(v.lam(n + 1))
                - askey_wilson_P(n - 1, p).scale(multiple))
    return _finish("lowering-via-d", p, n, residual, started)


def check_lowering_via_d(n: int, p: ParamSet) -> IdentityReport:
    """(D - lambda_{n+1})(z + 1/z - alpha_n) P_n
    = c_n (lambda_{n-1} - lambda_{n+1}) P_{n-1}, n >= 2, nonzero multiple."""
    return _lowering_via_d(n, p, _ScalarView(p))


def _raising_via_hecke(n: int, p: ParamSet, v: _ScalarView) -> IdentityReport:
    started = time.perf_counter()
    q = p.q
    multiple = q**n * p.abcd - q ** (1 - n)
    if multiple == 0:
        return _finish("raising-via-hecke", p, n, LaurentPoly.one(), started)
    pn = askey_wilson_P(n, p)
    residual = (apply_D_prime(_Z * pn, p)
                + (_M * pn).scale(1 - q ** (1 - n))
                + pn.scale(v.beta(-n))
                - askey_wilson_P(n + 1, p).scale(multiple))
    return _finish("raising-via-hecke", p, n, residual, started)


def _lowering_via_hecke(n: int, p: ParamSet, v: _ScalarView) -> IdentityReport:
    started = time.perf_counter()
    q = p.q
    c = recurrence_ratio(n, p)
    multiple = (q ** (1 - n) - q**n * p.abcd) * c
    if multiple == 0:
        return _finish("lowering-via-hecke", p, n, LaurentPoly.one(), started)
    pn = askey_wilson_P(n, p)
    residual = (apply_D_prime(_Z * pn, p)
                + (_M * pn).scale(1 - q**n * p.abcd)
                + pn.scale(v.beta(n))
                - askey_wilson_P(n - 1, p).scale(multiple))
    return _finish("lowering-via-hecke", p, n, residual, started)


def _lowering_via_hecke_n1(p: ParamSet, v: _ScalarView) -> IdentityReport:
    """The n = 1 lowering case, as proportionality to P_0 = 1 only.

    The recurrence ratio c_1 is not extracted (the three-term recurrence
    is only certified from n = 2 up), so this check asserts that the
    left side collapses to a constant without asserting which constant.
    """
    started = time.perf_counter()
    q = p.q
    p1 = askey_wilson_P(1, p)
    lhs = (apply_D_prime(_Z * p1, p)
           + (_M * p1).scale(1 - q * p.abcd)
           + p1.scale(v.beta(1)))
    residual = lhs - LaurentPoly.constant(lhs.coeff(0))
    return _finish("lowering-via-hecke-n1", p, 1, residual, started)


def check_hecke_ladder(n: int, p: ParamSet, direction: str) -> IdentityReport:
    """Raising / lowering relations built from D' and the beta scalars.

    direction "raise" (n >= 0):
        [D'z + (1 - q^{1-n})(z + 1/z) + beta_{-n}] P_n
        = (q^n abcd - q^{1-n}) P_{n+1}
    direction "lower" (n >= 1; n = 1 is the proportionality-only case):
        [D'z + (1 - q^n abcd)(z + 1/z) + beta_n] P_n
        = (q^{1-n} - q^n abcd) c_n P_{n-1}

    "D'z" means multiply by z first, then apply D'.
    """
    v = _ScalarView(p)
    if direction == "raise":
        if n < 0:
            raise ValueError("raising needs n >= 0")
        return _raising_via_hecke(n, p, v)
    if direction == "lower":
        if n < 1:
            raise ValueError("lowering needs n >= 1")
        if n == 1:
            return _lowering_via_hecke_n1(p, v)
        return _lowering_via_hecke(n, p, v)
    raise ValueError(f"unknown direction {direction!r}")


def check_leading_coefficient(n: int, p: ParamSet) -> IdentityReport:
    """The z^{n+1} coefficient of the raising left side is q^n abcd - q^{1-n}.

    The expected value is recomputed independently from the limits of the
    operator coefficient A(z) at z -> infinity (A -> abcd/q, A(1/z) -> 1),
    so the check would notice a wrong closed form on either route.
    """
    started = time.perf_counter()
    q = p.q
    pn = askey_wilson_P(n, p)
    lhs = (apply_D_prime(_Z * pn, p)
           + (_M * pn).scale(1 - q ** (1 - n))
           + pn.scale(beta_n(-n, p)))
    closed = q**n * p.abcd - q ** (1 - n)
    a_fr = aw_fraction(p)
    via_limits = (limit_at_infinity(a_fr) * q ** (n + 1)
                  - limit_at_infinity(a_fr.substitute(SUB_INV))
                  + (1 - q ** (1 - n)))
    first = lhs.coeff(n + 1) - closed
    second = via_limits - closed
    residual = LaurentPoly.constant(first if first else second)
    return _finish("leading-coefficient", p, n, residual, started)


def _alpha_beta(n: int, p: ParamSet, v: _ScalarView) -> IdentityReport:
    started = time.perf_counter()
    q = p.q
    value = (v.alpha(n) * (q**n * p.abcd - q ** (1 - n))
             - (v.beta(n) - v.beta(-n)))
    return _finish("alpha-beta", p, n, LaurentPoly.constant(value), started)


def check_alpha_beta(n: int, p: ParamSet) -> IdentityReport:
    """alpha_n (q^n abcd - q^{1-n}) = beta_n - beta_{-n}, n >= 1."""
    if n < 1:
        raise ValueError("check_alpha_beta needs n >= 1")
    return _alpha_beta(n, p, _ScalarView(p))


def check_E_eigen(n: int, p: ParamSet) -> IdentityReport:
    """Y E_n = mu_n E_n, checked by a full operator application."""
    started = time.perf_counter()
    en = nonsymmetric_E(n, p)
    residual = apply_Y(en, p) - en.scale(mu_n(n, p))
    return _finish("y-eigen", p, n, residual, started)


def check_symmetrization(n: int, p: ParamSet) -> IdentityReport:
    """(T1 + 1) E_n is a nonzero multiple of P_|n|, n != 0."""
    if n == 0:
        raise ValueError("symmetrization check needs n != 0")
    started = time.perf_counter()
    en = nonsymmetric_E(n, p)
    f = apply_T1(en, p) + en
    g = askey_wilson_P(abs(n), p)
    return _finish_proportional("symmetrization", p, n, f, g, started)


def check_projection(n: int, p: ParamSet) -> IdentityReport:
    """(t0 T0^{-1} - mu_{-n}) P_n is a nonzero multiple of E_{-n}, n >= 0."""
    if n < 0:
        raise ValueError("projection check needs n >= 0")
    started = time.perf_counter()
    pn = askey_wilson_P(n, p)
    f = apply_t0_T0_inv(pn, p) - pn.scale(mu_n(-n, p))
    g = nonsymmetric_E(-n, p)
    return _finish_proportional("projection", p, n, f, g, started)


def _intertwiner(n: int, p: ParamSet, v: _ScalarView) -> IdentityReport:
    started = time.perf_counter()
    em = nonsymmetric_E(-n, p)
    f = apply_t0_T0_inv(_Z * em, p) - em.scale(v.kappa(n))
    g = nonsymmetric_E(n - 1, p)
    return _finish_proportional("intertwiner", p, n, f, g, started)


def check_intertwiner(n: int, p: ParamSet) -> IdentityReport:
    """(t0 T0^{-1} z - kappa_n) E_{-n} is a nonzero multiple of E_{n-1}.

    Holds for every integer n with |n| and |n-1| inside the horizon,
    negative n included.
    """
    return _intertwiner(n, p, _ScalarView(p))


# ---------------------------------------------------------------------------
# randomized-input checks
# ---------------------------------------------------------------------------

def random_laurent(rng: random.Random, degree_window: int = 6,
                   max_height: int = 9) -> LaurentPoly:
    """Random nonzero Laurent polynomial with support inside [-w, w]."""
    if degree_window < 0:
        raise ValueError("degree_window must be nonnegative")
    while True:
        coeffs = {}
        for k in range(-degree_window, degree_window + 1):
            if rng.random() < 0.5:
                num = rng.randint(-max_height, max_height)
                if num:
                    coeffs[k] = Fraction(num, rng.randint(1, max_height))
        f = LaurentPoly(coeffs)
        if not f.is_zero():
            return f


def random_symmetric_laurent(rng: random.Random, degree_window: int = 6,
                             max_height: int = 9) -> LaurentPoly:
    """Random nonzero Laurent polynomial invariant under z -> 1/z."""
    if degree_window < 0:
        raise ValueError("degree_window must be nonnegative")
    while True:
        coeffs = {}
        for k in range(degree_window + 1):
            if rng.random() < 0.5:
                num = rng.randint(-max_height, max_height)
                if num:
                    val = Fraction(num, rng.randint(1, max_height))
                    coeffs[k] = val
                    coeffs[-k] = val
        f = LaurentPoly(coeffs)
        if not f.is_zero():
            return f


def random_asymmetric_laurent(rng: random.Random, degree_window: int = 6,
                              max_height: int = 9) -> LaurentPoly:
    """Random Laurent polynomial guaranteed NOT to be symmetric."""
    if degree_window < 1:
        raise ValueError("an asymmetric polynomial needs degree_window >= 1")
    f = random_laurent(rng, degree_window, max_height)
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
    checked once, as cleared-denominator Laurent identities.
    """
    _require_trials(trials)
    started = time.perf_counter()
    rng = random.Random(f"{seed}:hecke-relations")
    q, a, b, c, d = p.q, p.a, p.b, p.c, p.d

    def fail(residual):
        return _finish("hecke-relations", p, None, residual, started)

    # coefficient identities, denominators cleared
    fr1 = r1_fraction(p)
    tot1 = fr1 + fr1.substitute(SUB_INV)
    res = tot1.num - tot1.den.scale(1 + p.t1)
    if not res.is_zero():
        return fail(res)
    fr0 = r0_fraction(p)
    tot0 = fr0 + fr0.substitute(SUB_Q_OVER_Z, q)
    res = tot0.num - tot0.den.scale(1 + p.t0)
    if not res.is_zero():
        return fail(res)

    for _ in range(trials):
        f = random_laurent(rng, degree_window)
        for apply_T, t, apply_inv in (
            (apply_T1, p.t1, apply_t1_T1_inv),
            (apply_T0, p.t0, apply_t0_T0_inv),
        ):
            tf = apply_T(f, p)
            h = tf + f
            res = apply_T(h, p) - h.scale(t)  # (T - t)(T + 1) f
            if not res.is_zero():
                return fail(res)
            res = apply_inv(tf, p) - f.scale(t)  # t T^{-1} T f = t f
            if not res.is_zero():
                return fail(res)
        # commutation: z t0 T0^{-1} = q T0 z^{-1} + (c + d)
        res = (_Z * apply_t0_T0_inv(f, p) - apply_T0(_ZI * f, p).scale(q)
               - f.scale(c + d))
        if not res.is_zero():
            return fail(res)
        # commutation: (T1 + 1) z^{-1} = t1 z^{-1} + z T1 + (a + b)
        res = (apply_T1(_ZI * f, p) + _ZI * f - (_ZI * f).scale(p.t1)
               - _Z * apply_T1(f, p) - f.scale(a + b))
        if not res.is_zero():
            return fail(res)
        # commutation: t1 (T1 + 1) z = t1 z + z^{-1} t1 (T1 - t1 + 1) - t1 (a + b)
        res = ((apply_T1(_Z * f, p) + _Z * f).scale(p.t1)
               - (_Z * f).scale(p.t1)
               - (_ZI * apply_t1_T1_inv(f, p)).scale(p.t1)
               + f.scale(p.t1 * (a + b)))
        if not res.is_zero():
            return fail(res)
        # symmetry criterion, both directions, and the symmetrizer
        fs = random_symmetric_laurent(rng, degree_window)
        res = apply_T1(fs, p) - fs.scale(p.t1)
        if not res.is_zero():
            return fail(res)
        fa = random_asymmetric_laurent(rng, degree_window)
        if apply_T1(fa, p) == fa.scale(p.t1):
            return fail(LaurentPoly.one())  # asymmetric f must not be fixed
        h = apply_T1(f, p) + f
        res = h - s1(h)
        if not res.is_zero():
            return fail(res)
    return _finish("hecke-relations", p, None, None, started)


def check_factorization(p: ParamSet, trials: int = 25, *, seed: int = 42,
                        degree_window: int = 6) -> IdentityReport:
    """(T1 + 1)(T0 - t0) agrees with the direct form of D' on random f,
    and D' agrees with D on random symmetric f."""
    _require_trials(trials)
    started = time.perf_counter()
    rng = random.Random(f"{seed}:factorization")
    for _ in range(trials):
        f = random_laurent(rng, degree_window)
        res = (apply_D_prime(f, p, form="factored")
               - apply_D_prime(f, p, form="direct"))
        if not res.is_zero():
            return _finish("factorization", p, None, res, started)
        fs = random_symmetric_laurent(rng, degree_window)
        res = apply_D_prime(fs, p) - apply_D(fs, p)
        if not res.is_zero():
            return _finish("factorization", p, None, res, started)
    return _finish("factorization", p, None, None, started)


def check_bridge_identity(p: ParamSet, trials: int = 25, *, seed: int = 42,
                          degree_window: int = 6) -> IdentityReport:
    """Mixed identity tying D' to D on every symmetric f:

    [(1 - q^2) D'z + q^2 D (z + 1/z) - q (z + 1/z) D] f
      = (1 - q) [(e1 - e3) - (1 - abcd)(z + 1/z)] f

    where D'z and D (z+1/z) multiply first and then apply the operator,
    while (z+1/z) D applies D first.
    """
    _require_trials(trials)
    started = time.perf_counter()
    rng = random.Random(f"{seed}:bridge-symmetric")
    q = p.q
    s_e1, s_e3, s_abcd = e1(p), e3(p), p.abcd
    for _ in range(trials):
        f = random_symmetric_laurent(rng, degree_window)
        lhs = (apply_D_prime(_Z * f, p).scale(1 - q**2)
               + apply_D(_M * f, p).scale(q**2)
               - (_M * apply_D(f, p)).scale(q))
        rhs = (f.scale((1 - q) * (s_e1 - s_e3))
               - (_M * f).scale((1 - q) * (1 - s_abcd)))
        res = lhs - rhs
        if not res.is_zero():
            return _finish("bridge-symmetric", p, None, res, started)
    return _finish("bridge-symmetric", p, None, None, started)


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

def suite_plan(n_max: int,
               negative_controls: bool = True) -> list[tuple[str, tuple[int, ...] | None]]:
    """Identity families with the n values the suite runs at this horizon.

    Trial-based families carry None instead of an n tuple; families whose
    n-range is empty at this horizon carry an empty tuple, so callers can
    report them as skipped rather than silently absent.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    window = tuple(range(-(n_max - 1), n_max)) if n_max >= 1 else (0,)
    plan: list[tuple[str, tuple[int, ...] | None]] = [
        ("q-difference-eigen", tuple(range(n_max + 1))),
        ("y-eigen", window),
        ("three-term-recurrence", tuple(range(2, n_max))),
        ("raising-via-d", tuple(range(2, n_max))),
        ("lowering-via-d", tuple(range(2, n_max))),
        ("raising-via-hecke", tuple(range(n_max))),
        ("lowering-via-hecke", tuple(range(2, n_max))),
        ("lowering-via-hecke-n1", (1,) if n_max >= 1 else ()),
        ("leading-coefficient", tuple(range(n_max))),
        ("alpha-beta", tuple(range(1, n_max + 1))),
        ("symmetrization", tuple(n for n in window if n != 0)),
        ("projection", tuple(range(n_max))),
        ("intertwiner", window if n_max >= 1 else ()),
        ("hecke-relations", None),
        ("factorization", None),
        ("bridge-symmetric", None),
    ]
    if negative_controls:
        plan += [
            ("control-lambda-q-difference", (2,) if n_max >= 2 else ()),
            ("control-alpha-recurrence", (2,) if n_max >= 3 else ()),
            ("control-swap-raising-via-d", (2,) if n_max >= 3 else ()),
            ("control-kappa-intertwiner", (1,) if n_max >= 2 else ()),
            ("control-beta-raising-via-hecke", (1,) if n_max >= 2 else ()),
        ]
    return plan


def _control(identity_id: str, p: ParamSet, n: int,
             inner: IdentityReport) -> IdentityReport:
    """A negative control passes exactly when the perturbed check failed."""
    passed = not inner.passed
    witness = None if passed else LaurentPoly.one()
    return IdentityReport(identity_id, p, n, passed, witness, inner.elapsed)


def run_suite(p: ParamSet, n_max: int | None = None, trials: int = 25,
              seed: int = 42, *, degree_window: int = 6,
              fault: str | None = None,
              negative_controls: bool = True) -> list[IdentityReport]:
    """Run every identity check over its full valid n-range.

    Deterministic given (p, n_max, trials, seed).  n_max defaults to the
    horizon p was certified for and may not exceed it; trials must be at
    least 1, so no randomized check passes vacuously.  `fault` corrupts
    one scalar family (see FAULT_TARGETS) at the checking layer so that
    exactly the dependent checks fail; the negative controls stay
    relative to the clean scalars.
    """
    if n_max is None:
        n_max = p.n_max
    if n_max > p.n_max:
        raise HorizonError(
            f"suite horizon {n_max} exceeds the certified horizon {p.n_max}"
        )
    _require_trials(trials)
    v = _ScalarView(p, fault)
    clean = _ScalarView(p)

    per_n = {
        "q-difference-eigen": lambda n: _q_difference(n, p, v),
        "y-eigen": lambda n: check_E_eigen(n, p),
        "three-term-recurrence": lambda n: _recurrence(n, p, v),
        "raising-via-d": lambda n: _raising_via_d(n, p, v),
        "lowering-via-d": lambda n: _lowering_via_d(n, p, v),
        "raising-via-hecke": lambda n: _raising_via_hecke(n, p, v),
        "lowering-via-hecke": lambda n: _lowering_via_hecke(n, p, v),
        "lowering-via-hecke-n1": lambda n: _lowering_via_hecke_n1(p, v),
        "leading-coefficient": lambda n: check_leading_coefficient(n, p),
        "alpha-beta": lambda n: _alpha_beta(n, p, v),
        "symmetrization": lambda n: check_symmetrization(n, p),
        "projection": lambda n: check_projection(n, p),
        "intertwiner": lambda n: _intertwiner(n, p, v),
    }
    trial_based = {
        "hecke-relations": lambda: check_hecke_relations(
            p, trials, seed=seed, degree_window=degree_window),
        "factorization": lambda: check_factorization(
            p, trials, seed=seed, degree_window=degree_window),
        "bridge-symmetric": lambda: check_bridge_identity(
            p, trials, seed=seed, degree_window=degree_window),
    }
    controls = {
        "control-lambda-q-difference": lambda n: _control(
            "control-lambda-q-difference", p, n,
            _q_difference(n, p, _ScalarView(p, "lambda"))),
        "control-alpha-recurrence": lambda n: _control(
            "control-alpha-recurrence", p, n,
            _recurrence(n, p, _ScalarView(p, "alpha"))),
        "control-swap-raising-via-d": lambda n: _control(
            "control-swap-raising-via-d", p, n,
            _raising_via_d(n, p, clean,
                           lam_prev=lambda_n(n + 1, p),
                           lam_next=lambda_n(n - 1, p))),
        "control-kappa-intertwiner": lambda n: _control(
            "control-kappa-intertwiner", p, n,
            _intertwiner(n, p, _ScalarView(p, "kappa"))),
        "control-beta-raising-via-hecke": lambda n: _control(
            "control-beta-raising-via-hecke", p, n,
            _raising_via_hecke(n, p, _ScalarView(p, "beta"))),
    }

    reports: list[IdentityReport] = []
    for identity_id, ns in suite_plan(n_max, negative_controls):
        if ns is None:
            reports.append(trial_based[identity_id]())
        elif identity_id in controls:
            for n in ns:
                reports.append(controls[identity_id](n))
        else:
            for n in ns:
                reports.append(per_n[identity_id](n))
    return reports
