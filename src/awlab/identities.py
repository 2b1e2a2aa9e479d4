"""Exact identity checks at one index, and the reports they return.

Every check computes a residual in exact rational arithmetic and passes
only when that residual is literally the zero polynomial; proportionality
claims ("f is a nonzero multiple of g") pass only with a certified nonzero
scalar.  Failures are never exceptions: each check returns an
IdentityReport whose residual_witness is a nonzero polynomial explaining
what went wrong.

The scalar families reach the checks through _ScalarView, which can add 1
to one family at a time; that is how the suite runner (awlab.verify)
injects faults without touching the constructions.  The view reads every
ingredient that several checks share (the clean scalars, c_n,
(z + 1/z) P_n and D'(z P_n)) through the point's store,
`scalars.memo`, so each is computed once per point: across checks,
across runs and with the P_n build, which reads the same alpha_n and
c_n.  Only identical computations are shared, never one image rewritten
from another.  The two modules are kept apart on purpose: imported from
source, one module of their joint size left about 1 MB more heap behind
in the importing process than the two halves do.
"""

from __future__ import annotations

from fractions import Fraction

from .hecke import (
    apply_D,
    apply_D_prime,
    apply_t0_T0_inv,
    apply_Y,
    aw_fraction,
    limit_at_infinity,
)
from .laurent import SUB_INV, LaurentPoly
from .polynomials import askey_wilson_P, nonsymmetric_E, symmetrize
from .scalars import ParamSet, alpha_n, beta_n, c_n, kappa_n, lambda_n, memo, mu_n

FAULT_TARGETS = ("lambda", "alpha", "beta", "kappa")

_Z = LaurentPoly.monomial(1)
_ZI = LaurentPoly.monomial(-1)
_M = LaurentPoly({1: 1, -1: 1})  # multiplication by z + 1/z


class IdentityReport:
    """Outcome of one identity check at one parameter point.

    passed is true iff residual_witness is None or the zero polynomial;
    on failure the witness is a nonzero polynomial (or constant) showing
    the discrepancy.
    """

    __slots__ = ("identity_id", "params", "n", "passed", "residual_witness")

    def __init__(self, identity_id: str, params: ParamSet, n: int | None,
                 passed: bool, residual_witness: LaurentPoly | None):
        self.identity_id = identity_id
        self.params = params
        self.n = n
        self.passed = passed
        self.residual_witness = residual_witness

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields()))
        return f"IdentityReport({fields})"

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
    """The scalar families at one point, with optional +1 fault injection.

    Faults live here, at the checking layer, and never inside the
    polynomial constructions; a fault models a bug in one closed-form
    constant so the suite can demonstrate which identities notice it.

    The view holds no values: it reads the clean scalars, c_n,
    (z + 1/z) P_n and D'(z P_n) through `memo`, so they are built once
    per point and shared by every view of it.  A fault's +1 is added on
    each read and never stored.  Each builder is passed by this module's
    name at the read, so a wrapper bound over one of them still sees it.
    """

    __slots__ = ("p", "fault")

    def __init__(self, p: ParamSet, fault: str | None = None):
        if fault is not None and fault not in FAULT_TARGETS:
            raise ValueError(
                f"unknown fault target {fault!r}; expected one of {FAULT_TARGETS}"
            )
        self.p = p
        self.fault = fault

    def _scalar(self, name: str, build, n: int) -> Fraction:
        return memo(name, build, n, self.p) + (1 if self.fault == name else 0)

    def lam(self, n: int) -> Fraction:
        return self._scalar("lambda", lambda_n, n)

    def alpha(self, n: int) -> Fraction:
        return self._scalar("alpha", alpha_n, n)

    def beta(self, n: int) -> Fraction:
        return self._scalar("beta", beta_n, n)

    def kappa(self, n: int) -> Fraction:
        return self._scalar("kappa", kappa_n, n)

    def ratio(self, n: int) -> Fraction:
        """c_n, the closed form that also builds P_{n+1}."""
        return memo("c", c_n, n, self.p)

    def m_p(self, n: int) -> LaurentPoly:
        """(z + 1/z) P_n."""
        return memo("m_p", _m_p, n, self.p)

    def d_prime_z_p(self, n: int) -> LaurentPoly:
        """D'(z P_n), the first term of the Hecke ladders' left sides."""
        return memo("d_prime_z_p", _d_prime_z_p, n, self.p)


def _m_p(n: int, p: ParamSet) -> LaurentPoly:
    return _M * askey_wilson_P(n, p)


def _d_prime_z_p(n: int, p: ParamSet) -> LaurentPoly:
    return apply_D_prime(_Z * askey_wilson_P(n, p), p)


def _finish(identity_id: str, p: ParamSet, n: int | None,
            residual: LaurentPoly | None) -> IdentityReport:
    if residual is None or residual.is_zero():
        return IdentityReport(identity_id, p, n, True, None)
    return IdentityReport(identity_id, p, n, False, residual)


class _BothZero:
    __slots__ = ()

    def __repr__(self) -> str:
        return "BOTH_ZERO"


#: Returned by `proportional` when both arguments are the zero polynomial,
#: so every scalar works and none is distinguished.
BOTH_ZERO = _BothZero()


def proportional(f: LaurentPoly, g: LaurentPoly):
    """The scalar c with f == c*g, if one exists.

    Returns BOTH_ZERO when f and g both vanish, the Fraction c (possibly 0)
    when it is determined, and None when f is not a multiple of g.
    """
    if g.is_zero():
        return BOTH_ZERO if f.is_zero() else None
    if f.is_zero():
        return Fraction(0)
    ref = g.max_deg
    c = f.coeff(ref) / g.coeff(ref)
    return c if (f - g.scale(c)).is_zero() else None


def _finish_proportional(identity_id: str, p: ParamSet, n: int | None,
                         f: LaurentPoly, g: LaurentPoly) -> IdentityReport:
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
    return _finish(identity_id, p, n, witness)


# ---------------------------------------------------------------------------
# per-index checks (inner versions take a _ScalarView so the suite can
# inject faults; the public functions always use the clean view)
# ---------------------------------------------------------------------------

def _q_difference(n: int, p: ParamSet, v: _ScalarView) -> IdentityReport:
    pn = askey_wilson_P(n, p)
    residual = apply_D(pn, p) - pn.scale(v.lam(n))
    return _finish("q-difference-eigen", p, n, residual)


def check_q_difference(n: int, p: ParamSet) -> IdentityReport:
    """D P_n = lambda_n P_n, exactly."""
    return _q_difference(n, p, _ScalarView(p))


def _recurrence(n: int, p: ParamSet, v: _ScalarView) -> IdentityReport:
    """Zero by construction at clean scalars (P_{n+1} is built by this
    recurrence); the evidence it carries is that a bumped alpha_n fails."""
    c = v.ratio(n)
    pn = askey_wilson_P(n, p)
    residual = (v.m_p(n) - askey_wilson_P(n + 1, p) - pn.scale(v.alpha(n))
                - askey_wilson_P(n - 1, p).scale(c))
    return _finish("three-term-recurrence", p, n, residual)


def check_recurrence(n: int, p: ParamSet) -> IdentityReport:
    """(z + 1/z) P_n = P_{n+1} + alpha_n P_n + c_n P_{n-1}, n >= 2; holds by
    construction of P_{n+1}, so it passes at every certified point."""
    return _recurrence(n, p, _ScalarView(p))


def _raising_via_d(n: int, p: ParamSet, v: _ScalarView,
                   lam_prev: Fraction | None = None,
                   lam_next: Fraction | None = None) -> IdentityReport:
    lp = v.lam(n - 1) if lam_prev is None else lam_prev
    ln = v.lam(n)
    lx = v.lam(n + 1) if lam_next is None else lam_next
    multiple = lx - lp
    if multiple == 0:
        return _finish("raising-via-d", p, n, LaurentPoly.one())
    pn = askey_wilson_P(n, p)
    mp = v.m_p(n)
    residual = (apply_D(mp, p) - mp.scale(lp)
                - pn.scale(v.alpha(n) * (ln - lp))
                - askey_wilson_P(n + 1, p).scale(multiple))
    return _finish("raising-via-d", p, n, residual)


def check_raising_via_d(n: int, p: ParamSet) -> IdentityReport:
    """[D (z+1/z) - lambda_{n-1} (z+1/z) - alpha_n (lambda_n - lambda_{n-1})] P_n
    = (lambda_{n+1} - lambda_{n-1}) P_{n+1}, with a certified nonzero multiple.

    Here "D (z+1/z)" means multiply by z + 1/z first, then apply D.
    """
    return _raising_via_d(n, p, _ScalarView(p))


def _lowering_via_d(n: int, p: ParamSet, v: _ScalarView) -> IdentityReport:
    c = v.ratio(n)
    multiple = c * (v.lam(n - 1) - v.lam(n + 1))
    if multiple == 0:
        return _finish("lowering-via-d", p, n, LaurentPoly.one())
    pn = askey_wilson_P(n, p)
    g = v.m_p(n) - pn.scale(v.alpha(n))
    residual = (apply_D(g, p) - g.scale(v.lam(n + 1))
                - askey_wilson_P(n - 1, p).scale(multiple))
    return _finish("lowering-via-d", p, n, residual)


def check_lowering_via_d(n: int, p: ParamSet) -> IdentityReport:
    """(D - lambda_{n+1})(z + 1/z - alpha_n) P_n
    = c_n (lambda_{n-1} - lambda_{n+1}) P_{n-1}, n >= 2, nonzero multiple."""
    return _lowering_via_d(n, p, _ScalarView(p))


def _raising_lhs(n: int, p: ParamSet, v: _ScalarView) -> LaurentPoly:
    """[D'z + (1 - q^{1-n})(z + 1/z) + beta_{-n}] P_n."""
    return (v.d_prime_z_p(n) + v.m_p(n).scale(1 - p.q ** (1 - n))
            + askey_wilson_P(n, p).scale(v.beta(-n)))


def _lowering_lhs(n: int, p: ParamSet, v: _ScalarView) -> LaurentPoly:
    """[D'z + (1 - q^n abcd)(z + 1/z) + beta_n] P_n."""
    return (v.d_prime_z_p(n) + v.m_p(n).scale(1 - p.q**n * p.abcd)
            + askey_wilson_P(n, p).scale(v.beta(n)))


def _raising_via_hecke(n: int, p: ParamSet, v: _ScalarView) -> IdentityReport:
    q = p.q
    multiple = q**n * p.abcd - q ** (1 - n)
    if multiple == 0:
        return _finish("raising-via-hecke", p, n, LaurentPoly.one())
    residual = (_raising_lhs(n, p, v)
                - askey_wilson_P(n + 1, p).scale(multiple))
    return _finish("raising-via-hecke", p, n, residual)


def _lowering_via_hecke(n: int, p: ParamSet, v: _ScalarView) -> IdentityReport:
    q = p.q
    c = v.ratio(n)
    multiple = (q ** (1 - n) - q**n * p.abcd) * c
    if multiple == 0:
        return _finish("lowering-via-hecke", p, n, LaurentPoly.one())
    residual = (_lowering_lhs(n, p, v)
                - askey_wilson_P(n - 1, p).scale(multiple))
    return _finish("lowering-via-hecke", p, n, residual)


def _lowering_via_hecke_n1(n: int, p: ParamSet, v: _ScalarView) -> IdentityReport:
    """The n = 1 lowering case, as proportionality to P_0 = 1 only.

    c_1 is not read (the three-term recurrence check starts at n = 2),
    so this check asserts that the left side collapses to a constant
    without asserting which constant.
    """
    lhs = _lowering_lhs(n, p, v)
    residual = lhs - LaurentPoly.constant(lhs.coeff(0))
    return _finish("lowering-via-hecke-n1", p, n, residual)


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
            return _lowering_via_hecke_n1(n, p, v)
        return _lowering_via_hecke(n, p, v)
    raise ValueError(f"unknown direction {direction!r}")


def _leading_coefficient(n: int, p: ParamSet, v: _ScalarView) -> IdentityReport:
    q = p.q
    closed = q**n * p.abcd - q ** (1 - n)
    a_fr = aw_fraction(p)
    via_limits = (limit_at_infinity(a_fr) * q ** (n + 1)
                  - limit_at_infinity(a_fr.substitute(SUB_INV))
                  + (1 - q ** (1 - n)))
    first = _raising_lhs(n, p, v).coeff(n + 1) - closed
    second = via_limits - closed
    residual = LaurentPoly.constant(first if first else second)
    return _finish("leading-coefficient", p, n, residual)


def check_leading_coefficient(n: int, p: ParamSet) -> IdentityReport:
    """The z^{n+1} coefficient of the raising left side is q^n abcd - q^{1-n}.

    The expected value is recomputed independently from the limits of the
    operator coefficient A(z) at z -> infinity (A -> abcd/q, A(1/z) -> 1),
    so the check would notice a wrong closed form on either route.  The
    beta term has degree n, so a beta fault does not reach this check.
    """
    return _leading_coefficient(n, p, _ScalarView(p))


def _alpha_beta(n: int, p: ParamSet, v: _ScalarView) -> IdentityReport:
    q = p.q
    value = (v.alpha(n) * (q**n * p.abcd - q ** (1 - n))
             - (v.beta(n) - v.beta(-n)))
    return _finish("alpha-beta", p, n, LaurentPoly.constant(value))


def check_alpha_beta(n: int, p: ParamSet) -> IdentityReport:
    """alpha_n (q^n abcd - q^{1-n}) = beta_n - beta_{-n}, n >= 1."""
    if n < 1:
        raise ValueError("check_alpha_beta needs n >= 1")
    return _alpha_beta(n, p, _ScalarView(p))


def check_E_eigen(n: int, p: ParamSet) -> IdentityReport:
    """Y E_n = mu_n E_n, checked by a full operator application.

    E_n is built as (Y - mu_-n) P_|n| / (mu_n - mu_-n) for n > 0 and from
    P_|n| - E_|n| for n < 0, so for n != 0 this checks
    (Y - mu_n)(Y - mu_-n) P_|n| = 0.
    """
    en = nonsymmetric_E(n, p)
    residual = apply_Y(en, p) - en.scale(mu_n(n, p))
    return _finish("y-eigen", p, n, residual)


def check_symmetrization(n: int, p: ParamSet) -> IdentityReport:
    """(T1 + 1) E_n is a nonzero multiple of P_|n|, n != 0."""
    if n == 0:
        raise ValueError("symmetrization check needs n != 0")
    f = symmetrize(nonsymmetric_E(n, p), p)
    g = askey_wilson_P(abs(n), p)
    return _finish_proportional("symmetrization", p, n, f, g)


def check_projection(n: int, p: ParamSet) -> IdentityReport:
    """(t0 T0^{-1} - mu_{-n}) P_n is a nonzero multiple of E_{-n}, n >= 0."""
    if n < 0:
        raise ValueError("projection check needs n >= 0")
    pn = askey_wilson_P(n, p)
    f = apply_t0_T0_inv(pn, p) - pn.scale(mu_n(-n, p))
    g = nonsymmetric_E(-n, p)
    return _finish_proportional("projection", p, n, f, g)


def _intertwiner(n: int, p: ParamSet, v: _ScalarView) -> IdentityReport:
    em = nonsymmetric_E(-n, p)
    f = apply_t0_T0_inv(_Z * em, p) - em.scale(v.kappa(n))
    g = nonsymmetric_E(n - 1, p)
    return _finish_proportional("intertwiner", p, n, f, g)


def check_intertwiner(n: int, p: ParamSet) -> IdentityReport:
    """(t0 T0^{-1} z - kappa_n) E_{-n} is a nonzero multiple of E_{n-1}.

    Holds for every integer n with |n| and |n-1| inside the horizon,
    negative n included.
    """
    return _intertwiner(n, p, _ScalarView(p))
