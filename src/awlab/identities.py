"""Exact identity checks at one index, and the reports they return.

Every check computes a residual in exact rational arithmetic and passes
only when that residual is literally the zero polynomial.  Failures are
never exceptions: each check returns an IdentityReport whose
residual_witness is a nonzero polynomial explaining what went wrong.

A claim that f is a nonzero multiple of g is decided by one rule.  c is
f's coefficient over g's, both read at g's top degree (0 when g is zero).
When c != 0 the residual is f - c g, so the claim passes iff f = c g.
When c == 0 no nonzero multiple can work, and the witness is f if it is
nonzero, else g if it is nonzero, else the constant 1.  A claim that a
left side is a given nonzero multiple of g, as in the four raising and
lowering ladders, fails with witness 1 when that multiple is 0, and its
residual is otherwise the left side minus the multiple times g.

Each residual is one `laurent.combination` of the terms its docstring
spells out, unreduced: testing it for zero needs no gcd pass, and on
failure the same object is the witness.  Its text and JSON forms go
through Fraction, and canonical form is unique, so the printed witness is
the one a chain of reduced sums would give.

Each identity family is one function, check_<family>(n, p, v).  The
scalar families reach it through v, a ScalarView, which can add 1 to one
family at a time; that is how the suite runner (awlab.verify) injects
faults without touching the constructions.  The view reads every
ingredient that several checks share (the clean scalars, c_n,
(z + 1/z) P_n and D'(z P_n)) through the point's store, `scalars.memo`,
so each is computed once per point: across checks, across runs and with
the P_n build, which reads the same alpha_n, c_n and (z + 1/z) P_n.
Only identical computations are shared, never one image rewritten from
another.  The two modules are kept apart on purpose: imported from
source, one module of their joint size left about 1 MB more heap behind
in the importing process than the two halves do.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .hecke import apply_D, apply_D_prime, apply_t0_T0_inv, apply_Y, symmetrize
from .laurent import LaurentPoly, combination
from .polynomials import _m_p, askey_wilson_P, nonsymmetric_E
from .scalars import (InputError, ParamSet, alpha_n, beta_n, c_n, kappa_n,
                      lambda_n, memo, mu_n)

FAULT_TARGETS = ("lambda", "alpha", "beta", "kappa")

_Z = LaurentPoly.monomial(1)
_ZI = LaurentPoly.monomial(-1)


class IdentityReport(namedtuple("IdentityReport", "identity_id params n "
                                "passed residual_witness")):
    """Outcome of one identity check at one parameter point.

    A stored witness is never the zero polynomial, so residual_witness is
    None exactly when the report passed; on failure it is a nonzero
    polynomial (or constant) showing the discrepancy.  Reports compare by
    value, only with reports, and are not hashable.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # NotImplemented would let a plain tuple's own == compare the fields
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        return not self == other

    def as_json_dict(self, seed: int) -> dict:
        witness = self.residual_witness
        return {
            "identity": self.identity_id,
            "n": self.n,
            "passed": self.passed,
            "residual": None if witness is None else witness.to_json_dict(),
            "params": self.params.as_json_dict(),
            "seed": seed,
        }


class ScalarView:
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
            raise InputError(
                f"unknown fault target {fault!r}; expected one of {FAULT_TARGETS}"
            )
        self.p = p
        self.fault = fault

    def _scalar(self, name: str, build, n: int) -> Fraction:
        value = memo(name, build, n, self.p)
        return value + 1 if self.fault == name else value

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


def _d_prime_z_p(n: int, p: ParamSet) -> LaurentPoly:
    return apply_D_prime(_Z * askey_wilson_P(n, p), p)


def _limit_ratios(_, p: ParamSet) -> tuple[Fraction, Fraction]:
    """The limits of A(z) and A(1/z) at z -> infinity, A(z) = N / den with
    N = (1-az)(1-bz)(1-cz)(1-dz) and den = (1 - z^2)(1 - q z^2): the ratios
    of the top and of the bottom coefficients of N and den."""
    num = (LaurentPoly({0: 1, 1: -p.a}) * LaurentPoly({0: 1, 1: -p.b})
           * LaurentPoly({0: 1, 1: -p.c}) * LaurentPoly({0: 1, 1: -p.d}))
    den = LaurentPoly({0: 1, 2: -1}) * LaurentPoly({0: 1, 2: -p.q})
    return (num.coeff(num.max_deg) / den.coeff(den.max_deg),
            num.coeff(num.min_deg) / den.coeff(den.min_deg))


def _finish(identity_id: str, p: ParamSet, n: int | None,
            residual: LaurentPoly | None) -> IdentityReport:
    passed = not residual
    return IdentityReport(identity_id, p, n, passed, None if passed else residual)


def _finish_proportional(identity_id: str, p: ParamSet, n: int | None,
                         f: LaurentPoly, g: LaurentPoly) -> IdentityReport:
    """Pass iff f = c*g for a nonzero scalar c, by the module's rule."""
    top = g.max_deg
    c = 0 if top is None else f.coeff(top) / g.coeff(top)
    if c:
        witness = combination(((1, f), (-c, g)))
    else:
        witness = f or g or LaurentPoly.one()
    return _finish(identity_id, p, n, witness)


def _finish_multiple(identity_id: str, p: ParamSet, n: int | None, lhs: list,
                     multiple: Fraction, g: LaurentPoly) -> IdentityReport:
    """Pass iff the sum of the (scalar, polynomial) terms lhs is multiple * g
    and multiple != 0, by the module's rule."""
    if multiple == 0:
        return _finish(identity_id, p, n, LaurentPoly.one())
    return _finish(identity_id, p, n, combination([*lhs, (-multiple, g)]))


# ---------------------------------------------------------------------------
# per-index checks: each takes (n, p, v), v the run's ScalarView, through
# which the scalars it reads arrive; a view with a fault bumps them
# ---------------------------------------------------------------------------

def check_q_difference(n: int, p: ParamSet, v: ScalarView) -> IdentityReport:
    """D P_n = lambda_n P_n, exactly."""
    pn = askey_wilson_P(n, p)
    residual = combination(((1, apply_D(pn, p)), (-v.lam(n), pn)))
    return _finish("q-difference-eigen", p, n, residual)


def check_recurrence(n: int, p: ParamSet, v: ScalarView) -> IdentityReport:
    """(z + 1/z) P_n = P_{n+1} + alpha_n P_n + c_n P_{n-1}, n >= 2.

    Zero by construction at clean scalars (P_{n+1} is built by this
    recurrence), so it passes at every certified point; the evidence it
    carries is that a bumped alpha_n fails.
    """
    c = v.ratio(n)
    pn = askey_wilson_P(n, p)
    residual = combination(((1, v.m_p(n)), (-1, askey_wilson_P(n + 1, p)),
                            (-v.alpha(n), pn), (-c, askey_wilson_P(n - 1, p))))
    return _finish("three-term-recurrence", p, n, residual)


def check_raising_via_d(n: int, p: ParamSet, v: ScalarView,
                        lam_prev: Fraction | None = None,
                        lam_next: Fraction | None = None) -> IdentityReport:
    """[D (z+1/z) - lambda_{n-1} (z+1/z) - alpha_n (lambda_n - lambda_{n-1})] P_n
    = (lambda_{n+1} - lambda_{n-1}) P_{n+1}, with a certified nonzero multiple.

    Here "D (z+1/z)" means multiply by z + 1/z first, then apply D.
    lam_prev and lam_next replace lambda_{n-1} and lambda_{n+1}, which is
    how a negative control swaps them.
    """
    lp = v.lam(n - 1) if lam_prev is None else lam_prev
    ln = v.lam(n)
    lx = v.lam(n + 1) if lam_next is None else lam_next
    pn = askey_wilson_P(n, p)
    mp = v.m_p(n)
    lhs = [(1, apply_D(mp, p)), (-lp, mp), (-v.alpha(n) * (ln - lp), pn)]
    return _finish_multiple("raising-via-d", p, n, lhs, lx - lp,
                            askey_wilson_P(n + 1, p))


def check_lowering_via_d(n: int, p: ParamSet, v: ScalarView) -> IdentityReport:
    """(D - lambda_{n+1})(z + 1/z - alpha_n) P_n
    = c_n (lambda_{n-1} - lambda_{n+1}) P_{n-1}, n >= 2, nonzero multiple."""
    multiple = v.ratio(n) * (v.lam(n - 1) - v.lam(n + 1))
    g = combination(((1, v.m_p(n)), (-v.alpha(n), askey_wilson_P(n, p))))
    return _finish_multiple("lowering-via-d", p, n,
                            [(1, apply_D(g, p)), (-v.lam(n + 1), g)],
                            multiple, askey_wilson_P(n - 1, p))


# The Hecke ladders: the raising and lowering relations built from D' and
# the beta scalars.  "D'z" means multiply by z first, then apply D'.  Each
# left side is a list of (scalar, polynomial) terms for `combination`.

def _raising_lhs(n: int, p: ParamSet, v: ScalarView) -> list:
    """[D'z + (1 - q^{1-n})(z + 1/z) + beta_{-n}] P_n."""
    return [(1, v.d_prime_z_p(n)), (1 - p.q ** (1 - n), v.m_p(n)),
            (v.beta(-n), askey_wilson_P(n, p))]


def _lowering_lhs(n: int, p: ParamSet, v: ScalarView) -> list:
    """[D'z + (1 - q^n abcd)(z + 1/z) + beta_n] P_n."""
    return [(1, v.d_prime_z_p(n)), (1 - p.q**n * p.abcd, v.m_p(n)),
            (v.beta(n), askey_wilson_P(n, p))]


def check_raising_via_hecke(n: int, p: ParamSet,
                            v: ScalarView) -> IdentityReport:
    """[D'z + (1 - q^{1-n})(z + 1/z) + beta_{-n}] P_n
    = (q^n abcd - q^{1-n}) P_{n+1}, n >= 0."""
    if n < 0:
        raise ValueError("raising needs n >= 0")
    q = p.q
    return _finish_multiple("raising-via-hecke", p, n, _raising_lhs(n, p, v),
                            q**n * p.abcd - q ** (1 - n),
                            askey_wilson_P(n + 1, p))


def check_lowering_via_hecke(n: int, p: ParamSet,
                             v: ScalarView) -> IdentityReport:
    """[D'z + (1 - q^n abcd)(z + 1/z) + beta_n] P_n
    = (q^{1-n} - q^n abcd) c_n P_{n-1}, n >= 2."""
    if n < 2:
        raise ValueError("lowering needs n >= 2; n = 1 is "
                         "check_lowering_via_hecke_n1")
    q = p.q
    multiple = (q ** (1 - n) - q**n * p.abcd) * v.ratio(n)
    return _finish_multiple("lowering-via-hecke", p, n, _lowering_lhs(n, p, v),
                            multiple, askey_wilson_P(n - 1, p))


def check_lowering_via_hecke_n1(n: int, p: ParamSet,
                                v: ScalarView) -> IdentityReport:
    """The n = 1 lowering case: the left side is a nonzero multiple of P_0 = 1.

    c_1 is not read (the three-term recurrence check starts at n = 2),
    so this check asserts that the left side is a nonzero constant
    without asserting which one; at a certified point it is
    (1 - q abcd) c_1, which G1, G3 and G4 keep nonzero.  A left side
    that vanishes fails with witness 1, as any proportionality does.
    """
    if n != 1:
        raise ValueError("the n1 lowering case needs n = 1")
    lhs = combination(_lowering_lhs(n, p, v))
    return _finish_proportional("lowering-via-hecke-n1", p, n, lhs,
                                LaurentPoly.one())


def check_leading_coefficient(n: int, p: ParamSet,
                              v: ScalarView) -> IdentityReport:
    """The z^{n+1} coefficient of the raising left side is q^n abcd - q^{1-n}.

    The expected value is recomputed independently from the limits of the
    operator coefficient A(z) = N / ((1 - z^2)(1 - q z^2)) at
    z -> infinity, N = (1-az)(1-bz)(1-cz)(1-dz): A tends to the ratio of
    the top coefficients of N and its denominator (abcd/q), A(1/z) to the
    ratio of the bottom ones (1); G1 and G2 fix both degrees.  The two
    ratios depend only on the point and are read through `memo`.  Where
    `raising-via-hecke` passes at the same n, the coefficient read here is
    already the closed multiple, so `first` is zero and this check's own
    evidence is `via_limits - closed`, an identity in the parameters alone.
    The beta term has degree n, so a beta fault does not reach this check.
    """
    q = p.q
    closed = q**n * p.abcd - q ** (1 - n)
    top, bottom = memo("A_limits", _limit_ratios, None, p)
    via_limits = top * q ** (n + 1) - bottom + (1 - q ** (1 - n))
    first = combination(_raising_lhs(n, p, v)).coeff(n + 1) - closed
    second = via_limits - closed
    residual = LaurentPoly({0: first if first else second})
    return _finish("leading-coefficient", p, n, residual)


def check_alpha_beta(n: int, p: ParamSet, v: ScalarView) -> IdentityReport:
    """alpha_n (q^n abcd - q^{1-n}) = beta_n - beta_{-n}, n >= 1."""
    if n < 1:
        raise ValueError("check_alpha_beta needs n >= 1")
    q = p.q
    value = (v.alpha(n) * (q**n * p.abcd - q ** (1 - n))
             - (v.beta(n) - v.beta(-n)))
    return _finish("alpha-beta", p, n, LaurentPoly({0: value}))


def check_E_eigen(n: int, p: ParamSet, v: ScalarView) -> IdentityReport:
    """Y E_n = mu_n E_n, checked by a full operator application.

    E_n is built as (Y - mu_-n) P_|n| / (mu_n - mu_-n) for n > 0 and from
    P_|n| - E_|n| for n < 0, so for n != 0 this checks
    (Y - mu_n)(Y - mu_-n) P_|n| = 0.  mu_n is no fault target, so v is
    not read.
    """
    en = nonsymmetric_E(n, p)
    residual = combination(((1, apply_Y(en, p)), (-mu_n(n, p), en)))
    return _finish("y-eigen", p, n, residual)


def check_symmetrization(n: int, p: ParamSet, v: ScalarView) -> IdentityReport:
    """(T1 + 1) E_n is a nonzero multiple of P_|n|, n != 0; v is not read."""
    if n == 0:
        raise ValueError("symmetrization check needs n != 0")
    f = symmetrize(nonsymmetric_E(n, p), p)
    g = askey_wilson_P(abs(n), p)
    return _finish_proportional("symmetrization", p, n, f, g)


def check_projection(n: int, p: ParamSet, v: ScalarView) -> IdentityReport:
    """(t0 T0^{-1} - mu_{-n}) P_n is a nonzero multiple of E_{-n}, n >= 0;
    v is not read."""
    if n < 0:
        raise ValueError("projection check needs n >= 0")
    pn = askey_wilson_P(n, p)
    f = combination(((1, apply_t0_T0_inv(pn, p)), (-mu_n(-n, p), pn)))
    g = nonsymmetric_E(-n, p)
    return _finish_proportional("projection", p, n, f, g)


def check_intertwiner(n: int, p: ParamSet, v: ScalarView) -> IdentityReport:
    """(t0 T0^{-1} z - kappa_n) E_{-n} is a nonzero multiple of E_{n-1}.

    Holds for every integer n with |n| and |n-1| inside the horizon,
    negative n included.
    """
    em = nonsymmetric_E(-n, p)
    f = combination(((1, apply_t0_T0_inv(_Z * em, p)), (-v.kappa(n), em)))
    g = nonsymmetric_E(n - 1, p)
    return _finish_proportional("intertwiner", p, n, f, g)
