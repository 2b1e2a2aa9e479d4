"""The identity suite: the window checks, controls and the runner.

`run_suite` runs every identity check (awlab.identities, plus the three
window checks defined here) over its full index range at one certified
point.  The suite is one table, `_SUITE`: a row per identity family
gives its id, its n values as a function of the horizon, and its check.
`suite_plan` (which the CLI's SKIP lines come from) and `run_suite` both
walk that table.  The three window rows call their check by its
module-level name at run time rather than holding the function, so a
wrapper bound over that name later (a profiler, a tracer) still sees
every call.  Two safeguards keep the suite honest:

* Negative controls, the rows whose id starts with "control-", run in
  every suite: each perturbs one constant and passes only when the
  perturbed check fails with a nonzero witness.  They guard against
  vacuous passes (a zero polynomial satisfies every linear identity).

* Fault injection (`run_suite(..., fault="beta")`) adds 1 to one scalar
  family at the reporting layer, leaving the constructions untouched.
  Exactly the checks that depend on that scalar must flip to failed;
  the test suite pins down those dependence sets.

The window checks, hecke-relations, factorization and bridge-symmetric,
test relations that are linear in f.  Each proves its relations on a
basis of the degree window z^-w .. z^w (the monomials z^k, or the
symmetric 1 and z^j + z^-j), which proves them for every f there.  The
basis images are computed once per check call, through this module's
operator names, in a `laurent.BasisImages` that the call makes and
drops, and a relation that applies an operator to an image reads the
result off the images' integer table.  Then a linearity guard draws
`trials` random f, whose non-unit denominators the basis never has, and
tests op(f) against the same combination of the basis images, for each
operator the check applies to f itself (T0, T1, D and both forms of
D'); hecke-relations also tests t_i T_i^{-1} (T_i f) = t_i f, since the
basis runs t_i T_i^{-1} only on the images T_i z^k.  A guard compares
op(f) with the read-off as integer lists (`BasisImages.residual`) and
builds their difference only when it is nonzero; every other relation
is zero-tested as one `laurent.combination`, which needs no gcd pass.
The first nonzero residual is the witness lhs - rhs.

Random inputs are drawn from a generator seeded per identity id, so a
suite run is a pure function of (params, trials, seed, degree_window),
the params carrying the horizon.  Reports carry no timing: a caller that
wants it times the calls from outside.
"""

from __future__ import annotations

import random
from functools import partial
from math import gcd, lcm

from .hecke import (
    apply_D,
    apply_D_prime,
    apply_T0,
    apply_T1,
    apply_t0_T0_inv,
    apply_t1_T1_inv,
)
from .identities import (
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
from .laurent import BasisImages, LaurentPoly, combination
from .polynomials import _M
from .scalars import ParamSet, e1, e3, lambda_n, require_count

# ---------------------------------------------------------------------------
# window checks: relations proven on a basis of the degree window, then a
# seeded linearity guard
# ---------------------------------------------------------------------------

_HEIGHT = 9  # random coefficients are r/s with |r| and s at most _HEIGHT


def _draws(rng: random.Random, degrees: range) -> tuple[int, list[int], int]:
    """Nonzero coefficients at some of `degrees`, at least one: each degree
    draws with chance 1/2, and keeps r/s when r is nonzero.  They come
    back as the integer numerators from the lowest degree drawn up, over
    the lcm of the lowest-terms denominators, which is canonical: every
    prime of the lcm misses some numerator."""
    drawn = []
    while not drawn:
        for k in degrees:
            if rng.random() < 0.5:
                num = rng.randint(-_HEIGHT, _HEIGHT)
                if num:
                    s = rng.randint(1, _HEIGHT)
                    g = gcd(num, s)
                    drawn.append((k, num // g, s // g))
    den = lcm(*[s for _, _, s in drawn])
    lo = drawn[0][0]
    nums = [0] * (drawn[-1][0] - lo + 1)
    for k, r, s in drawn:
        nums[k - lo] = r * (den // s)
    return lo, nums, den


def random_laurent(rng: random.Random, degree_window: int) -> LaurentPoly:
    """Random nonzero Laurent polynomial with support inside [-w, w]."""
    w = require_count("degree_window", degree_window, 0)
    return LaurentPoly._trimmed(*_draws(rng, range(-w, w + 1)))


def random_symmetric_laurent(rng: random.Random,
                             degree_window: int) -> LaurentPoly:
    """Random nonzero symmetric Laurent polynomial inside [-w, w]."""
    w = require_count("degree_window", degree_window, 0)
    lo, half, den = _draws(rng, range(w + 1))
    right = [0] * lo + half  # degrees 0 up
    return LaurentPoly._trimmed(1 - len(right), right[:0:-1] + right, den)


def _symmetric(j: int) -> LaurentPoly:
    """The symmetric basis of the window: 1 for j = 0, else z^j + z^-j."""
    return LaurentPoly._raw(-j, [1] + [0] * (2 * j - 1) + [1], 1) if j \
        else LaurentPoly.one()


def _window_report(identity_id: str, residuals, p: ParamSet, trials: int,
                   seed: int, w: int, least_w: int = 0) -> IdentityReport:
    """The report of one window check: residuals(p, trials, rng, w) yields
    its combinations lhs - rhs, drawing from a generator seeded by `seed`
    and the id, and the first that is nonzero is the witness.  trials must
    be at least 1, so that the guard has an input, and w at least
    least_w; trials is tested first."""
    trials = require_count("trials", trials, 1)
    w = require_count("degree_window", w, least_w)
    rng = random.Random(f"{seed}:{identity_id}")
    return _finish(identity_id, p, None,
                   next(filter(None, residuals(p, trials, rng, w)), None))


def check_hecke_relations(p: ParamSet, trials: int = 25, *, seed: int = 42,
                          degree_window: int = 6) -> IdentityReport:
    """Defining relations of the T0/T1 pair, proven on the degree window.

    Every relation is linear in f, so checking it on a basis of the window
    z^-w .. z^w (w = degree_window) proves it for every f there:

    * the coefficient identities r_i + s_i(r_i) = t_i + 1, once, as
      cleared-denominator Laurent identities;
    * on the symmetric basis 1, z^j + z^-j: T1 f = t1 f, with T1 f read
      off the monomial images;
    * a certificate that T1 - t1 is injective on the antisymmetric part,
      so that T1 fixes exactly the symmetric f: (T1 - t1)(z^j - z^-j) has
      top degree exactly j, for j = 1..w;
    * on each monomial z^k: the quadratic relation (T_i - t_i)(T_i + 1) = 0,
      invertibility ((T_i - t_i + 1) T_i f = t_i f, through t_i T_i^{-1}),
      the three commutation relations between multiplication by z and the
      T's, and that (T1 + 1) f is symmetric.

    The images of the monomials are computed once each.  The quadratic
    relation reads T_i of T_i z^k off them, and the commutations read
    t_i T_i^{-1} z^k as T_i z^k + (1 - t_i) z^k; invertibility runs
    t_i T_i^{-1} itself on T_i z^k.  Then `trials` seeded random f guard
    linearity: T_i f must equal the same combination of the monomial
    images, and t_i T_i^{-1} (T_i f) must equal t_i f, so an inverse that
    is right on the images T_i z^k only is caught too.  Each relation
    zero-tests the combination lhs - rhs, and the first that is nonzero
    is the witness; a failed certificate gives the element z^j - z^-j.
    """
    # the certificate needs z - 1/z in the window
    return _window_report("hecke-relations", _hecke_residuals, p, trials,
                          seed, degree_window, 1)


def _hecke_residuals(p: ParamSet, trials: int, rng: random.Random, w: int):
    q, t0, t1 = p.q, p.t0, p.t1
    # coefficient identities r + s(r) = t + 1 with r = num / den, cleared
    # of denominators: num s(den) + s(num) den = (1 + t) den s(den), where
    # s is f -> f(u/z), u = 1 for r1 and u = q for r0
    for num, den, u, t in (
        (LaurentPoly({0: 1, 1: -p.a}) * LaurentPoly({0: 1, 1: -p.b}),
         LaurentPoly({0: 1, 2: -1}), 1, t1),
        (LaurentPoly({0: -p.c, 1: 1}) * LaurentPoly({0: -p.d, 1: 1}),
         LaurentPoly({0: -q, 2: 1}), q, t0),
    ):
        s_num, s_den = num.reflect(u), den.reflect(u)
        yield combination(((1, num * s_den), (1, s_num * den),
                           (-1 - t, den * s_den)))

    T1, T0 = partial(apply_T1, p=p), partial(apply_T0, p=p)
    mono = LaurentPoly.monomial
    t1z, t0z = BasisImages(T1, mono), BasisImages(T0, mono)
    for j in range(w + 1):
        fs = _symmetric(j)
        yield combination(((1, t1z.read_off(fs)), (-t1, fs)))
        if j and combination(((1, t1z(j)), (-1, t1z(-j)), (-t1, mono(j)),
                              (t1, mono(-j)))).max_deg != j:
            yield LaurentPoly({j: 1, -j: -1})

    # the scalars and the monomials z^-w-1 .. z^w+1 of the loop, made once
    a_b, c_d = p.a + p.b, p.c + p.d
    one_t1, one_t0, neg_t1, neg_t0 = 1 - t1, 1 - t0, -t1, -t0
    t1_t1_1, t1_a_b = t1 * (t1 - 1), t1 * a_b
    neg_q, neg_c_d, neg_a_b = -q, -c_d, -a_b
    monos = {k: mono(k) for k in range(-w - 1, w + 2)}
    for k in range(-w, w + 1):
        b, t1b, t0b = monos[k], t1z(k), t0z(k)
        for tb, image, one_t, neg_t, apply_inv in (
                (t1b, t1z, one_t1, neg_t1, apply_t1_T1_inv),
                (t0b, t0z, one_t0, neg_t0, apply_t0_T0_inv)):
            # (T - t)(T + 1) b = T(T b) + (1 - t) T b - t b = 0
            yield combination(((1, image.read_off(tb)), (one_t, tb), (neg_t, b)))
            yield combination(((1, apply_inv(tb, p)), (neg_t, b)))  # t T^{-1} T b = t b
        # commutation: z t0 T0^{-1} = q T0 z^{-1} + (c + d)
        yield combination(((1, _Z * t0b), (one_t0, monos[k + 1]),
                           (neg_q, t0z(k - 1)), (neg_c_d, b)))
        # commutation: (T1 + 1) z^{-1} = t1 z^{-1} + z T1 + (a + b)
        yield combination(((1, t1z(k - 1)), (one_t1, monos[k - 1]),
                           (-1, _Z * t1b), (neg_a_b, b)))
        # commutation: t1 (T1 + 1) z = t1 z + z^{-1} t1 (T1 - t1 + 1) - t1 (a + b)
        yield combination(((t1, t1z(k + 1)), (neg_t1, _ZI * t1b),
                           (t1_t1_1, monos[k - 1]), (t1_a_b, b)))
        # (T1 + 1) b is symmetric.  The quadratic relation puts it in the
        # kernel of T1 - t1, which the criterion and the certificate show
        # is the symmetric part of the window, but only if T1 b lies in the
        # window, which nothing above checks; this line needs no kernel call
        yield combination(((1, t1b), (1, b), (-1, t1b.reflect(1)), (-1, monos[-k])))

    for _ in range(trials):  # the linearity guard, then the inverses' guard
        f = random_laurent(rng, w)
        t1f = T1(f)
        yield t1z.residual(t1f, f)
        t0f = T0(f)
        yield t0z.residual(t0f, f)
        # t T^{-1} T f = t f, with T f already matched to the images
        yield combination(((1, apply_t1_T1_inv(t1f, p)), (neg_t1, f)))
        yield combination(((1, apply_t0_T0_inv(t0f, p)), (neg_t0, f)))


def check_factorization(p: ParamSet, trials: int = 25, *, seed: int = 42,
                        degree_window: int = 6) -> IdentityReport:
    """(T1 + 1)(T0 - t0) agrees with the direct form of D', and D' with D
    on symmetric f, proven on the degree window.

    The two forms of D' are compared on each monomial z^k, k = -w..w, and
    D' (read off the monomial images of the factored form) with D on the
    symmetric basis 1, z^j + z^-j.  Then `trials` seeded random f guard
    linearity: the factored form of D' on a random f, and D on a random
    symmetric f, must equal the same combination of their basis images,
    and the direct form must equal the factored one there.  The first
    combination lhs - rhs that is nonzero is the witness.
    """
    return _window_report("factorization", _factorization_residuals, p,
                          trials, seed, degree_window)


def _factorization_residuals(p: ParamSet, trials: int, rng: random.Random,
                             w: int):
    factored = partial(apply_D_prime, p=p, form="factored")
    direct = partial(apply_D_prime, p=p, form="direct")
    D = partial(apply_D, p=p)
    mono = LaurentPoly.monomial
    dpf, dpd = BasisImages(factored, mono), BasisImages(direct, mono)
    ds = BasisImages(D, _symmetric)
    for k in range(-w, w + 1):
        yield combination(((1, dpf(k)), (-1, dpd(k))))
    for j in range(w + 1):
        yield combination(((1, dpf.read_off(_symmetric(j))), (-1, ds(j))))

    for _ in range(trials):  # the linearity guard
        f = random_laurent(rng, w)
        value = factored(f)
        yield dpf.residual(value, f)
        # the factored form's value has just matched the combination
        yield combination(((1, direct(f)), (-1, value)))
        fs = random_symmetric_laurent(rng, w)
        yield ds.residual(D(fs), fs, 0)


def check_bridge_identity(p: ParamSet, trials: int = 25, *, seed: int = 42,
                          degree_window: int = 6) -> IdentityReport:
    """Mixed identity tying D' to D on every symmetric f:

    [(1 - q^2) D'z + q^2 D (z + 1/z) - q (z + 1/z) D] f
      = (1 - q) [(e1 - e3) - (1 - abcd)(z + 1/z)] f

    where D'z and D (z+1/z) multiply first and then apply the operator,
    while (z+1/z) D applies D first.  It is proven on the symmetric basis
    1, z^j + z^-j, j = 0..w, of the degree window; D (z + 1/z) f is read
    off the images of D on that basis.  Then `trials` seeded random
    symmetric f guard linearity: D'(z f) and D f must equal the same
    combinations of the basis images.  The first combination lhs - rhs
    that is nonzero is the witness.
    """
    return _window_report("bridge-symmetric", _bridge_residuals, p, trials,
                          seed, degree_window)


def _bridge_residuals(p: ParamSet, trials: int, rng: random.Random, w: int):
    q = p.q
    q2 = q**2
    one_q2 = 1 - q2
    k_const = (1 - q) * (e1(p) - e3(p))
    k_m = (1 - q) * (1 - p.abcd)

    def DPz(f):
        return apply_D_prime(_Z * f, p)

    D = partial(apply_D, p=p)
    dpz, ds = BasisImages(DPz, _symmetric), BasisImages(D, _symmetric)
    for j in range(w + 1):
        b = _symmetric(j)
        mb = _M * b
        yield combination(((one_q2, dpz(j)), (q2, ds.read_off(mb, 0)),
                           (-q, _M * ds(j)), (-k_const, b), (k_m, mb)))

    for _ in range(trials):  # the linearity guard
        f = random_symmetric_laurent(rng, w)
        yield dpz.residual(DPz(f), f, 0)
        yield ds.residual(D(f), f, 0)


# ---------------------------------------------------------------------------
# the suite
# ---------------------------------------------------------------------------

# (id, n values at horizon N or None for a window family, check).
# Per-index checks take (n, p, v), v being the run's scalar view;
# window checks take (p, trials=, seed=, degree_window=).  The
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
    n_max = require_count("n_max", n_max, 0)
    for identity_id, n_values, check in _SUITE:
        ns = None if n_values is None else tuple(n_values(n_max))
        yield identity_id, ns, check


def suite_plan(n_max: int) -> list[tuple[str, tuple[int, ...] | None]]:
    """Identity families with the n values the suite runs at this horizon.

    Window families carry None instead of an n tuple; families whose
    n-range is empty at this horizon carry an empty tuple, so callers can
    report them as skipped rather than silently absent.
    """
    return [(identity_id, ns)
            for identity_id, ns, _ in _rows(n_max)]


def run_suite(p: ParamSet, trials: int = 25, seed: int = 42, *,
              degree_window: int = 6,
              fault: str | None = None) -> list[IdentityReport]:
    """Run every identity check over its full valid n-range, up to the
    horizon p was certified for.

    Deterministic given (p, trials, seed).  trials must be at least 1,
    so that the linearity guards test something, and degree_window at
    least 1, which the certificate of hecke-relations needs: z - 1/z must
    lie in the window.  A broken rule is an InputError.  `fault` corrupts
    one scalar family (see FAULT_TARGETS) at the checking layer so that
    exactly the dependent checks fail; the negative controls stay relative
    to the clean scalars, and each passes exactly when its perturbed check
    fails.
    """
    # before any check runs
    trials = require_count("trials", trials, 1)
    degree_window = require_count("degree_window", degree_window, 1)
    v = ScalarView(p, fault)

    reports: list[IdentityReport] = []
    for identity_id, ns, check in _rows(p.n_max):
        if ns is None:
            reports.append(check(p, trials=trials, seed=seed,
                                 degree_window=degree_window))
            continue
        for n in ns:
            report = check(n, p, v)
            if identity_id.startswith("control-"):
                report = _finish(identity_id, p, n, LaurentPoly.one()
                                 if report.passed else None)
            reports.append(report)
    return reports
