"""Construction of the symmetric and nonsymmetric polynomial families.

The symmetric family P_n (monic, invariant under z -> 1/z) is built by
its three-term recurrence, `askey_wilson_P`,

    P_0 = 1,  P_{n+1} = (z + 1/z - alpha_n) P_n - c_n P_{n-1},

from the closed forms alpha_n and c_n in `scalars`.

The nonsymmetric family E_n is defined spectrally: E_n is the eigenvector
of Y = T1 T0 with eigenvalue mu_n, normalized so the z^n coefficient is 1.
It is built by spectral projection of P_m, m = |n|: P_m lies in the span
of E_m and E_-m, whose Y-eigenvalues mu_m and mu_-m differ at a certified
point (mu_m = mu_-m iff abcd q^(2m-1) = 1, ruled out by G3), so one
application of Y separates them,

    E_m  = (Y P_m - mu_-m P_m) / (mu_m - mu_-m),
    E_-m = (P_m - E_m) / c_m,  c_m = (1 - q^m)(1 - cd q^(m-1))
                                     / (1 - abcd q^(2m-1)),

with c_m read off as the z^-m coefficient of P_m - E_m and E_0 = 1.

A second, independent route cross-checks both families from the tests
(tests/eigen_oracles.py): P_n and E_n as eigenvectors, by
back-substitution in the triangular matrices of D and of Y on a degree
window.  `y_matrix` builds the matrix of Y, in the position ordering
1, z^-1, z, z^-2, z^2, ... that `position` and `exponent_at` translate,
and verifies its triangular structure at runtime instead of assuming it.

What is built at a point is kept on that point, in `ParamSet.memo`: the
list P_0, P_1, ... that `askey_wilson_P` extends, and every E_n,
(z + 1/z) P_n and closed-form scalar, through `memo`.  So each is built
once per point object, and freed with it.  Each step sums its terms with
`laurent.combination` and stores the result in canonical form, reduced
once: every later step and check builds on it, and unreduced P_n would
carry about twice the coefficient bits by n = 40.  This layer only
builds; `awlab gen` writes a polynomial out as JSON.
"""

from __future__ import annotations

from fractions import Fraction

from .hecke import apply_Y
from .laurent import LaurentPoly, combination
from .scalars import ParamSet, Scalar, alpha_n, c_n, memo, mu_n

_M = LaurentPoly({1: 1, -1: 1})  # multiplication by z + 1/z


class EigenSolveError(ArithmeticError):
    """Eigenvector extraction failed a structural expectation."""


class ExtractionError(ArithmeticError):
    """A claimed exact relation between polynomials failed to close.

    The nonzero difference is kept in .residual for inspection.
    """

    def __init__(self, message: str, residual: LaurentPoly):
        super().__init__(f"{message}; residual {residual}")
        self.residual = residual


def position(n: int) -> int:
    """Index of z^n in the ordering 1, z^-1, z, z^-2, z^2, ..."""
    if n == 0:
        return 0
    return -2 * n - 1 if n < 0 else 2 * n


def exponent_at(i: int) -> int:
    """Exponent stored at index i; inverse of position."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    if i % 2:
        return -((i + 1) // 2)
    return i // 2


def y_matrix(k: int, p: ParamSet) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of Y on span(z^-k .. z^k) in the position ordering.

    Entry [i][j] is the z^exponent_at(i) coefficient of Y z^exponent_at(j).
    The ordering is nested, so y_matrix(k - 1) is the leading block.  For
    each column the builder checks that Y z^e stays in span(z^-|e| .. z^|e|),
    that nothing sits below the diagonal, and that the diagonal carries mu;
    any violation raises EigenSolveError.
    """
    if k < 0:
        raise ValueError("window size must be nonnegative")
    size = 2 * k + 1
    rows = [[Fraction(0)] * size for _ in range(size)]
    for j in range(size):
        e = exponent_at(j)
        for deg, coeff in apply_Y(LaurentPoly.monomial(e), p).items():
            if abs(deg) > abs(e):
                raise EigenSolveError(f"Y z^{e} escapes the window at z^{deg}")
            i = position(deg)
            if i > j:
                raise EigenSolveError(
                    f"Y matrix has nonzero entry ({i},{j}) below the diagonal"
                )
            rows[i][j] = coeff
        want = mu_n(e, p)
        if rows[j][j] != want:
            raise EigenSolveError(
                f"Y matrix diagonal at z^{e} is {rows[j][j]}, "
                f"expected mu = {want}"
            )
    return tuple(tuple(row) for row in rows)


def askey_wilson_P(n: int, p: ParamSet) -> LaurentPoly:
    """Monic symmetric polynomial P_n by the three-term recurrence.

    P_0 = 1, P_1 = z + 1/z - alpha_0 and

        P_{n+1} = (z + 1/z - alpha_n) P_n - c_n P_{n-1},

    with alpha_n and c_n the closed forms in `scalars`, whose denominators
    G3 keeps nonzero up to the horizon.  Each step adds one degree with
    coefficient 1, so P_n is monic; it is the Askey-Wilson polynomial
    because at a certified point the lambda_n eigenspace of D is a line
    (G6, a consequence of G1 and G3) and the suite checks
    D P_n = lambda_n P_n for every n.  The point keeps P_0, P_1, ... as
    one list that each call extends as far as it needs, and alpha_n, c_n
    and (z + 1/z) P_n go through `memo`, where the checks read them too.
    """
    if n < 0:
        raise ValueError("askey_wilson_P needs n >= 0")
    p.require_horizon(n)
    ps = p.memo.setdefault("P", [LaurentPoly.one()])
    while len(ps) <= n:
        m = len(ps) - 1
        terms = [(1, memo("m_p", _m_p, m, p)),
                 (-memo("alpha", alpha_n, m, p), ps[m])]
        if m:
            terms.append((-memo("c", c_n, m, p), ps[m - 1]))
        ps.append(combination(terms).canonical())
    return ps[n]


def _m_p(n: int, p: ParamSet) -> LaurentPoly:
    """(z + 1/z) P_n, which the P recurrence and the checks read alike."""
    return _M * askey_wilson_P(n, p)


def nonsymmetric_E(n: int, p: ParamSet) -> LaurentPoly:
    """Eigenvector of Y = T1 T0 with eigenvalue mu_n, z^n coefficient 1.

    Spectral projection of P_|n| (see the module docstring): one
    application of Y per |n|, with E_-m built from E_m; each E_n is built
    once per point and kept through `memo`.  The normalizer c_m of E_-m
    equals (1 - q^m)(1 - cd q^(m-1)) / (1 - abcd q^(2m-1)), which G1, G4
    and G3 keep nonzero at a certified point.  Off the certified set,
    mu_m == mu_-m or c_m == 0 raises EigenSolveError.
    """
    p.require_horizon(n)
    if n == 0:
        return LaurentPoly.one()
    return memo("E", _spectral_E, n, p)


def _spectral_E(n: int, p: ParamSet) -> LaurentPoly:
    m = abs(n)
    if n < 0:
        rest = combination(((1, askey_wilson_P(m, p)),
                            (-1, nonsymmetric_E(m, p))))
        c = rest.coeff(-m)
        if c == 0:
            raise EigenSolveError(
                f"P_{m} - E_{m} has no z^-{m} term, so it is no multiple "
                f"of E_-{m}")
        return rest.scale(1 / c)  # scale brings rest to canonical form
    top, other = mu_n(m, p), mu_n(-m, p)
    if top == other:
        raise EigenSolveError(
            f"mu_{m} = mu_-{m} = {top}; the eigenspace is not a line")
    pm = askey_wilson_P(m, p)
    inv = 1 / (top - other)
    return combination(((inv, apply_Y(pm, p)), (-other * inv, pm))).canonical()


def recurrence_ratio(n: int, p: ParamSet) -> Scalar:
    """Coefficient c_n in (z + 1/z) P_n = P_{n+1} + alpha_n P_n + c_n P_{n-1}.

    Read off the polynomials rather than returned from the formula: the
    difference (z + 1/z - alpha_n) P_n - P_{n+1} must be an exact multiple
    of P_{n-1}, and c_n is that multiple.  Since `askey_wilson_P` builds
    P_{n+1} by this very recurrence, the multiple is `scalars.c_n` by
    construction; ExtractionError guards the extraction itself, and at a
    certified point would mean a broken construction.
    """
    if n < 2:
        raise ValueError("recurrence_ratio needs n >= 2")
    p.require_horizon(n + 1)
    pn = askey_wilson_P(n, p)
    g = combination(((1, _M * pn), (-1, askey_wilson_P(n + 1, p)),
                     (-alpha_n(n, p), pn)))
    c = g.coeff(n - 1)
    residual = combination(((1, g), (-c, askey_wilson_P(n - 1, p))))
    if residual:
        raise ExtractionError("three-term recurrence did not close", residual)
    return c

