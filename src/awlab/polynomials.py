"""Construction of the symmetric and nonsymmetric polynomial families.

Two independent routes are implemented on purpose.

The symmetric family P_n (monic, invariant under z -> 1/z) is built by
its three-term recurrence, `askey_wilson_P`,

    P_0 = 1,  P_{n+1} = (z + 1/z - alpha_n) P_n - c_n P_{n-1},

from the closed forms alpha_n and c_n in `scalars`.  It also has a
linear-algebra construction, `askey_wilson_P_oracle`, that diagonalizes
the q-difference operator D on a finite window; the two must agree
coefficient by coefficient, and the test suite checks that they do.

The nonsymmetric family E_n is defined spectrally: E_n is the eigenvector
of Y = T1 T0 with eigenvalue mu_n, normalized so the z^n coefficient is 1.
It is built by spectral projection of P_m, m = |n|: P_m lies in the span
of E_m and E_-m, whose Y-eigenvalues mu_m and mu_-m differ at a certified
point (G5), so one application of Y separates them,

    E_m  = (Y P_m - mu_-m P_m) / (mu_m - mu_-m),
    E_-m = (P_m - E_m) / c_m,  c_m = (1 - q^m)(1 - cd q^(m-1))
                                     / (1 - abcd q^(2m-1)),

with c_m read off as the z^-m coefficient of P_m - E_m and E_0 = 1.  The
slow route stays as `nonsymmetric_E_oracle`: in the basis 1, z^-1, z,
z^-2, z^2, ... the matrix of Y on the window spanned by z^-k .. z^k is
upper triangular with the mu values on the diagonal, the builder verifies
that structure at runtime instead of assuming it, and the eigenvector
comes from back-substitution.  The oracle P_n is built the same way from
the matrix of D.  Both back-substitutions check that the eigenvalue sits
on the diagonal once (G5, G6); a repeated one raises EigenSolveError.

What is built at a point is kept on that point, in `ParamSet.memo`: the
list P_0, P_1, ... that `askey_wilson_P` extends, and every E_n and
closed-form scalar, through `memo`.  So each is built once per point
object, and freed with it.  The oracles keep nothing.
"""

from __future__ import annotations

from fractions import Fraction

from .hecke import apply_D, apply_T1, apply_Y
from .laurent import LaurentPoly
from .scalars import ParamSet, Scalar, alpha_n, c_n, lambda_n, memo, mu_n

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


def _eigenvector(rows: tuple[tuple[Fraction, ...], ...], index: int,
                 value: Fraction, name: str) -> list[Fraction]:
    """Eigenvector of an upper triangular matrix by back-substitution.

    `value` must be the diagonal entry at `index` and differ from every
    other diagonal entry in the window; then the eigenspace is a line, and
    the vector returned spans it with entry 1 at `index` and zeros past it.
    A repeated diagonal value raises EigenSolveError.
    """
    found = [i for i, row in enumerate(rows) if row[i] == value]
    if found != [index]:
        raise EigenSolveError(
            f"{name} sits on the diagonal at indices {found}, expected only "
            f"{index}; the eigenspace is not a line")
    v = [Fraction(0)] * len(rows)
    v[index] = Fraction(1)
    for i in range(index - 1, -1, -1):
        row = rows[i]
        v[i] = sum(row[j] * v[j] for j in range(i + 1, index + 1)) \
            / (value - row[i])
    return v


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


def d_matrix(k: int, p: ParamSet) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of D on symmetric polynomials of degree <= k.

    The basis is m_0 = 1 and m_j = z^j + z^-j.  Entry [i][j] is the m_i
    coefficient of D m_j.  Degree preservation makes the matrix upper
    triangular with lambda on the diagonal; both facts are checked.
    """
    if k < 0:
        raise ValueError("window size must be nonnegative")
    rows = [[Fraction(0)] * (k + 1) for _ in range(k + 1)]
    for j in range(k + 1):
        basis_j = LaurentPoly.one() if j == 0 else LaurentPoly({j: 1, -j: 1})
        image = apply_D(basis_j, p)
        if not image.is_symmetric():
            raise EigenSolveError(f"D m_{j} is not symmetric")
        top = image.max_deg
        if top is not None and top > j:
            raise EigenSolveError(f"D m_{j} raises the degree to {top}")
        for i in range(j + 1):
            rows[i][j] = image.coeff(i)
        want = lambda_n(j, p)
        if rows[j][j] != want:
            raise EigenSolveError(
                f"D matrix diagonal at degree {j} is {rows[j][j]}, "
                f"expected lambda = {want}"
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
    (G6) and the suite checks D P_n = lambda_n P_n for every n.  The point
    keeps P_0, P_1, ... as one list that each call extends as far as it
    needs, and alpha_n and c_n go through `memo`, where the checks read
    them too.
    """
    if n < 0:
        raise ValueError("askey_wilson_P needs n >= 0")
    p.require_horizon(n)
    ps = p.memo.setdefault("P", [LaurentPoly.one()])
    while len(ps) <= n:
        m = len(ps) - 1
        step = _M * ps[m] - ps[m].scale(memo("alpha", alpha_n, m, p))
        if m:
            step = step - ps[m - 1].scale(memo("c", c_n, m, p))
        ps.append(step)
    return ps[n]


def askey_wilson_P_oracle(n: int, p: ParamSet) -> LaurentPoly:
    """P_n constructed the slow way, as the lambda_n eigenvector of D.

    Back-substitution in the triangular matrix of D on the symmetric
    window of degree n, with an explicit check that lambda_n differs from
    every other diagonal entry; the top coefficient comes out as 1.
    Exists to cross-check askey_wilson_P through an unrelated computation.
    """
    if n < 0:
        raise ValueError("askey_wilson_P_oracle needs n >= 0")
    p.require_horizon(n)
    v = _eigenvector(d_matrix(n, p), n, lambda_n(n, p), f"lambda_{n}")
    coeffs = {0: v[0]}
    for i in range(1, n + 1):
        coeffs[i] = v[i]
        coeffs[-i] = v[i]
    return LaurentPoly(coeffs)


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
        rest = askey_wilson_P(m, p) - nonsymmetric_E(m, p)
        c = rest.coeff(-m)
        if c == 0:
            raise EigenSolveError(
                f"P_{m} - E_{m} has no z^-{m} term, so it is no multiple "
                f"of E_-{m}")
        return rest.scale(1 / c)
    top, other = mu_n(m, p), mu_n(-m, p)
    if top == other:
        raise EigenSolveError(
            f"mu_{m} = mu_-{m} = {top}; the eigenspace is not a line")
    pm = askey_wilson_P(m, p)
    return (apply_Y(pm, p) - pm.scale(other)).scale(1 / (top - other))


def nonsymmetric_E_oracle(n: int, p: ParamSet) -> LaurentPoly:
    """E_n constructed the slow way, as the mu_n eigenvector of Y.

    Back-substitution in the triangular matrix of Y on the window
    z^-|n| .. z^|n|, with an explicit check that mu_n differs from every
    other diagonal entry in the window (G5 promises it); a repeated
    diagonal value raises EigenSolveError.  Exists to cross-check
    nonsymmetric_E through an unrelated computation.
    """
    p.require_horizon(n)
    v = _eigenvector(y_matrix(abs(n), p), position(n), mu_n(n, p), f"mu_{n}")
    return LaurentPoly({exponent_at(i): c for i, c in enumerate(v)})


def symmetrize(f: LaurentPoly, p: ParamSet) -> LaurentPoly:
    """(T1 + 1) f, which is always symmetric."""
    return apply_T1(f, p) + f


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
    g = _M * pn - askey_wilson_P(n + 1, p) - pn.scale(alpha_n(n, p))
    c = g.coeff(n - 1)
    residual = g - askey_wilson_P(n - 1, p).scale(c)
    if not residual.is_zero():
        raise ExtractionError("three-term recurrence did not close", residual)
    return c


def polynomial_document(kind: str, n: int, p: ParamSet,
                        poly: LaurentPoly) -> dict:
    """JSON-ready record of one constructed polynomial.

    The polynomial's own keys (var, coeffs) sit at the top level, so the
    document round-trips through LaurentPoly.from_json_dict unchanged.
    """
    return {"kind": kind, "n": n, "params": p.as_json_dict(),
            **poly.to_json_dict()}
