"""P_n and E_n the slow way, as eigenvectors of D and Y.

The reference route for awlab.polynomials: the package builds P_n by its
three-term recurrence and E_n by spectral projection, and the tests hold
both to these constructions.  Each is a back-substitution in a triangular
matrix on a degree window: the matrix of D on the symmetric basis
m_0 = 1, m_j = z^j + z^-j, built here, and the matrix of Y in the
position ordering 1, z^-1, z, z^-2, z^2, ..., which the package builds
(`y_matrix`) and checks for triangular structure.  Both back-substitutions
check that the eigenvalue sits on the diagonal once (G5/G6, consequences
of G1-G3); a repeated one raises EigenSolveError.  Nothing is kept on
the point.
"""

from __future__ import annotations

from fractions import Fraction

from awlab.hecke import apply_D
from awlab.laurent import LaurentPoly
from awlab.polynomials import EigenSolveError, exponent_at, position, y_matrix
from awlab.scalars import ParamSet, lambda_n, mu_n


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


def nonsymmetric_E_oracle(n: int, p: ParamSet) -> LaurentPoly:
    """E_n constructed the slow way, as the mu_n eigenvector of Y.

    Back-substitution in the triangular matrix of Y on the window
    z^-|n| .. z^|n|, with an explicit check that mu_n differs from every
    other diagonal entry in the window (G5, a consequence of G1-G3,
    promises it); a repeated diagonal value raises EigenSolveError.  Exists
    to cross-check nonsymmetric_E through an unrelated computation.
    """
    p.require_horizon(n)
    v = _eigenvector(y_matrix(abs(n), p), position(n), mu_n(n, p), f"mu_{n}")
    return LaurentPoly({exponent_at(i): c for i, c in enumerate(v)})
