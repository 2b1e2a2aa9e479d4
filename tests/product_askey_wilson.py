"""P_n as the terminating hypergeometric sum, summand by summand.

The reference for awlab.polynomials.askey_wilson_P, which builds P_n by
the three-term recurrence from the closed forms alpha_n and c_n.  This
sum shares neither: it forms each factor product with two LaurentPoly
multiplications and adds each summand with a scale and an add, its
scalars coming from q-Pochhammer symbols alone.  pytest does not collect
this module; the tests import it.
"""

from __future__ import annotations

from fractions import Fraction

from awlab.laurent import LaurentPoly
from awlab.scalars import ParamSet


def q_pochhammer(x, k: int, q) -> Fraction:
    """(x; q)_k = prod_{j=0..k-1} (1 - x q^j), with the empty product 1."""
    if k < 0:
        raise ValueError("q_pochhammer needs k >= 0")
    x = Fraction(x)
    q = Fraction(q)
    acc = Fraction(1)
    power = Fraction(1)
    for _ in range(k):
        acc *= 1 - x * power
        power *= q
    return acc


def askey_wilson_P(n: int, p: ParamSet) -> LaurentPoly:
    """Monic symmetric polynomial P_n as a terminating hypergeometric sum.

    P_n = (ab)_n (ac)_n (ad)_n / (a^n (abcd q^{n-1})_n)
          * sum_{k=0}^{n} (abcd q^{n-1})_k (q^{-n})_k q^k
            / ((ab)_k (ac)_k (ad)_k (q)_k)
          * prod_{j<k} (1 - a q^j z)(1 - a q^j / z)

    with (x)_k the q-Pochhammer symbol.  The normalization makes the z^n
    coefficient exactly 1.  The k-th summand's scalar comes from the
    (k-1)-th by one ratio of six linear factors at q^(k-1).  Neither the
    ratio nor the factor product is taken past the last summand k = n,
    where 1 - ab q^n need not be certified nonzero.
    """
    if n < 0:
        raise ValueError("askey_wilson_P needs n >= 0")
    p.require_horizon(n)
    q, a = p.q, p.a
    x_ab, x_ac, x_ad = a * p.b, a * p.c, a * p.d
    x_s = p.abcd * q ** (n - 1)
    q_inv_n = q**-n
    prefactor = (
        q_pochhammer(x_ab, n, q)
        * q_pochhammer(x_ac, n, q)
        * q_pochhammer(x_ad, n, q)
        / (a**n * q_pochhammer(x_s, n, q))
    )
    z = LaurentPoly.monomial(1)
    z_inv = LaurentPoly.monomial(-1)
    total = LaurentPoly.zero()
    factor = LaurentPoly.one()
    coeff = Fraction(1)
    q_k = Fraction(1)  # q^k
    for k in range(n + 1):
        total = total + factor.scale(coeff)
        if k < n:
            aq = a * q_k
            factor = factor * (1 - aq * z) * (1 - aq * z_inv)
            coeff = coeff * (1 - x_s * q_k) * (1 - q_inv_n * q_k) * q / (
                (1 - x_ab * q_k) * (1 - x_ac * q_k) * (1 - x_ad * q_k)
                * (1 - q_k * q))
            q_k *= q
    return total.scale(prefactor)
