"""P_n as the terminating hypergeometric sum.

The reference for awlab.polynomials.askey_wilson_P, which builds P_n by
the three-term recurrence from the closed forms alpha_n and c_n.  This
sum shares neither, nor any of the package's Laurent arithmetic: its
scalars come from q-Pochhammer symbols alone, its products and sums are
the {degree: Fraction} dict arithmetic of the Fraction reference
(tests/fraction_laurent.py), and the LaurentPoly is built only from the
finished sum.  pytest does not collect this module; the tests import it.
"""

from __future__ import annotations

from fractions import Fraction

import fraction_laurent as ref
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
    coefficient exactly 1.  The k-th summand's scalar, prefactor
    included, comes from the (k-1)-th by one ratio of six linear factors
    at q^(k-1).  Neither the ratio nor the factor product is taken past
    the last summand k = n, where 1 - ab q^n need not be certified
    nonzero.  The sum is nested from the last summand down, s_n = c_n and
    s_k = c_k + (1 - a q^k z)(1 - a q^k / z) s_(k+1), so each step takes
    one product by a three-term factor; over Fraction this is about half
    the work of forming every factor product and adding it.
    """
    if n < 0:
        raise ValueError("askey_wilson_P needs n >= 0")
    p.require_horizon(n)
    q, a = p.q, p.a
    x_ab, x_ac, x_ad = a * p.b, a * p.c, a * p.d
    x_s = p.abcd * q ** (n - 1)
    q_inv_n = q**-n
    coeffs = [  # the summands' scalars c_0 .. c_n
        q_pochhammer(x_ab, n, q)
        * q_pochhammer(x_ac, n, q)
        * q_pochhammer(x_ad, n, q)
        / (a**n * q_pochhammer(x_s, n, q))
    ]
    factors = []  # (1 - a q^k z)(1 - a q^k / z) for k < n
    q_k = Fraction(1)  # q^k
    for k in range(n):
        aq = a * q_k
        factors.append({1: -aq, 0: 1 + aq * aq, -1: -aq})
        coeffs.append(coeffs[-1] * (1 - x_s * q_k) * (1 - q_inv_n * q_k) * q / (
            (1 - x_ab * q_k) * (1 - x_ac * q_k) * (1 - x_ad * q_k)
            * (1 - q_k * q)))
        q_k *= q
    total = ref.clean({0: coeffs[n]})
    for k in range(n - 1, -1, -1):
        total = ref.add({0: coeffs[k]}, ref.mul(factors[k], total))
    return LaurentPoly(total)
