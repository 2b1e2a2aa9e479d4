"""Reference closed forms, in Fraction arithmetic.

The oracle for awlab.scalars, which forms its closed forms on integer
numerators and denominators from a per-point table of the powers of q.
These are the formulas written out over `fractions.Fraction`, one
operation at a time, with q^j taken by `**`:
an integer slip in the package (a wrong power, a swapped numerator and
denominator, a sign lost with a negative q) gives a different value here.
"""

from __future__ import annotations

from fractions import Fraction

from awlab.scalars import ParamSet


def lambda_n(n: int, p: ParamSet) -> Fraction:
    m = abs(n)
    return (p.q**-m - 1) * (1 - p.abcd * p.q ** (m - 1))


def mu_n(n: int, p: ParamSet) -> Fraction:
    if n < 0:
        return p.q**n
    return p.q ** (n - 1) * p.abcd


def alpha_n(n: int, p: ParamSet) -> Fraction:
    q, a, b, c, d, abcd = p.q, p.a, p.b, p.c, p.d, p.abcd
    mid_num = a * (1 - b * c * q ** (n - 1)) * (1 - b * d * q ** (n - 1)) \
        * (1 - c * d * q ** (n - 1)) * (1 - q**n)
    mid_den = (1 - abcd * q ** (2 * n - 2)) * (1 - abcd * q ** (2 * n - 1))
    top_num = (1 - a * b * q**n) * (1 - a * c * q**n) * (1 - a * d * q**n) \
        * (1 - abcd * q ** (n - 1))
    top_den = a * (1 - abcd * q ** (2 * n - 1)) * (1 - abcd * q ** (2 * n))
    return a + 1 / a - mid_num / mid_den - top_num / top_den


def c_n(n: int, p: ParamSet) -> Fraction:
    q, a, b, c, d, abcd = p.q, p.a, p.b, p.c, p.d, p.abcd
    num = (1 - q**n) * (1 - abcd * q ** (n - 2))
    for xy in (a * b, a * c, a * d, b * c, b * d, c * d):
        num *= 1 - xy * q ** (n - 1)
    den = (1 - abcd * q ** (2 * n - 3)) * (1 - abcd * q ** (2 * n - 2)) ** 2 \
        * (1 - abcd * q ** (2 * n - 1))
    return num / den


def beta_n(n: int, p: ParamSet) -> Fraction:
    a, b, c, d = p.a, p.b, p.c, p.d
    e1 = a + b + c + d
    e3 = a * b * c + a * b * d + a * c * d + b * c * d
    m_prev, m_neg = mu_n(n - 1, p), mu_n(-n, p)
    return ((lambda_n(n, p) + 1 - m_prev) * e1 - (1 - m_prev) * e3) \
        / (m_prev - m_neg)


def kappa_n(n: int, p: ParamSet) -> Fraction:
    m_prev, m_neg = mu_n(n - 1, p), mu_n(-n, p)
    return (m_prev * (p.c + p.d) + p.t0 * (p.a + p.b)) / (m_prev - m_neg)

