"""Reference Laurent arithmetic on plain {degree: Fraction} dicts.

The oracle for awlab.laurent: every operation works coefficient by
coefficient over Fraction, with no shared denominator, so it shares no
code or representation with the integer-numerator LaurentPoly.  Results
never hold zero coefficients.  `substitute` names its four monomial-wise
substitutions by its own rule strings: SUB_INV (z -> 1/z) and
SUB_Q_OVER_Z (z -> q/z), which the package's `reflect(u)` makes at u = 1
and u = q, and the q-shifts SUB_QZ (z -> qz) and SUB_Z_OVER_Q (z -> z/q),
which the package does not need.
"""

from __future__ import annotations

from fractions import Fraction

SUB_INV = "1/z"
SUB_Q_OVER_Z = "q/z"
SUB_QZ = "q*z"
SUB_Z_OVER_Q = "z/q"

Poly = dict[int, Fraction]


class RefNotDivisible(ArithmeticError):
    def __init__(self, remainder: Poly):
        super().__init__(remainder)
        self.remainder = remainder


def clean(f: dict) -> Poly:
    return {k: Fraction(v) for k, v in f.items() if v}


def add(f: Poly, g: Poly) -> Poly:
    out = dict(f)
    for k, v in g.items():
        out[k] = out.get(k, Fraction(0)) + v
    return clean(out)


def neg(f: Poly) -> Poly:
    return {k: -v for k, v in f.items()}


def sub(f: Poly, g: Poly) -> Poly:
    return add(f, neg(g))


def mul(f: Poly, g: Poly) -> Poly:
    out: Poly = {}
    for k1, v1 in f.items():
        for k2, v2 in g.items():
            out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + v1 * v2
    return clean(out)


def scale(f: Poly, c) -> Poly:
    return clean({k: v * Fraction(c) for k, v in f.items()})


def substitute(f: Poly, rule: str, q=None) -> Poly:
    if rule == SUB_INV:
        return {-k: v for k, v in f.items()}
    q = Fraction(q)
    if rule == SUB_QZ:
        return {k: v * q**k for k, v in f.items()}
    if rule == SUB_Z_OVER_Q:
        return {k: v * q**-k for k, v in f.items()}
    if rule == SUB_Q_OVER_Z:
        return {-k: v * q**k for k, v in f.items()}
    raise ValueError(rule)


def exact_quotient(num: Poly, den: Poly) -> Poly:
    """Long division from the top degree down; RefNotDivisible on failure.

    It stops, with the remainder at that point, as soon as the next
    quotient term would fall below min(num) - min(den).
    """
    if not num:
        return {}
    rem = dict(num)
    out: Poly = {}
    d_max = max(den)
    min_exp = min(num) - min(den)
    while rem:
        r_max = max(rem)
        k = r_max - d_max
        if k < min_exp:
            raise RefNotDivisible(rem)
        c = rem[r_max] / den[d_max]
        out[k] = c
        rem = sub(rem, {dk + k: c * dv for dk, dv in den.items()})
    return out
