"""Sparse exact Laurent polynomials in one variable z, and kernels on them.

A LaurentPoly is an immutable polynomial with rational coefficients, stored
as integer numerators {degree: int} over one positive integer denominator.
The form is canonical: the denominator is positive, it is coprime to the
content (the gcd of the numerators), no numerator is zero, and the zero
polynomial has denominator 1.  Arithmetic combines integers and reduces
each result once, so no Fraction is built per coefficient; `coeff`,
`items`, the constructor and the JSON and text forms speak Fraction, and
nothing outside this module sees the integer form.

The four substitutions used by the operator layer act monomial-wise:

    z -> q*z :  z^k -> q^k z^k          z -> 1/z :  z^k -> z^-k
    z -> z/q :  z^k -> q^-k z^k         z -> q/z :  z^k -> q^k z^-k

`reflection_difference` and `q_difference` are the fused kernels behind
the operator layer's T0, T1, D and D': each makes one pass over the
integer numerators, divides only by binomials, through `exact_quotient`
(so a nonzero remainder still raises NotDivisibleError), and reduces its
result once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .scalars import Scalar, format_scalar, parse_scalar

SUB_QZ = "q*z"
SUB_Z_OVER_Q = "z/q"
SUB_INV = "1/z"
SUB_Q_OVER_Z = "q/z"

_ZERO = Fraction(0)


class NotDivisibleError(ArithmeticError):
    """Exact Laurent division left a nonzero remainder."""

    def __init__(self, remainder: "LaurentPoly"):
        super().__init__(f"division leaves nonzero remainder {remainder}")
        self.remainder = remainder


class _BothZero:
    __slots__ = ()

    def __repr__(self) -> str:
        return "BOTH_ZERO"


#: Returned by `proportional` when both arguments are the zero polynomial,
#: so every scalar works and none is distinguished.
BOTH_ZERO = _BothZero()


def _gcd_with(g: int, values) -> int:
    """gcd of g and all of values, stopping as soon as it reaches 1."""
    for v in values:
        g = gcd(g, v)
        if g == 1:
            break
    return g


class LaurentPoly:
    """Immutable sparse Laurent polynomial sum_k (num[k] / den) z^k.

    `_num` maps degree to a nonzero integer numerator and `_den` is the
    common positive denominator, coprime to the numerators' content.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Mapping[int, Scalar | int] | None = None):
        fracs: dict[int, Fraction] = {}
        if coeffs:
            for k, v in coeffs.items():
                if type(v) is not Fraction:
                    v = Fraction(v)
                if v:
                    fracs[int(k)] = v
        # over the lcm of lowest-terms denominators, every prime of the lcm
        # misses some numerator, so the result is already canonical
        den = lcm(*(v.denominator for v in fracs.values()))
        self._num = {k: v.numerator * (den // v.denominator)
                     for k, v in fracs.items()}
        self._den = den

    @classmethod
    def _raw(cls, num: dict[int, int], den: int) -> "LaurentPoly":
        # internal fast path: (num, den) must already be canonical
        self = object.__new__(cls)
        self._num = num
        self._den = den
        return self

    @classmethod
    def _reduced(cls, num: dict[int, int], den: int) -> "LaurentPoly":
        """Canonical form of num/den; num holds no zeros, den is nonzero."""
        if den < 0:
            den = -den
            num = {k: -v for k, v in num.items()}
        g = _gcd_with(den, num.values())
        if g == 1:
            return cls._raw(num, den)
        # an empty num leaves g == den, which gives zero the denominator 1
        return cls._raw({k: v // g for k, v in num.items()}, den // g)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({}, 1)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw({0: 1}, 1)

    @classmethod
    def constant(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "LaurentPoly":
        return cls({degree: coeff})

    def coeff(self, degree: int) -> Fraction:
        v = self._num.get(degree)
        return _ZERO if v is None else Fraction(v, self._den)

    def items(self) -> list[tuple[int, Fraction]]:
        """(degree, coefficient) pairs in increasing degree order."""
        den = self._den
        return [(k, Fraction(v, den)) for k, v in sorted(self._num.items())]

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._num))

    def is_zero(self) -> bool:
        return not self._num

    @property
    def min_deg(self) -> int | None:
        return min(self._num) if self._num else None

    @property
    def max_deg(self) -> int | None:
        return max(self._num) if self._num else None

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({k: -v for k, v in self._num.items()}, self._den)

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not other._num:
            return self
        if not self._num:
            return other
        d1, d2 = self._den, other._den
        g = gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        if m1 == 1:
            d = dict(self._num)
        else:
            d = {k: v * m1 for k, v in self._num.items()}
        for k, v in other._num.items():
            if m2 != 1:
                v *= m2
            s = d.get(k)
            if s is None:
                d[k] = v
            else:
                s += v
                if s:
                    d[k] = s
                else:
                    del d[k]
        return LaurentPoly._reduced(d, d1 * m1)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for k1, v1 in self._num.items():
            for k2, v2 in other._num.items():
                k = k1 + k2
                s = out.get(k)
                out[k] = v1 * v2 if s is None else s + v1 * v2
        return LaurentPoly._reduced({k: v for k, v in out.items() if v},
                                    self._den * other._den)

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        c = Fraction(c)
        if not c:
            return LaurentPoly.zero()
        # both factors are in lowest terms, so the result's gcd splits into
        # gcd(c's numerator, den) and gcd(content, c's denominator)
        n, d = c.numerator, c.denominator
        g_n = gcd(n, self._den)
        g_d = _gcd_with(d, self._num.values())
        n //= g_n
        return LaurentPoly._raw({k: v // g_d * n for k, v in self._num.items()},
                                self._den // g_n * (d // g_d))

    def substitute(self, rule: str, q: Scalar | None = None) -> "LaurentPoly":
        """Apply one of the monomial-wise substitutions named above."""
        if rule == SUB_INV:
            return LaurentPoly._raw({-k: v for k, v in self._num.items()},
                                    self._den)
        if q is None:
            raise ValueError(f"substitution {rule!r} needs the scalar q")
        q = Fraction(q)
        if q == 0:
            raise ValueError("substitution needs q != 0")
        # z^k picks up the factor (qn/qd)^k and moves to degree sign*k
        if rule == SUB_QZ:
            qn, qd, sign = q.numerator, q.denominator, 1
        elif rule == SUB_Z_OVER_Q:
            qn, qd, sign = q.denominator, q.numerator, 1
        elif rule == SUB_Q_OVER_Z:
            qn, qd, sign = q.numerator, q.denominator, -1
        else:
            raise ValueError(f"unknown substitution rule {rule!r}")
        if not self._num:
            return self
        # one denominator qn^lo * qd^hi for every degree in [-lo, hi]
        lo = max(0, -min(self._num))
        hi = max(0, max(self._num))
        return LaurentPoly._reduced(
            {sign * k: v * qn ** (k + lo) * qd ** (hi - k)
             for k, v in self._num.items()},
            self._den * qn**lo * qd**hi)

    def is_symmetric(self) -> bool:
        """True when the polynomial is invariant under z -> 1/z."""
        return all(self._num.get(-k) == v for k, v in self._num.items())

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for k, v in reversed(self.items()):
            if k == 0:
                term = format_scalar(v)
            else:
                zs = "z" if k == 1 else f"z^{k}"
                if v == 1:
                    term = zs
                elif v == -1:
                    term = f"-{zs}"
                else:
                    term = f"{format_scalar(v)}*{zs}"
            parts.append(term)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.items())!r})"

    def to_json_dict(self) -> dict:
        return {
            "var": "z",
            "coeffs": {str(k): format_scalar(v) for k, v in self.items()},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LaurentPoly":
        if doc.get("var") != "z":
            raise ValueError(f"expected a polynomial in z, got {doc.get('var')!r}")
        return cls({int(k): parse_scalar(v) for k, v in doc["coeffs"].items()})


def exact_quotient(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """The h with h * den == num; NotDivisibleError when none exists.

    Fraction-free long division.  Write num = N/n and den = (c/m) D with
    N, D integer and D primitive (c is the content of den's numerators).
    By Gauss's lemma, if D divides N over Q then the quotient N/D has
    integer coefficients; so every step of the division of N by D is an
    exact integer divmod, and h = (m/(n c)) N/D is formed once at the end.
    A step with a nonzero integer remainder proves that no quotient exists;
    the division then goes on over Q, only so that the error carries the
    remainder that rational long division leaves.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero()
    content = _gcd_with(0, den._num.values())
    d_max = den.max_deg
    d_lead = den._num[d_max] // content
    d_tail = [(k - d_max, v // content) for k, v in den._num.items() if k != d_max]
    rem = dict(num._num)
    out: dict[int, int] = {}
    # an exact quotient cannot reach below degree num.min_deg - den.min_deg,
    # so no division step is taken below this remainder degree
    lowest = num.min_deg - den.min_deg + d_max
    for r_deg in range(num.max_deg, lowest - 1, -1):
        r = rem.pop(r_deg, 0)
        if not r:
            continue
        c, inexact = divmod(r, d_lead)
        if inexact:
            # no quotient exists, so the remainder cannot vanish; go on over Q
            c = Fraction(r, d_lead)
        out[r_deg - d_max] = c
        for off, dv in d_tail:
            key = r_deg + off
            rem[key] = rem.get(key, 0) - c * dv
    if not any(rem.values()):
        m = den._den
        return LaurentPoly._reduced({k: v * m for k, v in out.items()},
                                    num._den * content)
    raise NotDivisibleError(LaurentPoly(
        {k: Fraction(v, num._den) for k, v in rem.items()}))


def _q_powers(q: Fraction, lo: int, hi: int) -> tuple[list[int], int]:
    """w and s with q^k = w[k - lo] / s for lo <= k <= hi; lo <= 0 <= hi."""
    qn, qd, r = q.numerator, q.denominator, hi - lo
    pn, pd = [1], [1]
    for _ in range(r):
        pn.append(pn[-1] * qn)
        pd.append(pd[-1] * qd)
    return [pn[i] * pd[r - i] for i in range(r + 1)], pn[-lo] * pd[hi]


def _divide(d: dict[int, int], divisor: dict[int, int]) -> dict[int, int]:
    """d / divisor through exact_quotient; both integer, divisor primitive."""
    num = LaurentPoly._raw({k: v for k, v in d.items() if v}, 1)
    return exact_quotient(num, LaurentPoly._raw(divisor, 1))._num


def _mul_into(out: dict[int, int], poly: list[int], d: dict[int, int]) -> None:
    """out += poly(z) d(z), with poly's coefficients listed from z^0 up."""
    for j, c in enumerate(poly):
        if c:
            for k, v in d.items():
                out[k + j] = out.get(k + j, 0) + c * v


def reflection_difference(f: LaurentPoly, t: Scalar, num, q: Scalar) -> LaurentPoly:
    """t f + num(z) (f(q/z) - f(z)) / (z^2 - q), num's rational coefficients
    listed from z^0 up, in one pass over f's numerators and one reduction.
    f(q/z) - f(z) vanishes where z^2 = q, so the division is exact."""
    F, n = f._num, f._den
    if not F:
        return f
    lo = min(0, min(F))
    w, s = _q_powers(q, lo, max(0, max(F)))
    diff = {-k: v * w[k - lo] for k, v in F.items()}  # over n s
    for k, v in F.items():
        diff[k] = diff.get(k, 0) - s * v
    # z^2 - q = (qd z^2 - qn) / qd
    quot = _divide(diff, {2: q.denominator, 0: -q.numerator})
    d = lcm(t.denominator, *(c.denominator for c in num))
    out = {k: v * (t.numerator * (d // t.denominator) * s) for k, v in F.items()}
    _mul_into(out, [c.numerator * (d // c.denominator) * q.denominator
                    for c in num], quot)
    return LaurentPoly._reduced({k: v for k, v in out.items() if v}, d * s * n)


def q_difference(f: LaurentPoly, roots, q: Scalar, one_sided: bool) -> LaurentPoly:
    """[N(z) g - z^m N(1/z) h] / (1 - z^2), N = prod (1 - x z) over the m
    rationals x in roots, with g = (f(qz) - f(1/z)) / (1 - q z^2) and
    h = (f(q/z) - f(z)) / (z^2 - q) when one_sided, f(z) in place of f(1/z)
    and f(z/q) in place of f(q/z) otherwise.  Each q-pole cancels inside its
    own term, and the two terms agree at z = +-1 (for symmetric f, when not
    one_sided).  One pass over f's numerators, three binomial divisions
    through exact_quotient and one reduction."""
    F, n = f._num, f._den
    if not F:
        return f
    K = max(-min(F), max(F))
    w, s = _q_powers(q, -K, K)
    g: dict[int, int] = {}  # g and h over n s
    h: dict[int, int] = {}
    for k, v in F.items():
        sv = s * v
        g[k] = g.get(k, 0) + v * w[K + k]
        if one_sided:
            g[-k] = g.get(-k, 0) - sv
            h[-k] = h.get(-k, 0) + v * w[K + k]
        else:
            g[k] -= sv
            h[k] = h.get(k, 0) + v * w[K - k]
        h[k] = h.get(k, 0) - sv
    qn, qd = q.numerator, q.denominator
    ni, nd = [1], 1  # N = ni(z) / nd
    for x in roots:
        ni = [u * x.denominator - x.numerator * v for u, v in zip(ni + [0], [0] + ni)]
        nd *= x.denominator
    out: dict[int, int] = {}
    _mul_into(out, ni, _divide(g, {0: qd, 2: -qn}))
    _mul_into(out, [-c for c in reversed(ni)], _divide(h, {2: qd, 0: -qn}))
    r = _divide(out, {0: 1, 2: -1})
    return LaurentPoly._reduced({k: v * qd for k, v in r.items()}, n * s * nd)


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
