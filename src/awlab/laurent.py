"""Sparse exact Laurent polynomials in one variable z, and kernels on them.

A LaurentPoly is an immutable polynomial with rational coefficients, stored
as integer numerators {degree: int} over one integer denominator, with
no numerator zero.  Its canonical form, which is unique, has a positive
denominator coprime to the content (the gcd of the numerators), and zero
has denominator 1.  The kernels `reflection_difference` and `q_difference`
and the sum `combination` return their exact numerators over the
denominator they formed, unreduced (it may even be negative), so a value
that is only zero-tested, like an identity's residual, pays for no gcd
pass.  `canonical` reduces a value in place, once; `==`, `hash` and
`scale` call it first.  `+`, `-`, `*`, `exact_quotient`, the q/z
substitution and the constructor reduce each result.  `coeff`, `items`,
the constructor and the JSON and text forms speak Fraction, so no reader
outside this module sees which form a value is in.

The two substitutions act monomial-wise:

    z -> 1/z :  z^k -> z^-k             z -> q/z :  z^k -> q^k z^-k

`reflection_difference` and `q_difference`, the kernels of the operator
layer's T0, T1, D and D', take a `Plan` of an operator's integer constants
at a point and divide dense integer lists by binomials A z^2 + B.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .scalars import Scalar, format_scalar, parse_scalar

SUB_INV = "1/z"
SUB_Q_OVER_Z = "q/z"

_ZERO = Fraction(0)


class NotDivisibleError(ArithmeticError):
    """Exact Laurent division left a nonzero remainder."""

    def __init__(self, remainder: "LaurentPoly"):
        super().__init__(f"division leaves nonzero remainder {remainder}")
        self.remainder = remainder


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
    common denominator; `_canonical` is False while the pair may not be
    in canonical form.
    """

    __slots__ = ("_num", "_den", "_canonical")

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
        self._den, self._canonical = den, True

    @classmethod
    def _raw(cls, num: dict[int, int], den: int,
             canonical: bool = True) -> "LaurentPoly":
        # internal fast path: num holds no zeros, den is nonzero, and the
        # pair is in canonical form unless canonical is False
        self = object.__new__(cls)
        self._num, self._den, self._canonical = num, den, canonical
        return self

    @classmethod
    def _reduced(cls, num: dict[int, int], den: int) -> "LaurentPoly":
        """Canonical form of num/den; num holds no zeros, den is nonzero."""
        return cls._raw(num, den, False).canonical()

    def canonical(self) -> "LaurentPoly":
        """This value, brought to canonical form in place if it is not."""
        if not self._canonical:
            num, den = self._num, self._den
            if den < 0:
                den = -den
                num = {k: -v for k, v in num.items()}
            g = _gcd_with(den, num.values())
            if g != 1:
                # an empty num leaves g == den: zero gets the denominator 1
                num, den = {k: v // g for k, v in num.items()}, den // g
            self._num, self._den, self._canonical = num, den, True
        return self

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
        self.canonical()
        other.canonical()
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        self.canonical()
        return hash((self._den, frozenset(self._num.items())))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({k: -v for k, v in self._num.items()},
                                self._den, self._canonical)

    def __add__(self, other) -> "LaurentPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        return self._plus(other, -1)

    def _plus(self, other, sign: int) -> "LaurentPoly":
        """self + sign * other, in one pass over other's terms."""
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not other._num:
            return self
        if not self._num:
            return other if sign == 1 else -other
        d1, d2 = self._den, other._den
        g = gcd(d1, d2)
        m1, m2 = d2 // g, sign * (d1 // g)
        d = dict(self._num) if m1 == 1 else {k: v * m1 for k, v in self._num.items()}
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

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        # a factor z^e shifts the other factor's degrees by e
        for mono, f in ((other, self), (self, other)):
            if mono._den == 1 and len(mono._num) == 1 and 1 in mono._num.values():
                e, = mono._num
                return LaurentPoly._raw({k + e: v for k, v in f._num.items()},
                                        f._den, f._canonical)
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
        if type(c) is not Fraction:
            c = Fraction(c)
        if not c:
            return LaurentPoly.zero()
        n, d = c.numerator, c.denominator
        if not self._canonical:
            return LaurentPoly._reduced(
                {k: v * n for k, v in self._num.items()}, self._den * d)
        # both factors are in lowest terms, so the result's gcd splits into
        # gcd(c's numerator, den) and gcd(content, c's denominator)
        g_n = gcd(n, self._den)
        g_d = _gcd_with(d, self._num.values())
        n //= g_n
        return LaurentPoly._raw({k: v // g_d * n for k, v in self._num.items()},
                                self._den // g_n * (d // g_d))

    def substitute(self, rule: str, q: Scalar | None = None) -> "LaurentPoly":
        """Apply one of the monomial-wise substitutions named above."""
        if rule == SUB_INV:
            return LaurentPoly._raw({-k: v for k, v in self._num.items()},
                                    self._den, self._canonical)
        if rule != SUB_Q_OVER_Z:
            raise ValueError(f"unknown substitution rule {rule!r}")
        if q is None:
            raise ValueError(f"substitution {rule!r} needs the scalar q")
        q = Fraction(q)
        if q == 0:
            raise ValueError("substitution needs q != 0")
        if not self._num:
            return self
        # z^k picks up the factor (qn/qd)^k and moves to degree -k, over one
        # denominator qn^lo * qd^hi for every degree in [-lo, hi]
        qn, qd = q.numerator, q.denominator
        lo = max(0, -min(self._num))
        hi = max(0, max(self._num))
        return LaurentPoly._reduced(
            {-k: v * qn ** (k + lo) * qd ** (hi - k)
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


def combination(terms) -> LaurentPoly:
    """The sum of c f over the (c, f) pairs in terms, c an int or Fraction,
    unreduced: one pass sums integer numerators over the lcm of the terms'
    denominators, and no gcd touches a numerator.  A sum that cancels is
    the canonical zero."""
    parts = [(c.numerator, c.denominator * f._den, f._num)
             for c, f in terms if c and f._num]
    if not parts:
        return LaurentPoly.zero()
    den = lcm(*[d for _, d, _ in parts])
    (n, d, num), *rest = parts
    m = n * (den // d)
    out = dict(num) if m == 1 else {k: v * m for k, v in num.items()}
    for n, d, num in rest:
        m = n * (den // d)
        for k, v in num.items():
            out[k] = out.get(k, 0) + v * m
    out = {k: v for k, v in out.items() if v}
    return LaurentPoly._raw(out, den, False) if out else LaurentPoly.zero()


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


class Plan:
    """One operator's constants at one point, as integers: q = qn/qd, the
    tables pn[i] = qn^i and pd[i] = qd^i, grown as far as a call needs, and
    t and qd times its numerator's coefficients (from z^0 up) over den."""

    __slots__ = ("qn", "qd", "pn", "pd", "t", "num", "den")

    def __init__(self, q: Scalar, num, t: Scalar = _ZERO):
        q, t, num = Fraction(q), Fraction(t), [Fraction(c) for c in num]
        self.qn, self.qd, self.pn, self.pd = q.numerator, q.denominator, [1], [1]
        self.den = lcm(t.denominator, *(c.denominator for c in num))
        self.t = t.numerator * (self.den // t.denominator)
        self.num = [c.numerator * (self.den // c.denominator) * self.qd for c in num]

    def scaled_shift(self, fl: list[int], K: int) -> tuple[list[int], int]:
        """s f(qz) and s = (qn qd)^K, for f listed over degrees -K..K; the
        factor of z^k is q^k s = qn^(K+k) qd^(K-k)."""
        pn, pd = self.pn, self.pd
        while len(pn) <= 2 * K:
            pn.append(pn[-1] * self.qn)
            pd.append(pd[-1] * self.qd)
        return [v * a * b for v, a, b in zip(fl, pn, pd[2 * K::-1])], pn[K] * pd[K]


def _dense(F: dict[int, int]) -> tuple[list[int], int]:
    """F's numerators listed over degrees -K..K, and K >= 1."""
    K = max(1, -min(F), max(F))
    fl = [0] * (2 * K + 1)
    for k, v in F.items():
        fl[k + K] = v
    return fl, K


def _times(poly: list[int], seq: list[int]) -> list[int]:
    """poly(z) seq(z), both listed lowest degree first."""
    out = [0] * (len(poly) + len(seq) - 1)
    for j, c in enumerate(poly):
        if c:
            for i, v in enumerate(seq, j):
                out[i] += c * v
    return out


def _binomial_quotient(r: list[int], lo: int, A: int, B: int) -> list[int]:
    """r / (A z^2 + B), r listed from degree lo up, divided from the top.
    A z^2 + B is primitive, so by Gauss's lemma an inexact step or a
    remainder proves that no quotient exists; exact_quotient then raises
    NotDivisibleError, with the remainder, on the same dividend."""
    quot = [0] * len(r)  # its top two entries stay 0
    inexact = 0
    if A in (1, -1):
        for j in range(len(r) - 3, -1, -1):
            quot[j] = A * (r[j + 2] - B * quot[j + 2])
    else:
        for j in range(len(r) - 3, -1, -1):
            quot[j], inexact = divmod(r[j + 2] - B * quot[j + 2], A)
            if inexact:
                break
    if inexact or r[0] != B * quot[0] or r[1] != B * quot[1]:
        exact_quotient(LaurentPoly._raw({k: v for k, v in enumerate(r, lo) if v}, 1),
                       LaurentPoly._raw({2: A, 0: B}, 1))
        raise AssertionError("exact_quotient divided what the kernel could not")
    return quot[:-2]


def reflection_difference(f: LaurentPoly, plan: Plan) -> LaurentPoly:
    """t f + num(z) (f(q/z) - f(z)) / (z^2 - q) by the plan; f(q/z) - f(z)
    vanishes where z^2 = q, so the division is exact."""
    F, n = f._num, f._den
    if not F:
        return f
    fl, K = _dense(F)
    if plan.qn == plan.qd:  # q = 1: f(1/z) is fl reversed
        s, diff = 1, [a - b for a, b in zip(reversed(fl), fl)]
    else:  # s f(q/z) is s f(qz) reversed
        up, s = plan.scaled_shift(fl, K)
        diff = [u - s * v for u, v in zip(reversed(up), fl)]
    # z^2 - q = (qd z^2 - qn) / qd, and plan.num carries the qd
    quot = _binomial_quotient(diff, -K, plan.qd, -plan.qn)
    ts = plan.t * s
    out = [ts * v + w for v, w in zip(fl, _times(plan.num, quot))]
    return LaurentPoly._raw({k: v for k, v in enumerate(out, -K) if v},
                            plan.den * s * n, False)


def q_difference(f: LaurentPoly, plan: Plan, one_sided: bool) -> LaurentPoly:
    """[N(z) g - z^m N(1/z) h] / (1 - z^2), N the plan's numerator (degree m),
    g = (f(qz) - f(1/z)) / (1 - q z^2) and h = (f(q/z) - f(z)) / (z^2 - q)
    if one_sided, else f(z) for f(1/z) and f(z/q) for f(q/z).  Each q-pole
    cancels in its own term; the terms agree at z = +-1 (f symmetric if not
    one_sided)."""
    F, n = f._num, f._den
    if not F:
        return f
    fl, K = _dense(F)
    up, s = plan.scaled_shift(fl, K)
    sf = [s * v for v in fl]
    if one_sided:
        g = [u - w for u, w in zip(up, reversed(sf))]
        h = [u - w for u, w in zip(reversed(up), sf)]
    else:  # s f(z/q) is s f(qz) of f(1/z), reversed
        down, _ = plan.scaled_shift(fl[::-1], K)
        g = [u - w for u, w in zip(up, sf)]
        h = [u - w for u, w in zip(reversed(down), sf)]
    # 1 - q z^2 = (qd - qn z^2) / qd, z^2 - q = (qd z^2 - qn) / qd, and
    # plan.num carries the qd
    g = _binomial_quotient(g, -K, -plan.qn, plan.qd)
    h = _binomial_quotient(h, -K, plan.qd, -plan.qn)
    out = [a - b for a, b in zip(_times(plan.num, g), _times(plan.num[::-1], h))]
    # exact_quotient takes the last division, so the benchmark's tracer,
    # which spans it, still measures the operator layer's divisions
    out = LaurentPoly._raw({k: v for k, v in enumerate(out, -K) if v}, 1)
    return LaurentPoly._raw(
        exact_quotient(out, LaurentPoly._raw({0: 1, 2: -1}, 1))._num,
        n * s * plan.den, False)
