"""Dense exact Laurent polynomials in one variable z, and kernels on them.

A LaurentPoly is an immutable polynomial with rational coefficients, stored
as a list of integer numerators, from its lowest degree up, over one
integer denominator; the list's first and last entries are nonzero, and
zero is the empty list from degree 0.  There is one way to build each
value: the constructor from a mapping of degrees to coefficients, and
`zero()`, `one()` and `monomial(k)` for 0, 1 and z^k; a value is zero
exactly when it is false.  Its canonical form, which is unique, has a
positive denominator coprime to the content (the gcd of the numerators),
and zero has denominator 1.  The kernels `reflection_difference` and
`q_difference` and the sum `combination` return their exact numerators
over the denominator they formed, unreduced (it may even be negative), so
a value that is only zero-tested, like an identity's residual, pays for
no gcd pass.  `canonical` reduces a value in place, once, by one
`math.gcd` of the denominator and the numerators; `==`, `hash` and
`scale` call it first.  There is one arithmetic path: a sum or
difference is a `combination`, a scalar multiple is `scale`, and `*`
multiplies two polynomials; no operator lifts a scalar to a polynomial.
`*`, `scale`, `reflect` at u != 1 and the constructor reduce each
result.  `coeff`, `items`, the constructor and the JSON and text forms
speak Fraction, so no reader outside this module sees which form a
value is in.

The one substitution, `reflect(u)` for a nonzero scalar u, acts
monomial-wise; u = 1 and u = q give the operator layer's involutions
z -> 1/z and z -> q/z:

    z -> u/z :  z^k -> u^k z^-k

`reflection_difference` and `q_difference`, the kernels of the operator
layer's T0, T1, D and D', take a `Plan` of an operator's integer constants
at a point and divide dense integer lists by binomials A z^2 + B, the
only divisions the package makes, all through `exact_quotient`.  A plan
keeps, per padded half-width K, the weights that take f to s f(qz).
`reflection_difference` also takes the diagonal coefficient, an integer
over the plan's denominator, and adds that term in the pass that forms
the numerator's product, so T_i plus any scalar (t_i T_i^{-1}, T0 - t0,
T1 + 1) is one pass of the same kernel.  The two halves of
`q_difference` mirror each other for D' on every input and for D on
symmetric input, so it divides by 1 - q z^2 only once; D's input is
tested for symmetry at each call, and an asymmetric one is refused.

`BasisImages` holds a linear operator's images of a basis for one check
call, and reads f's sum of them off one integer table; `residual` tells
whether a value equals that sum by comparing integer lists, and builds
their difference, as a `combination`, only when it is nonzero.
Coefficients and scalars are exact: a binary float is refused with
TypeError, as `scalars.as_scalar` refuses it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .scalars import Powers, Scalar, as_scalar, format_scalar

_ZERO = Fraction(0)


class NotDivisibleError(ArithmeticError):
    """Exact Laurent division left a nonzero remainder."""

    def __init__(self, remainder: "LaurentPoly"):
        super().__init__(f"division leaves nonzero remainder {remainder}")
        self.remainder = remainder


class LaurentPoly:
    """Immutable dense Laurent polynomial sum_i (num[i] / den) z^(lo + i).

    `_num` lists integer numerators from degree `_lo` up, its first and
    last entries nonzero, and `_den` is the common denominator; zero is
    `_lo, _num, _den = 0, [], 1`.  `_canonical` is False while the triple
    may not be in canonical form.
    """

    __slots__ = ("_lo", "_num", "_den", "_canonical")

    def __init__(self, coeffs: Mapping[int, Scalar | int]):
        fracs: dict[int, Fraction] = {}
        for k, v in coeffs.items():
            if type(v) is not Fraction:
                v = as_scalar("a coefficient", v)
            if v:
                fracs[int(k)] = v
        # over the lcm of lowest-terms denominators, every prime of the lcm
        # misses some numerator, so the result is already canonical
        den = lcm(*(v.denominator for v in fracs.values()))
        lo = min(fracs, default=0)
        num = [0] * (max(fracs, default=-1) - lo + 1)
        for k, v in fracs.items():
            num[k - lo] = v.numerator * (den // v.denominator)
        self._lo, self._num, self._den, self._canonical = lo, num, den, True

    @classmethod
    def _raw(cls, lo: int, num: list[int], den: int,
             canonical: bool = True) -> "LaurentPoly":
        # internal fast path: num's end entries are nonzero (or num is zero's
        # empty list from lo = 0), den is nonzero, and the triple is in
        # canonical form unless canonical is False
        self = object.__new__(cls)
        self._lo, self._num, self._den, self._canonical = lo, num, den, canonical
        return self

    @classmethod
    def _trimmed(cls, lo: int, num: list[int], den: int,
                 canonical: bool = True) -> "LaurentPoly":
        """num/den from degree lo up, with its zero end entries dropped."""
        top = len(num)
        while top and not num[top - 1]:
            top -= 1
        if not top:
            return cls.zero()
        bottom = 0
        while not num[bottom]:
            bottom += 1
        if bottom or top < len(num):
            num = num[bottom:top]
        return cls._raw(lo + bottom, num, den, canonical)

    def canonical(self) -> "LaurentPoly":
        """This value, brought to canonical form in place if it is not."""
        if not self._canonical:
            num, den = self._num, self._den
            if den < 0:
                den = -den
                num = [-v for v in num]
            g = gcd(den, *num)
            if g != 1:
                num, den = [v // g for v in num], den // g
            self._num, self._den, self._canonical = num, den, True
        return self

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw(0, [], 1)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw(0, [1], 1)

    @classmethod
    def monomial(cls, degree: int) -> "LaurentPoly":
        return cls._raw(degree, [1], 1)

    def coeff(self, degree: int) -> Fraction:
        i = degree - self._lo
        v = self._num[i] if 0 <= i < len(self._num) else 0
        return Fraction(v, self._den) if v else _ZERO

    def items(self) -> list[tuple[int, Fraction]]:
        """(degree, coefficient) pairs in increasing degree order."""
        den = self._den
        return [(k, Fraction(v, den)) for k, v in enumerate(self._num, self._lo) if v]

    @property
    def min_deg(self) -> int | None:
        return self._lo if self._num else None

    @property
    def max_deg(self) -> int | None:
        return self._lo + len(self._num) - 1 if self._num else None

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self.canonical()
        other.canonical()
        return (self._lo == other._lo and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        self.canonical()
        return hash((self._lo, self._den, tuple(self._num)))

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._num or not other._num:
            return LaurentPoly.zero()
        # a factor z^e shifts the other factor's degrees by e
        for mono, f in ((other, self), (self, other)):
            if mono._num == [1] and mono._den == 1:
                return LaurentPoly._raw(f._lo + mono._lo, f._num, f._den, f._canonical)
        # the product of nonzero end entries is nonzero: no trimming
        return LaurentPoly._raw(self._lo + other._lo, _times(self._num, other._num),
                                self._den * other._den, False).canonical()

    def scale(self, c) -> "LaurentPoly":
        if type(c) is not Fraction:
            c = as_scalar("c", c)
        if not c:
            return LaurentPoly.zero()
        n, d = c.numerator, c.denominator
        if not self._canonical:
            return LaurentPoly._raw(self._lo, [v * n for v in self._num],
                                    self._den * d, False).canonical()
        # both factors are in lowest terms, so the result's gcd splits into
        # gcd(c's numerator, den) and gcd(content, c's denominator)
        g_n = gcd(n, self._den)
        g_d = gcd(d, *self._num)
        n //= g_n
        return LaurentPoly._raw(self._lo, [v // g_d * n for v in self._num],
                                self._den // g_n * (d // g_d))

    def reflect(self, u: Scalar) -> "LaurentPoly":
        """f(u/z) for a nonzero scalar u: z^k -> u^k z^-k."""
        u = as_scalar("u", u)
        if not u:
            raise ValueError("reflect needs u != 0")
        if not self._num:
            return self
        top = self.max_deg
        if u == 1:
            return LaurentPoly._raw(-top, self._num[::-1], self._den, self._canonical)
        # z^k picks up the factor (un/ud)^k and moves to degree -k, over one
        # denominator un^lo * ud^hi for every degree in [-lo, hi]
        un, ud = u.numerator, u.denominator
        lo, hi = max(0, -self._lo), max(0, top)
        num = [v * un ** (k + lo) * ud ** (hi - k) if v else 0
               for k, v in enumerate(self._num, self._lo)]
        return LaurentPoly._raw(-top, num[::-1], self._den * un**lo * ud**hi,
                                False).canonical()

    def is_symmetric(self) -> bool:
        """True when the polynomial is invariant under z -> 1/z."""
        num = self._num
        return num == num[::-1] and (not num or self._lo == -self.max_deg)

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


def combination(terms) -> LaurentPoly:
    """The sum of c f over the (c, f) pairs in terms, c an int or Fraction,
    unreduced: one pass sums integer numerators over the lcm of the terms'
    denominators, and no gcd touches a numerator.  A sum that cancels is
    the canonical zero."""
    parts = []
    lo = hi = None
    for c, f in terms:
        num = f._num
        if c and num:
            f_lo = f._lo
            f_hi = f_lo + len(num)
            if lo is None or f_lo < lo:
                lo = f_lo
            if hi is None or f_hi > hi:
                hi = f_hi
            parts.append((c.numerator, c.denominator * f._den, f_lo, num))
    if not parts:
        return LaurentPoly.zero()
    den = lcm(*[d for _, d, _, _ in parts])
    out = [0] * (hi - lo)
    for n, d, f_lo, num in parts:
        m = n * (den // d)
        i = f_lo - lo
        j = i + len(num)
        out[i:j] = [a + m * v for a, v in zip(out[i:j], num)]
    return LaurentPoly._trimmed(lo, out, den, False)


class BasisImages:
    """The images op(basis(k)) of a linear operator on a basis, for one
    check call, and the sums read off them.

    Calling it with k gives op(basis(k)), computed at the first call and
    kept, so op runs once per k, in the order the k are first asked for.
    `read_off` and `residual` take the sum of f_k op(basis(k)) over the
    terms f_k z^k of f (those with k >= lowest, if it is given) from a
    table: every image's numerators as an integer row over the lcm of
    the images' denominators, from one lowest degree.  The table is built
    at the first read-off and again after an image has been added.  It
    lives and dies with this object, so an image of an operator that was
    swapped since is never read.
    """

    __slots__ = ("_op", "_basis", "_held", "_table")

    def __init__(self, op, basis):
        self._op, self._basis, self._held, self._table = op, basis, {}, None

    def __call__(self, k: int) -> LaurentPoly:
        image = self._held.get(k)
        if image is None:
            image = self._held[k] = self._op(self._basis(k))
        return image

    def _rows(self) -> tuple:
        """The table (images, lo, width, den, rows): rows[k] = (i, j, row),
        image k's numerators over den at places i..j-1 of a list over
        degrees lo .. lo + width - 1; built again when an image has been
        added since."""
        held, table = self._held, self._table
        if table is None or table[0] != len(held):
            images = [g for g in held.values() if g._num]
            den = lcm(*[g._den for g in images])
            lo = min([g._lo for g in images], default=0)
            width = max([g._lo + len(g._num) for g in images], default=lo) - lo
            rows = {}
            for k, g in held.items():
                i, m = g._lo - lo, den // g._den
                rows[k] = (i, i + len(g._num), [m * v for v in g._num])
            table = self._table = (len(held), lo, width, den, rows)
        return table

    def _sum(self, f: LaurentPoly, lowest: int | None) -> tuple[int, list[int], int]:
        """(lo, out, den): the read-off sum as numerators out from degree
        lo up over den, the table's denominator times f's."""
        _, lo, width, den, rows = self._rows()
        start = 0 if lowest is None else max(0, lowest - f._lo)
        num = f._num[start:] if start else f._num
        out = [0] * width
        try:
            for k, n in enumerate(num, f._lo + start):
                if n:
                    i, j, row = rows[k]
                    out[i:j] = [a + n * v for a, v in zip(out[i:j], row)]
        except KeyError:  # an image not made yet: make each missing one, in order
            for k, n in enumerate(num, f._lo + start):
                if n:
                    self(k)
            return self._sum(f, lowest)
        return lo, out, den * f._den

    def read_off(self, f: LaurentPoly, lowest: int | None = None) -> LaurentPoly:
        """The sum of f_k op(basis(k)), unreduced."""
        return LaurentPoly._trimmed(*self._sum(f, lowest), False)

    def residual(self, value: LaurentPoly, f: LaurentPoly,
                 lowest: int | None = None) -> LaurentPoly:
        """value minus the read-off sum: zero when op is linear on f and
        value = op(f).  The two are compared as integer lists, value's
        numerators times the sum's denominator against the sum's times
        value's, and the sum zero outside value's degrees; only when they
        differ is the difference built, as one `combination`."""
        lo, out, den = self._sum(f, lowest)
        vnum, vden = value._num, value._den
        i = value._lo - lo if vnum else 0
        j = i + len(vnum)
        if (0 <= i and j <= len(out) and not any(out[:i]) and not any(out[j:])
                and [v * den for v in vnum] == [a * vden for a in out[i:j]]):
            return LaurentPoly.zero()
        return combination(((1, value), (-1, LaurentPoly._trimmed(lo, out, den, False))))


class Plan:
    """One operator's constants at one point, as integers: q = qn/qd and
    its power table pw (the point's own, `scalars.powers`, when q is the
    point's q), and t and qd times its numerator's coefficients (from z^0
    up) over den.  For each padded half-width K it keeps the weights that
    take a list over degrees -K..K to s f(qz), made at K's first use."""

    __slots__ = ("pw", "qn", "qd", "t", "num", "den", "_weights")

    def __init__(self, pw: Powers, num, t: Scalar = _ZERO):
        self.pw, self.qn, self.qd = pw, pw.qn, pw.qd
        t, num = Fraction(t), [Fraction(c) for c in num]
        self.den = lcm(t.denominator, *(c.denominator for c in num))
        self.t = t.numerator * (self.den // t.denominator)
        self.num = [c.numerator * (self.den // c.denominator) * self.qd for c in num]
        self._weights = {}

    def weights(self, K: int) -> list[int]:
        """qn^i qd^(2K-i) for i = 0..2K: the factor q^k s of z^k in s f(qz),
        f listed over degrees -K..K, with s = (qn qd)^K the middle one."""
        w = self._weights.get(K)
        if w is None:
            pn, pd = self.pw.upto(2 * K)
            w = self._weights[K] = [a * b for a, b in zip(pn, pd[2 * K::-1])]
        return w


def _padded(f: LaurentPoly) -> tuple[list[int], int]:
    """f's numerators listed over degrees -K..K, and K >= 1."""
    lo, hi = f._lo, f.max_deg
    K = max(1, -lo, hi)
    return [0] * (K + lo) + f._num + [0] * (K - hi), K


def _times(poly: list[int], seq: list[int]) -> list[int]:
    """poly(z) seq(z), both listed lowest degree first."""
    out = [0] * (len(poly) + len(seq) - 1)
    for j, c in enumerate(poly):
        if c:
            for i, v in enumerate(seq, j):
                out[i] += c * v
    return out


def exact_quotient(r: list[int], lo: int, A: int, B: int) -> list[int]:
    """r / (A z^2 + B), r listed from degree lo up, divided from the top;
    the quotient is listed from degree lo up, two entries shorter.
    A z^2 + B is primitive, so by Gauss's lemma an inexact step or a
    remainder proves that no quotient exists.  The division is then redone
    over Q from r's lowest nonzero entry, and NotDivisibleError carries
    the remainder it leaves there."""
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
        low = next(i for i, v in enumerate(r) if v)
        rem = [Fraction(v) for v in r[low:]]
        for j in range(len(rem) - 3, -1, -1):
            rem[j] -= B * rem[j + 2] / A
        raise NotDivisibleError(LaurentPoly(dict(enumerate(rem[:2], lo + low))))
    return quot[:-2]


def reflection_difference(f: LaurentPoly, plan: Plan, diag: int) -> LaurentPoly:
    """(diag / plan.den) f + num(z) (f(q/z) - f(z)) / (z^2 - q) by the plan,
    whose num(z) has degree 2; f(q/z) - f(z) vanishes where z^2 = q, so the
    division is exact.  With diag = plan.t this is the plan's operator T,
    and T + c for any scalar c is the same pass with diag = plan.t +
    c plan.den; diag = 0 leaves out the diagonal term."""
    if not f._num:
        return f
    fl, K = _padded(f)
    if plan.qn == plan.qd:  # q = 1: f(1/z) is fl reversed
        s, diff = 1, [a - b for a, b in zip(reversed(fl), fl)]
    else:  # s f(q/z) is s f(qz) reversed
        w = plan.weights(K)
        s = w[K]
        diff = [u * x - s * v for u, x, v in zip(reversed(fl), reversed(w), fl)]
    # z^2 - q = (qd z^2 - qn) / qd, and plan.num carries the qd
    quot = [0, 0, *exact_quotient(diff, -K, plan.qd, -plan.qn), 0, 0]
    # num(z) quot(z) and the diagonal term in one pass, quot shifted by
    # 0, 1 and 2 against num's three coefficients
    n0, n1, n2 = plan.num
    ds = diag * s
    out = [n0 * a + n1 * b + n2 * c + ds * v
           for a, b, c, v in zip(quot[2:], quot[1:], quot, fl)]
    return LaurentPoly._trimmed(-K, out, plan.den * s * f._den, False)


def q_difference(f: LaurentPoly, plan: Plan, one_sided: bool) -> LaurentPoly:
    """[N(z) g - z^m N(1/z) h] / (1 - z^2), N the plan's numerator (degree m),
    g = (f(qz) - f(1/z)) / (1 - q z^2) and h = (f(q/z) - f(z)) / (z^2 - q)
    if one_sided, else f(z) for f(1/z) and f(z/q) for f(q/z).  Each q-pole
    cancels in its own term; the terms agree at z = +-1 (f symmetric if not
    one_sided).

    One-sided, h = z^-2 g(1/z) for every f, so z^m N(1/z) h is X = N g
    listed in reverse and the numerator is X - reversed(X): one quotient
    and one product.  Two-sided, g and h are the one-sided ones when f is
    symmetric, which is decided at each call from f's padded list, never
    from a flag; an asymmetric f (only possible past apply_D's guard) is
    outside D's domain and raises NotDivisibleError with its antisymmetric
    part f - f(1/z) as the remainder."""
    if not f._num:
        return f
    fl, K = _padded(f)
    if not one_sided and fl != fl[::-1]:
        raise NotDivisibleError(LaurentPoly._trimmed(
            -K, [a - b for a, b in zip(fl, reversed(fl))], f._den))
    w = plan.weights(K)
    s = w[K]
    # 1 - q z^2 = (qd - qn z^2) / qd, and plan.num carries the qd
    g = [v * x - s * u for v, x, u in zip(fl, w, reversed(fl))]
    x = _times(plan.num, exact_quotient(g, -K, -plan.qn, plan.qd))
    out = exact_quotient([a - b for a, b in zip(x, reversed(x))], -K, -1, 1)
    return LaurentPoly._trimmed(-K, out, f._den * s * plan.den, False)
