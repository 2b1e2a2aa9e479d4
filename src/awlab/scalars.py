"""Exact rational scalars and the certified parameter points they live on.

Every scalar in this package is an exact `fractions.Fraction`, so equality
means equality and a zero residual is exactly the zero polynomial.  This
module owns parsing and formatting of rationals, the genericity conditions
G1..G6 that keep every downstream denominator nonzero, and the closed-form
scalar families attached to a parameter point: operator eigenvalues and the
coefficients of the raising and lowering relations.  It also owns `memo`,
the one accessor of a point's store, so that every layer (the operator
plans, the polynomials, the checks' shared ingredients) reaches the store
without importing a layer above its own.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

Scalar = Fraction

_RATIONAL_RE = re.compile(r"^-?\d+(?:/[1-9]\d*)?$")


class GenericityError(ValueError):
    """A parameter point violates one of the genericity conditions G1..G6."""

    def __init__(self, condition: str, detail: str):
        super().__init__(f"{condition}: {detail}")
        self.condition = condition
        self.detail = detail


class HorizonError(ValueError):
    """An index lies beyond the horizon a parameter set was certified for."""


def parse_scalar(text: str) -> Scalar:
    """Parse the canonical rational form "p/q" (or plain "p").

    The denominator, when present, must be a positive integer literal, so
    floats, "1/-2", "1/0" and scientific notation are all rejected.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational in p/q form: {text!r}")
    return Fraction(s)


def format_scalar(x: Scalar | int) -> str:
    """Canonical string form: "p/q" in lowest terms, or "p" for integers."""
    return str(Fraction(x))


def _as_scalar(name: str, value) -> Scalar:
    if isinstance(value, float):
        raise TypeError(f"{name} must be an exact rational, not a float")
    return Fraction(value)


class ParamSet:
    """A certified parameter point (q, a, b, c, d) with horizon n_max.

    Construct through `check_genericity`; the constructor itself only derives
    the deformation scalars t0 = -cd/q and t1 = -ab and the product abcd.
    Instances are immutable and hashable on (q, a, b, c, d, n_max); the hash
    is computed once, here.  `memo` is the point's store of what has been
    built at it, read through `memo` below: it belongs to this object, not
    to every equal point, takes no part in equality, hashing or pickling,
    and is freed with the point.
    """

    __slots__ = ("q", "a", "b", "c", "d", "n_max", "t0", "t1", "abcd", "_hash",
                 "memo")

    def __init__(self, q: Scalar, a: Scalar, b: Scalar, c: Scalar, d: Scalar,
                 n_max: int):
        key = (q, a, b, c, d, n_max)
        for name, value in zip(self.__slots__, (*key, -c * d / q, -a * b,
                                                a * b * c * d, hash(key), {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a ParamSet")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a ParamSet")

    def _key(self) -> tuple:
        return (self.q, self.a, self.b, self.c, self.d, self.n_max)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"ParamSet(q={self.q!r}, a={self.a!r}, b={self.b!r}, "
                f"c={self.c!r}, d={self.d!r}, n_max={self.n_max!r})")

    def __reduce__(self):
        return (ParamSet, self._key())

    def require_horizon(self, n: int) -> None:
        if abs(n) > self.n_max:
            raise HorizonError(
                f"index {n} is beyond the certified horizon n_max={self.n_max}"
            )

    def as_json_dict(self) -> dict:
        return {
            "q": format_scalar(self.q),
            "a": format_scalar(self.a),
            "b": format_scalar(self.b),
            "c": format_scalar(self.c),
            "d": format_scalar(self.d),
            "nmax": self.n_max,
        }


def memo(name: str, build, n: int | None, p: ParamSet):
    """build(n, p), computed once per point object and kept in p.memo.

    The store lives on the point, so it is freed with it; an equal point
    certified anew starts empty.  `build` is passed in by the caller, so a
    wrapper bound over its module-level name sees every first build.
    """
    key = (name, n)
    value = p.memo.get(key)
    if value is None:
        value = p.memo[key] = build(n, p)
    return value


def _mu_value(n: int, q: Scalar, abcd: Scalar) -> Scalar:
    if n < 0:
        return q**n
    return q ** (n - 1) * abcd


def _lambda_value(n: int, q: Scalar, abcd: Scalar) -> Scalar:
    m = abs(n)
    return (q**-m - 1) * (1 - abcd * q ** (m - 1))


def check_genericity(q, a, b, c, d, n_max: int) -> ParamSet:
    """Certify a parameter point, reporting the first violated condition.

    G1  q is not 0, 1 or -1 (with rational q this rules out all roots of 1).
    G2  a, b, c, d are nonzero.
    G3  abcd * q^j != 1 for -2 <= j <= 2*n_max + 2.  The two negative
        exponents cover n = 0: the closed form of alpha_0 divides by
        (1 - abcd q^-2)(1 - abcd q^-1), and at abcd = q the eigenvalue
        mu_0 = abcd/q is 1, so the n = 0 projection and Hecke raising
        multiples vanish.  Such points are rejected, not special-cased.
        The range holds every denominator of the recurrence scalars that
        build P_n: alpha_n divides by 1 - abcd q^j for j = 2n-2 .. 2n
        (0 <= n <= n_max), and c_n by 1 - abcd q^j for j = 2n-3 .. 2n-1
        (1 <= n <= n_max).
    G4  (xy) * q^j != 1 for every pair xy from {ab, ac, ad, bc, bd, cd} and
        0 <= j <= n_max.
    G5  the mu_n are pairwise distinct for -n_max-1 <= n <= n_max+1.
    G6  the lambda_n are pairwise distinct for 0 <= n <= n_max+1.
    """
    q = _as_scalar("q", q)
    named = {"a": _as_scalar("a", a), "b": _as_scalar("b", b),
             "c": _as_scalar("c", c), "d": _as_scalar("d", d)}
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if q in (0, 1, -1):
        raise GenericityError("G1", f"q must avoid 0 and 1 and -1 (q={format_scalar(q)})")
    for name, v in named.items():
        if v == 0:
            raise GenericityError("G2", f"{name} must be nonzero")
    a, b, c, d = named["a"], named["b"], named["c"], named["d"]
    abcd = a * b * c * d
    for j in range(-2, 2 * n_max + 3):
        if abcd * q**j == 1:
            raise GenericityError("G3", f"abcd*q^{j} = 1")
    pairs = {"ab": a * b, "ac": a * c, "ad": a * d,
             "bc": b * c, "bd": b * d, "cd": c * d}
    for name, v in pairs.items():
        for j in range(n_max + 1):
            if v * q**j == 1:
                raise GenericityError("G4", f"{name}*q^{j} = 1")
    seen_mu: dict[Scalar, int] = {}
    for m in range(-(n_max + 1), n_max + 2):
        v = _mu_value(m, q, abcd)
        if v in seen_mu:
            raise GenericityError("G5", f"mu_{seen_mu[v]} = mu_{m} = {format_scalar(v)}")
        seen_mu[v] = m
    seen_lam: dict[Scalar, int] = {}
    for m in range(n_max + 2):
        v = _lambda_value(m, q, abcd)
        if v in seen_lam:
            raise GenericityError("G6", f"lambda_{seen_lam[v]} = lambda_{m} = {format_scalar(v)}")
        seen_lam[v] = m
    return ParamSet(q, a, b, c, d, n_max)


def lambda_n(n: int, p: ParamSet) -> Scalar:
    """Eigenvalue of the q-difference operator on the degree-|n| symmetric
    polynomial: (q^-|n| - 1)(1 - abcd q^(|n|-1))."""
    return _lambda_value(n, p.q, p.abcd)


def mu_n(n: int, p: ParamSet) -> Scalar:
    """Eigenvalue of Y on the n-th nonsymmetric polynomial: q^n for n < 0 and
    q^(n-1) abcd for n >= 0."""
    return _mu_value(n, p.q, p.abcd)


def alpha_n(n: int, p: ParamSet) -> Scalar:
    """Diagonal coefficient of the three-term recurrence for (z + 1/z) P_n.

    Symmetric in (a, b, c, d) even though the closed form privileges a.
    """
    if n < 0:
        raise ValueError("alpha_n needs n >= 0")
    p.require_horizon(n)
    q, a, b, c, d = p.q, p.a, p.b, p.c, p.d
    abcd = p.abcd
    mid_num = a * (1 - b * c * q ** (n - 1)) * (1 - b * d * q ** (n - 1)) \
        * (1 - c * d * q ** (n - 1)) * (1 - q**n)
    mid_den = (1 - abcd * q ** (2 * n - 2)) * (1 - abcd * q ** (2 * n - 1))
    top_num = (1 - a * b * q**n) * (1 - a * c * q**n) * (1 - a * d * q**n) \
        * (1 - abcd * q ** (n - 1))
    top_den = a * (1 - abcd * q ** (2 * n - 1)) * (1 - abcd * q ** (2 * n))
    return a + 1 / a - mid_num / mid_den - top_num / top_den


def c_n(n: int, p: ParamSet) -> Scalar:
    """Lower coefficient of the three-term recurrence for (z + 1/z) P_n:

    c_n = (1 - q^n)(1 - abcd q^(n-2)) prod_xy (1 - xy q^(n-1))
          / ((1 - abcd q^(2n-3)) (1 - abcd q^(2n-2))^2 (1 - abcd q^(2n-1)))

    with xy over the six pair products ab, ac, ad, bc, bd, cd.
    """
    if n < 1:
        raise ValueError("c_n needs n >= 1")
    p.require_horizon(n)
    q, a, b, c, d = p.q, p.a, p.b, p.c, p.d
    abcd = p.abcd
    num = (1 - q**n) * (1 - abcd * q ** (n - 2))
    for xy in (a * b, a * c, a * d, b * c, b * d, c * d):
        num *= 1 - xy * q ** (n - 1)
    den = (1 - abcd * q ** (2 * n - 3)) * (1 - abcd * q ** (2 * n - 2)) ** 2 \
        * (1 - abcd * q ** (2 * n - 1))
    return num / den


def e1(p: ParamSet) -> Scalar:
    """First elementary symmetric function of (a, b, c, d)."""
    return p.a + p.b + p.c + p.d


def e3(p: ParamSet) -> Scalar:
    """Third elementary symmetric function of (a, b, c, d)."""
    a, b, c, d = p.a, p.b, p.c, p.d
    return a * b * c + a * b * d + a * c * d + b * c * d


def beta_n(n: int, p: ParamSet) -> Scalar:
    """Constant coefficient of the Hecke-route raising and lowering relations.

    beta_n = [(lambda_n + 1 - mu_{n-1}) e1 - (1 - mu_{n-1}) e3]
             / (mu_{n-1} - mu_{-n}),  with lambda_n = lambda_|n|.

    Defined for all |n| <= n_max; G5 keeps the denominator nonzero.
    """
    p.require_horizon(n)
    lam = lambda_n(n, p)
    m_prev = mu_n(n - 1, p)
    m_neg = mu_n(-n, p)
    return ((lam + 1 - m_prev) * e1(p) - (1 - m_prev) * e3(p)) / (m_prev - m_neg)


def kappa_n(n: int, p: ParamSet) -> Scalar:
    """Shift scalar of the intertwiner sending E_{-n} to E_{n-1}:

    kappa_n = (mu_{n-1} (c + d) + t0 (a + b)) / (mu_{n-1} - mu_{-n}).
    """
    p.require_horizon(n)
    m_prev = mu_n(n - 1, p)
    m_neg = mu_n(-n, p)
    return (m_prev * (p.c + p.d) + p.t0 * (p.a + p.b)) / (m_prev - m_neg)


_DRAW_HEIGHT = 64  # bound on each numerator and denominator drawn
_DRAW_TRIES = 1000  # uncertified draws before random_param_set gives up


def _draw_nonzero(rng: random.Random) -> Scalar:
    while True:
        num = rng.randint(-_DRAW_HEIGHT, _DRAW_HEIGHT)
        if num:
            return Fraction(num, rng.randint(1, _DRAW_HEIGHT))


def random_param_set(rng: random.Random, n_max: int) -> ParamSet:
    """Draw a certified point with small-height rational parameters.

    q is drawn with 0 < |q| < 1; a, b, c, d are nonzero with numerator and
    denominator magnitudes at most _DRAW_HEIGHT.  Draws violating G1..G6
    are rejected and retried.
    """
    for _ in range(_DRAW_TRIES):
        den = rng.randint(2, _DRAW_HEIGHT)
        num = rng.randint(-(den - 1), den - 1)
        if not num:
            continue
        q = Fraction(num, den)
        vals = [_draw_nonzero(rng) for _ in range(4)]
        try:
            return check_genericity(q, *vals, n_max)
        except GenericityError:
            continue
    raise RuntimeError(
        f"could not draw a certified parameter set in {_DRAW_TRIES} tries"
    )


def random_param_sets(seed: int, trials: int, n_max: int) -> list[ParamSet]:
    """trials certified points, deterministic for a given seed.

    A count below 1 is a ValueError, so a typo cannot pass for an empty
    result.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    return [random_param_set(rng, n_max) for _ in range(trials)]
