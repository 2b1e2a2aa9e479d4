"""Exact rational scalars and the certified parameter points they live on.

Every scalar in this package is an exact `fractions.Fraction`, so equality
means equality and a zero residual is exactly the zero polynomial.  This
module owns parsing and formatting of rationals, the genericity conditions
G1..G4 that keep every downstream denominator nonzero, and the closed-form
scalar families attached to a parameter point: operator eigenvalues and the
coefficients of the raising and lowering relations.  The rules on what a
caller asks for (a horizon of at least 0, a count of at least 1, a generic
point used within its horizon) raise `InputError`, defined here, or a
subclass, so a caller maps bad input to one exception and repeats no rule;
every count goes through `require_count`, which takes an integer by
`operator.index` and never a bool.
It also owns `memo`, the one accessor of a point's store, so that every
layer (the operator plans, the polynomials, the checks' shared
ingredients) reaches the store without importing a layer above its own.

A point keeps one table of the powers qn^j and qd^j of q = qn/qd in its
store (`powers`), which the operator plans of T0 and D share.  alpha_n
and c_n are built from the recurrence's A_n and C_n, products over that
table of integer pairs, one for each factor 1 - x q^j; lambda_n and mu_n
read q^j from it too, and beta_n and kappa_n are Fraction combinations
of lambda_n and mu_n.
"""

from __future__ import annotations

import operator
import random
import re
from fractions import Fraction

Scalar = Fraction

_RATIONAL_RE = re.compile(r"^-?\d+(?:/[1-9]\d*)?$")


class InputError(ValueError):
    """An input breaks a rule of the library: bad input, not a crash."""


class GenericityError(InputError):
    """A parameter point violates one of the genericity conditions G1..G4."""

    def __init__(self, condition: str, detail: str):
        super().__init__(f"{condition}: {detail}")
        self.condition = condition
        self.detail = detail


class HorizonError(InputError):
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


def as_scalar(name: str, value) -> Scalar:
    """value as a Fraction; a binary float is refused with TypeError, since
    its exact value is seldom the number it was written as."""
    if isinstance(value, float):
        raise TypeError(f"{name} must be an exact rational, not a float")
    return Fraction(value)


def require_count(name: str, value, least: int) -> int:
    """value as an int, when it is an integer (by `operator.index`, never a
    bool) of at least `least`; otherwise an InputError naming `name`.  The
    one rule for every count a caller passes: a horizon, a number of
    trials or points, a degree window."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise InputError(f"{name} must be nonnegative" if least == 0 else
                         f"{name} must be at least {least}, got {value}")
    return value


class ParamSet:
    """A certified parameter point (q, a, b, c, d) with horizon n_max.

    Construct through `check_genericity`; the constructor itself only derives
    the deformation scalars t0 = -cd/q and t1 = -ab and the product abcd.
    Instances are immutable and hashable on (q, a, b, c, d, n_max); the hash
    and the JSON form's strings are computed once, here.  `memo` is the
    point's store of what has been built at it, read through `memo` below:
    it belongs to this object, not to every equal point, takes no part in
    equality, hashing or pickling, and is freed with the point.
    """

    __slots__ = ("q", "a", "b", "c", "d", "n_max", "t0", "t1", "abcd", "_hash",
                 "_json", "memo")

    def __init__(self, q: Scalar, a: Scalar, b: Scalar, c: Scalar, d: Scalar,
                 n_max: int):
        key = (q, a, b, c, d, n_max)
        form = dict(zip("qabcd", map(format_scalar, key)), nmax=n_max)
        for name, value in zip(self.__slots__, (*key, -c * d / q, -a * b,
                                                a * b * c * d, hash(key), form, {})):
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
        """q, a, b, c, d as "p/q" strings and nmax, in a fresh dict."""
        return dict(self._json)


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


class Powers:
    """q = qn/qd as integer powers: the tables pn[i] = qn^i and pd[i] = qd^i,
    grown as far as a caller needs.  A point keeps one in its store (see
    `powers`), so the closed forms at every index and the operator plans
    of T0 and D share it."""

    __slots__ = ("qn", "qd", "pn", "pd")

    def __init__(self, q: Scalar | int):
        self.qn, self.qd, self.pn, self.pd = q.numerator, q.denominator, [1], [1]

    def upto(self, m: int) -> tuple[list[int], list[int]]:
        """The tables pn and pd, grown to hold index m."""
        pn, pd = self.pn, self.pd
        while len(pn) <= m:
            pn.append(pn[-1] * self.qn)
            pd.append(pd[-1] * self.qd)
        return pn, pd

    def at(self, j: int) -> tuple[int, int]:
        """q^j as an integer pair (num, den), for any integer j."""
        m = abs(j)
        pn, pd = self.upto(m)
        return (pn[m], pd[m]) if j >= 0 else (pd[m], pn[m])


def _one_minus(x: Scalar | int, qj: tuple[int, int]) -> tuple[int, int]:
    """1 - x q^j as an integer pair, q^j given as the pair qj."""
    den = x.denominator * qj[1]
    return den - x.numerator * qj[0], den


def _quotient(ups, downs) -> tuple[int, int]:
    """The product of the pairs in ups over that of the pairs in downs."""
    num = den = 1
    for n, d in ups:
        num, den = num * n, den * d
    for n, d in downs:
        num, den = num * d, den * n
    return num, den


def check_genericity(q, a, b, c, d, n_max: int) -> ParamSet:
    """Certify a parameter point, reporting the first violated condition.

    G1  q is not 0, 1 or -1 (with rational q this rules out all roots of 1).
    G2  a, b, c, d are nonzero.
    G3  abcd * q^j != 1 for -2 <= j <= 2*n_max + 2.  The two negative
        exponents cover n = 0: the closed form of alpha_0 divides by
        (1 - abcd q^-2)(1 - abcd q^-1), and at abcd = q the eigenvalue
        mu_0 = abcd/q is 1, so the n = 0 projection and Hecke raising
        multiples vanish.  Such points are rejected, not special-cased.
        The range holds every denominator of alpha_n, c_n, beta_n and
        kappa_n (the docstrings of alpha_n, c_n and beta_n name each j).
    G4  (xy) * q^j != 1 for every pair xy from {ab, ac, ad, bc, bd, cd} and
        0 <= j <= n_max.

    Two consequences, which the eigen-solves need, are not searched for:
    G5  the mu_n, -n_max-1 <= n <= n_max+1, are pairwise distinct: by G1
        and G2 within each sign, and mu_m = mu_k with m < 0 <= k means
        abcd q^(k-1-m) = 1 with k-1-m in [0, 2n_max+1], ruled out by G3.
    G6  the lambda_n, 0 <= n <= n_max+1, are pairwise distinct: for m != k,
        lambda_m - lambda_k = (q^-m - q^-k)(1 - abcd q^(m+k-1)), nonzero by
        G1 and by G3, since m+k-1 lies in [0, 2n_max].
    """
    q = as_scalar("q", q)
    named = {"a": as_scalar("a", a), "b": as_scalar("b", b),
             "c": as_scalar("c", c), "d": as_scalar("d", d)}
    n_max = require_count("n_max", n_max, 0)
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
    return ParamSet(q, a, b, c, d, n_max)


def _point_powers(_, p: ParamSet) -> Powers:
    return Powers(p.q)


def powers(p: ParamSet) -> Powers:
    """The point's power table of q, built at its first use there (a
    closed form or an operator plan)."""
    return memo("q_powers", _point_powers, None, p)


def lambda_n(n: int, p: ParamSet) -> Scalar:
    """Eigenvalue of the q-difference operator on the degree-|n| symmetric
    polynomial: (q^-|n| - 1)(1 - abcd q^(|n|-1))."""
    pw, m = powers(p), abs(n)
    un, ud = pw.at(-m)
    fn, fd = _one_minus(p.abcd, pw.at(m - 1))
    return Fraction((un - ud) * fn, ud * fd)


def mu_n(n: int, p: ParamSet) -> Scalar:
    """Eigenvalue of Y on the n-th nonsymmetric polynomial: q^n for n < 0 and
    q^(n-1) abcd for n >= 0."""
    if n < 0:
        return Fraction(*powers(p).at(n))
    un, ud = powers(p).at(n - 1)
    return Fraction(un * p.abcd.numerator, ud * p.abcd.denominator)


def _a_pair(n: int, p: ParamSet) -> tuple[int, int]:
    """A_n = (1 - ab q^n)(1 - ac q^n)(1 - ad q^n)(1 - abcd q^(n-1))
    / (a (1 - abcd q^(2n-1)) (1 - abcd q^(2n))), as an integer pair."""
    a, abcd, pw = p.a, p.abcd, powers(p)
    q_n = pw.at(n)
    return _quotient(
        (_one_minus(a * p.b, q_n), _one_minus(a * p.c, q_n),
         _one_minus(a * p.d, q_n), _one_minus(abcd, pw.at(n - 1))),
        ((a.numerator, a.denominator), _one_minus(abcd, pw.at(2 * n - 1)),
         _one_minus(abcd, pw.at(2 * n))))


def _c_pair(n: int, p: ParamSet) -> tuple[int, int]:
    """C_n = a (1 - q^n)(1 - bc q^(n-1))(1 - bd q^(n-1))(1 - cd q^(n-1))
    / ((1 - abcd q^(2n-2)) (1 - abcd q^(2n-1))), as an integer pair."""
    a, b, c, d, pw = p.a, p.b, p.c, p.d, powers(p)
    q_prev = pw.at(n - 1)
    return _quotient(
        ((a.numerator, a.denominator), _one_minus(1, pw.at(n)),
         _one_minus(b * c, q_prev), _one_minus(b * d, q_prev),
         _one_minus(c * d, q_prev)),
        (_one_minus(p.abcd, pw.at(2 * n - 2)),
         _one_minus(p.abcd, pw.at(2 * n - 1))))


def alpha_n(n: int, p: ParamSet) -> Scalar:
    """Diagonal coefficient of the three-term recurrence for (z + 1/z) P_n,
    alpha_n = a + 1/a - A_n - C_n.

    Its denominators, a and 1 - abcd q^j for j = 2n-2 .. 2n, are nonzero by
    G2 and G3 (0 <= n <= n_max).  Symmetric in (a, b, c, d) even though
    the closed form privileges a.
    """
    if n < 0:
        raise ValueError("alpha_n needs n >= 0")
    p.require_horizon(n)
    (a_num, a_den), (c_num, c_den) = _a_pair(n, p), _c_pair(n, p)
    x, y = p.a.numerator, p.a.denominator  # a + 1/a = (x^2 + y^2) / (x y)
    return Fraction((x * x + y * y) * a_den * c_den
                    - x * y * (a_num * c_den + c_num * a_den),
                    x * y * a_den * c_den)


def c_n(n: int, p: ParamSet) -> Scalar:
    """Lower coefficient of the three-term recurrence for (z + 1/z) P_n,
    c_n = A_{n-1} C_n; its denominators 1 - abcd q^j, j = 2n-3 .. 2n-1, are
    nonzero by G3 (1 <= n <= n_max)."""
    if n < 1:
        raise ValueError("c_n needs n >= 1")
    p.require_horizon(n)
    (a_num, a_den), (c_num, c_den) = _a_pair(n - 1, p), _c_pair(n, p)
    return Fraction(a_num * c_num, a_den * c_den)


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

    Defined for all |n| <= n_max: the denominator vanishes iff abcd q^(2n-2)
    = 1 (n >= 1) or abcd q^(-2n) = 1 (n <= 0), which G3 rules out.
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
    denominator magnitudes at most _DRAW_HEIGHT.  Draws violating G1..G4
    are rejected and retried; after _DRAW_TRIES of them it is an
    InputError, since the horizon admits too few small points.
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
    raise InputError(
        f"could not draw a certified parameter set in {_DRAW_TRIES} tries"
    )


def random_param_sets(seed: int, trials: int, n_max: int) -> list[ParamSet]:
    """trials certified points, deterministic for a given seed.

    A count below 1 is an InputError, so a typo cannot pass for an empty
    result.
    """
    trials = require_count("trials", trials, 1)
    rng = random.Random(seed)
    return [random_param_set(rng, n_max) for _ in range(trials)]
