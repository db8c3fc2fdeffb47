"""Exact univariate polynomials over Q and numbers in the field Q(sqrt 2).

Everything the analysis layer proves - dominance between loss classes,
location of the optimal-strategy threshold, continuity of the piecewise win
probability - reduces to exact sign questions about low-degree polynomials
with rational coefficients, sometimes at quadratic-irrational points.
This module supplies the two primitives those proofs need:

* :class:`Poly` - dense rational-coefficient polynomials with Sturm-chain
  root counting, isolation and bisection refinement.  Interval endpoints
  may be rational or quadratic (``Sqrt2Num``), so strict sign claims on
  intervals like (1/2, 2 - sqrt 2) are decided exactly; isolation always
  returns intervals with rational ends.  The root layer runs on integers:
  the Sturm chain, gcd and squarefree part come from one primitive
  pseudo-remainder Euclid on the polynomial times the lcm of its
  denominators (W. S. Brown, J. ACM 18, 1971), scaled only by positive
  integers so every sign is kept; the chain is built once per Poly as
  integer tuples; the sign at a rational a/b is that of the integer Horner
  sum sum_j c_j a^j b^(d-j).  Isolation evaluates the chain once per point
  and carries the signs down the bisection; a root endpoint steps inward
  by the sign of the chain's derivative member.  Refinement bisects
  integer numerators over one denominator.
* :class:`Sqrt2Num` - numbers a + b*sqrt(2) with rational a, b, as exact
  ordered values with no arithmetic.  Ordering is exact (no floating
  point): one sign test on (a, b), which compares a^2 with 2 b^2 when the
  terms have opposite signs, serves ``sign()`` and every comparison, and
  an ``int`` or ``Fraction`` is compared as it is.

Every evaluation at a ``Sqrt2Num`` x goes through one integer kernel,
:func:`_sqrt2_horner`: with x = (u + v sqrt2)/w on integers, the Horner step
(P, Q) <- (P u + 2 Q v + c w^k, P v + Q u) gives P + Q sqrt2 = w^d times
the value, so a sign is that of (P, Q) and ``Poly.__call__`` divides once.

Floats are refused as coefficients, components and interval endpoints: a
binary float is not the rational it was typed as.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

from .core import _Frozen, _setattr, exact_fraction


class Sqrt2Num(_Frozen):
    """Exact number a + b*sqrt(2), a and b rational."""

    __slots__ = _fields = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction = Fraction(0)):
        _setattr(self, "a", exact_fraction(a))
        _setattr(self, "b", exact_fraction(b))

    # -- exact ordering -----------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        return _sign(self.a, self.b)

    def _cmp(self, other):
        """Sign of self - other; a rational other is compared as it is,
        without building a Sqrt2Num."""
        if isinstance(other, Sqrt2Num):
            return _sign(self.a - other.a, self.b - other.b)
        if isinstance(other, (int, Fraction)):
            return _sign(self.a - other, self.b)
        return NotImplemented

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("%r is irrational" % (self,))
        return self.a

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * 2**0.5

    def __repr__(self):
        if self.b == 0:
            return "Sqrt2Num(%s)" % (self.a,)
        return "Sqrt2Num(%s, %s)" % (self.a, self.b)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return "%s*sqrt(2)" % (self.b,)
        op = "+" if self.b > 0 else "-"
        return "%s %s %s*sqrt(2)" % (self.a, op, abs(self.b))


def _sign(a: Fraction, b: Fraction) -> int:
    """Exact sign of a + b*sqrt(2) for rational (or integer) a, b."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    # opposite signs: the term with the larger square wins (a^2 = 2 b^2
    # has no rational solution besides 0)
    return sa if a * a > 2 * b * b else sb


#: sqrt(2) - 1 and 2 - sqrt(2): the two irrational breakpoints of the
#: five-player win-probability curve.
SQRT2 = Sqrt2Num(0, 1)
SQRT2_MINUS_1 = Sqrt2Num(-1, 1)
TWO_MINUS_SQRT2 = Sqrt2Num(2, -1)

Number = Union[int, Fraction, Sqrt2Num]


class Poly(_Frozen):
    """Dense polynomial with Fraction coefficients, ascending powers."""

    # no __slots__: the cached properties below live in the instance dict
    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        cs = [exact_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        _setattr(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Iterable) -> "Poly":
        return cls(tuple(coeffs))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((Fraction(0), Fraction(1)))

    # -- ring operations ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(tuple(out))

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(Fraction(other) * c for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = Poly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    @cached_property
    def _integer_coeffs(self) -> tuple[tuple[int, ...], int]:
        """The coefficients times the lcm of their denominators, and that
        lcm."""
        lcm = math.lcm(*(c.denominator for c in self.coeffs))
        return tuple(c.numerator * (lcm // c.denominator) for c in self.coeffs), lcm

    def __call__(self, x):
        """Exact Horner evaluation at an int, Fraction or Sqrt2Num; any
        other x goes through :func:`hatgame.core.exact_fraction` first, so
        a float raises ``TypeError``.

        A rational x = a/b takes the integer sum sum_j C_j a^j b^(d-j) of
        :func:`_horner` over the integer coefficients C_j of
        :attr:`_integer_coeffs`, and one Fraction at the end; a Sqrt2Num
        takes the integer pair of :func:`_sqrt2_horner` over the same C_j,
        and one Fraction per part."""
        if not isinstance(x, (int, Fraction, Sqrt2Num)):
            x = exact_fraction(x)
        if not self.coeffs:
            return Sqrt2Num(0) if isinstance(x, Sqrt2Num) else x * 0
        ints, lcm = self._integer_coeffs
        if isinstance(x, Sqrt2Num):
            p, q, w = _sqrt2_horner(ints, x)
            den = lcm * w ** (len(ints) - 1)
            return Sqrt2Num(Fraction(p, den), Fraction(q, den))
        acc = _horner(ints, x.numerator, x.denominator)
        return Fraction(acc, lcm * x.denominator ** (len(ints) - 1))

    # -- Sturm chains and real roots ----------------------------------------

    @cached_property
    def _sturm(self) -> tuple[tuple[int, ...], ...]:
        """The chain :meth:`sturm_chain` returns, built once per Poly."""
        f = _squarefree(self._integer_coeffs[0])
        chain = [f, _primitive(_derivative(f))]
        while chain[-1]:
            rem = _pseudo_divmod(chain[-2], chain[-1])[1]
            chain.append(_primitive([-c for c in rem]))
        chain.pop()
        return tuple(chain)

    def sturm_chain(self) -> tuple[tuple[int, ...], ...]:
        """Sturm chain of the squarefree part as primitive integer
        coefficient tuples, ascending powers: each member is a positive
        multiple of the member of the classical chain f, f', -rem(f, f'),
        ..., so both give the same sign variations everywhere."""
        return self._sturm

    def _sturm_on(self, lo: Number, hi: Number) -> tuple:
        """(chain, lo, signs at lo, hi, signs at hi), the interval made
        exact and checked."""
        lo, hi = _exact(lo), _exact(hi)
        if not lo < hi:
            raise ValueError("need lo < hi")
        if self.is_zero:
            raise ValueError("the zero polynomial has no root count")
        chain = self.sturm_chain()
        return chain, lo, _signs(chain, lo), hi, _signs(chain, hi)

    def count_roots_open(self, lo: Number, hi: Number) -> int:
        """Number of distinct real roots in the open interval (lo, hi).

        Endpoints may be rational or Sqrt2Num; both are handled exactly.
        """
        _chain, _lo, slo, _hi, shi = self._sturm_on(lo, hi)
        return _roots_between(slo, shi)

    def isolate_roots_open(
        self, lo: Number, hi: Number
    ) -> list[tuple[Fraction, Fraction]]:
        """Disjoint rational intervals, one per distinct root in (lo, hi),
        in ascending order.

        Endpoints may be rational or Sqrt2Num.  One Sturm chain counts the
        roots of every subinterval.  An interval is split at
        :func:`_rational_inside` (its midpoint when both ends are rational)
        until it holds one root and has rational ends; each split point's
        chain signs are computed once and serve both halves.  Exact rational
        roots are returned as degenerate intervals (r, r).  A root endpoint
        of another interval is stepped inward until the squarefree part has
        the sign the chain's derivative member gives beside it, so neither
        endpoint is a root and the intervals are directly usable by
        :meth:`refine_root`.
        """
        chain, lo, slo, hi, shi = self._sturm_on(lo, hi)
        sf = chain[0]
        out: list[tuple[Fraction, Fraction]] = []

        def recurse(a: Number, sa, b: Number, sb, k: int) -> None:
            if k == 0:
                return
            # only lo and hi can be irrational, and then they are Sqrt2Num
            rational = not isinstance(a, Sqrt2Num) and not isinstance(b, Sqrt2Num)
            if k == 1 and rational:
                # A root endpoint is a simple root of sf, and chain[1] is a
                # positive multiple of sf', so sf has the sign sa[1] just
                # right of a and -sb[1] just left of b.  With one root r in
                # (a, b), sf has one sign on (a, r) and the other on (r, b):
                # a trial point has the sign beside a exactly when r lies
                # between it and b, and the sign beside b exactly when r
                # lies between a and it.
                if not sa[0]:
                    a = _step_in(sf, a, b, sa[1])
                if not sb[0]:
                    b = _step_in(sf, b, a, -sb[1])
                out.append((a, b))
                return
            mid = _rational_inside(a, b)
            smid = _signs(chain, mid)
            left = _roots_between(sa, smid)
            recurse(a, sa, mid, smid, left)
            if not smid[0]:
                out.append((mid, mid))
                left += 1
            recurse(mid, smid, b, sb, k - left)

        recurse(lo, slo, hi, shi, _roots_between(slo, shi))
        return out

    def refine_root(
        self, lo: Fraction, hi: Fraction, width: Fraction
    ) -> tuple[Fraction, Fraction]:
        """Shrink an isolating interval below ``width`` by sign bisection.

        Requires that (lo, hi) isolates exactly one root and that the
        squarefree part changes sign across it (always true for an interval
        produced by :meth:`isolate_roots_open` with non-root endpoints).
        The bisection runs on integer numerators over one denominator,
        the common denominator of lo and hi doubled at each halving.  The
        width must be positive and exact: at 0 the bisection would not end.
        """
        lo, hi, width = exact_fraction(lo), exact_fraction(hi), exact_fraction(width)
        if width <= 0:
            raise ValueError("width must be positive")
        if lo == hi:
            return lo, hi
        sf = self._sturm[0]
        den = math.lcm(lo.denominator, hi.denominator)
        a = lo.numerator * (den // lo.denominator)
        b = hi.numerator * (den // hi.denominator)
        slo, shi = _int_sign(sf, a, den), _int_sign(sf, b, den)
        if slo == 0 or shi == 0 or slo == shi:
            raise ValueError("interval endpoints must straddle a sign change")
        # (b - a) / den >= width, cross-multiplied
        while (b - a) * width.denominator >= width.numerator * den:
            a, b, den = 2 * a, 2 * b, 2 * den
            mid = (a + b) // 2
            smid = _int_sign(sf, mid, den)
            if smid == 0:
                return Fraction(mid, den), Fraction(mid, den)
            if smid == slo:
                a = mid
            else:
                b = mid
        return Fraction(a, den), Fraction(b, den)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*p" % (c,))
            else:
                parts.append("%s*p^%d" % (c, i))
        return " + ".join(parts).replace("+ -", "- ")


def _exact(x) -> Number:
    """x as an exact number: a Fraction when rational, else the Sqrt2Num
    itself.  Floats are refused (see :func:`hatgame.core.exact_fraction`)."""
    if isinstance(x, Sqrt2Num):
        return x if x.b else x.a
    return exact_fraction(x)


def _signs(chain: Sequence[tuple[int, ...]], x: Number) -> tuple[int, ...]:
    """The signs of the chain's members at x."""
    return tuple(_sign_at(f, x) for f in chain)


def _roots_between(sa: Sequence[int], sb: Sequence[int]) -> int:
    """Distinct roots of a Sturm chain's first member in the open interval
    (a, b), from the chain's signs sa at a and sb at b."""

    def variations(signs: Sequence[int]) -> int:
        signs = [s for s in signs if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    # Sturm counts roots in (a, b]; drop b if it is a root itself
    return variations(sa) - variations(sb) - (sb[0] == 0)


def _step_in(sf: Sequence[int], end: Fraction, other: Fraction, sign: int) -> Fraction:
    """The first of end + (other - end) / 2^j, j = 1, 2, ..., where sf has
    ``sign``."""
    step = (other - end) / 2
    while _sign_at(sf, end + step) != sign:
        step /= 2
    return end + step


# -- the integer kernel ------------------------------------------------------
#
# Polynomials here are tuples or lists of ints, ascending powers, with no
# trailing zero; the empty one is zero.  Scaling by a positive integer
# keeps every sign, so the Euclid below is exact without any Fraction.


def _primitive(cs: Sequence[int]) -> tuple[int, ...]:
    """cs divided by its content, the positive gcd of its coefficients."""
    g = math.gcd(*cs)
    return tuple(c // g for c in cs) if g > 1 else tuple(cs)


def _derivative(cs: Sequence[int]) -> tuple[int, ...]:
    return tuple(i * c for i, c in enumerate(cs) if i > 0)


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """(q, r) with m^k a = q b + r, deg r < deg b, m = |lc b| and some
    k >= 0.

    Scaling by |lc b| rather than lc b keeps q and r positive multiples of
    the rational quotient and remainder (Brown's pseudo-division with the
    sign of lc b left out), so a remainder sequence keeps its signs."""
    db = len(b) - 1
    m, s = abs(b[-1]), (1 if b[-1] > 0 else -1)
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        t = s * r[k + db]
        if not t:
            continue
        if m != 1:
            r = [m * c for c in r]
            q = [m * c for c in q]
        q[k] += t
        for j, c in enumerate(b):
            r[k + j] -= t * c
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return q, r


def _gcd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Primitive gcd with a positive leading coefficient, by a primitive
    remainder sequence; () when both are zero."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return tuple(-c for c in a) if a and a[-1] < 0 else a


def _squarefree(cs: Sequence[int]) -> tuple[int, ...]:
    """Primitive squarefree part: cs over its gcd with its derivative, a
    positive multiple of the rational quotient by the monic gcd."""
    g = _gcd(cs, _derivative(cs))
    if len(g) <= 1:
        return _primitive(cs)
    return _primitive(_pseudo_divmod(cs, g)[0])


def _horner(cs: Sequence[int], a: int, b: int) -> int:
    """sum_j cs[j] a^j b^(d-j) with d = len(cs) - 1: b^d times the value
    at a/b."""
    acc, bpow = 0, 1
    for c in reversed(cs):
        acc = acc * a + c * bpow
        bpow *= b
    return acc


def _int_sign(cs: Sequence[int], a: int, b: int) -> int:
    """Exact sign at a/b, b > 0."""
    acc = _horner(cs, a, b)
    return (acc > 0) - (acc < 0)


def _sqrt2_horner(cs: Sequence[int], x: Sqrt2Num) -> tuple[int, int, int]:
    """(P, Q, w) with w the lcm of the denominators of x = (u + v sqrt2)/w
    and P + Q sqrt2 = sum_j cs[j] (u + v sqrt2)^j w^(d-j), d = len(cs) - 1:
    w^d times the value at x, on integers alone."""
    w = math.lcm(x.a.denominator, x.b.denominator)
    u = x.a.numerator * (w // x.a.denominator)
    v = x.b.numerator * (w // x.b.denominator)
    p = q = 0
    wpow = 1
    for c in reversed(cs):
        p, q = p * u + 2 * q * v + c * wpow, p * v + q * u
        wpow *= w
    return p, q, w


def _sign_at(cs: Sequence[int], x: Number) -> int:
    """Exact sign at x: that of an integer Horner sum, rational or in
    Q(sqrt 2) (w^d > 0 keeps the sign)."""
    if isinstance(x, Sqrt2Num):
        p, q, _w = _sqrt2_horner(cs, x)
        return _sign(p, q)
    return _int_sign(cs, x.numerator, x.denominator)


def _rational_inside(lo: Number, hi: Number) -> Fraction:
    """Some exact rational strictly between lo < hi: their midpoint when
    both are rational, else the first midpoint of a halved rational
    bracket of them that falls strictly inside."""
    lo, hi = _exact(lo), _exact(hi)
    # a + b sqrt2 lies in [a - 2|b|, a + 2|b|]
    a = lo if isinstance(lo, Fraction) else lo.a - 2 * abs(lo.b)
    b = hi if isinstance(hi, Fraction) else hi.a + 2 * abs(hi.b)
    while True:
        mid = (a + b) / 2
        if lo < mid < hi:
            return mid
        if mid <= lo:
            a = mid
        else:
            b = mid


def decimal_str(value, significant: int = 12) -> str:
    """Decimal rendering with at most ``significant`` significant digits.

    A rational is one ``Decimal`` division at that precision, rounded
    half-even; a terminating expansion that fits prints exactly (0.09 stays
    "0.09").  An irrational element of Q(sqrt 2) goes through
    :func:`_irrational_decimal`.
    """
    if isinstance(value, Sqrt2Num):
        if not value.is_rational:
            return _irrational_decimal(value, significant)
        value = value.as_fraction()
    value = Fraction(value)
    from decimal import Decimal, getcontext

    ctx = getcontext().copy()
    ctx.prec = significant
    digits = ctx.divide(Decimal(abs(value.numerator)), Decimal(value.denominator))
    return ("-" if value < 0 else "") + format(digits, "f")


def _irrational_decimal(value: Sqrt2Num, significant: int) -> str:
    """Decimal approximation of a + b*sqrt(2), correctly rounded-ish
    (computed with 10 guard digits)."""
    from decimal import Decimal, getcontext

    ctx = getcontext().copy()
    ctx.prec = significant + 10
    sqrt2 = ctx.sqrt(Decimal(2))
    a = ctx.divide(Decimal(value.a.numerator), Decimal(value.a.denominator))
    b = ctx.divide(Decimal(value.b.numerator), Decimal(value.b.denominator))
    raw = ctx.add(a, ctx.multiply(b, sqrt2))
    ctx.prec = significant
    return format(ctx.plus(raw), "f")
