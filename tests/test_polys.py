"""Exact polynomial and Q(sqrt 2) evaluation and ordering tests."""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as hst
from polytools import poly

from hatgame.polys import (
    Poly,
    SQRT2,
    SQRT2_MINUS_1,
    Sqrt2Num,
    TWO_MINUS_SQRT2,
    _sign_at,
    decimal_str,
)


def F(a, b=1):
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# Sqrt2Num
# ---------------------------------------------------------------------------


def test_sqrt2_squares_to_two():
    assert Poly([0, 0, 1])(SQRT2) == Sqrt2Num(2)


def test_breakpoint_identities():
    assert Poly([1, 1])(SQRT2_MINUS_1) == SQRT2
    assert Poly([2, -1])(SQRT2) == TWO_MINUS_SQRT2
    # the two breakpoints mirror around 1/2: 1 - (sqrt2-1) = 2-sqrt2
    assert Poly([1, -1])(SQRT2_MINUS_1) == TWO_MINUS_SQRT2
    # minimal polynomial: x^2 - 4x + 2 vanishes at 2 - sqrt2
    assert Poly([2, -4, 1])(TWO_MINUS_SQRT2) == Sqrt2Num(0)


def test_exact_ordering():
    assert Sqrt2Num(F(14142, 10000)) < SQRT2 < Sqrt2Num(F(14143, 10000))
    assert SQRT2_MINUS_1 < Sqrt2Num(F(1, 2)) < TWO_MINUS_SQRT2
    assert Sqrt2Num(F(58578643, 10**8)) < TWO_MINUS_SQRT2
    assert TWO_MINUS_SQRT2 < Sqrt2Num(F(58578644, 10**8))
    assert sorted([Sqrt2Num(1), SQRT2_MINUS_1, Sqrt2Num(0)]) == [
        Sqrt2Num(0),
        SQRT2_MINUS_1,
        Sqrt2Num(1),
    ]


def test_sign_of_opposite_terms():
    assert Sqrt2Num(F(3), F(-2)).sign() == 1  # 3 - 2 sqrt2 ~ 0.17
    assert Sqrt2Num(F(4), F(-3)).sign() == -1  # 4 - 3 sqrt2 ~ -0.24
    assert Sqrt2Num(F(-3), F(2)).sign() == -1
    assert Sqrt2Num(F(-4), F(3)).sign() == 1


rationals = hst.fractions(min_value=-20, max_value=20, max_denominator=50)


@given(rationals, rationals, rationals)
def test_rational_comparison_matches_embedding(a, b, r):
    # a rational is compared with a + b sqrt2 directly; the answer must be
    # the one its embedding Sqrt2Num(r) gives, on either side
    x, boxed = Sqrt2Num(a, b), Sqrt2Num(r)
    assert (x < r) == (x < boxed) and (r < x) == (boxed < x)
    assert (x <= r) == (x <= boxed) and (r <= x) == (boxed <= x)
    assert (x == r) == (x == boxed) and (r == x) == (boxed == x)
    assert (x > r) == (x > boxed) and (r > x) == (boxed > x)
    assert (x < r) == (Sqrt2Num(a - r, b).sign() < 0)


def test_rational_interop():
    assert Sqrt2Num(F(1, 2)).is_rational
    assert Sqrt2Num(F(1, 2)).as_fraction() == F(1, 2)
    assert not SQRT2.is_rational
    with pytest.raises(ValueError):
        SQRT2.as_fraction()
    assert Sqrt2Num(F(1, 3)) == F(1, 3) == Sqrt2Num(F(1, 3), 0)
    assert hash(Sqrt2Num(F(1, 3))) == hash(F(1, 3))
    # an exact ordered value: evaluation goes through Poly, not operators
    with pytest.raises(TypeError):
        SQRT2 + 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: Sqrt2Num(0.1),
        lambda: Sqrt2Num(1, 0.5),
        lambda: Poly([1, 0.1]),
        lambda: Poly([0, 1]).count_roots_open(0.0, 1),
        lambda: Poly([0, 1]).isolate_roots_open(-1, 0.5),
        lambda: Poly([-2, 0, 1]).refine_root(1, 2, 0.5),
    ],
    ids=["a", "b", "coeffs", "count", "isolate", "refine"],
)
def test_floats_are_refused(build):
    with pytest.raises(TypeError, match="inexact float"):
        build()


# ---------------------------------------------------------------------------
# Poly canonical form and evaluation
# ---------------------------------------------------------------------------


def test_poly_canonical_form():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).is_zero
    assert Poly([5]).degree == 0
    assert Poly(()).degree == -1


def test_poly_evaluation_in_quadratic_field():
    # (x^2 - 2) vanishes exactly at sqrt 2
    p = Poly([-2, 0, 1])
    assert p(SQRT2) == Sqrt2Num(0)
    # the zero polynomial gives a zero of the argument's type
    for x, zero in ((SQRT2, Sqrt2Num(0)), (F(1, 3), F(0)), (3, 0)):
        value = Poly(())(x)
        assert type(value) is type(zero) and value == zero
    # a float is refused, as everywhere else
    for f in (Poly(()), p):
        with pytest.raises(TypeError, match="inexact float"):
            f(-1.5)


def _pair_horner(cs, a, b):
    """sum_j cs[j] (a + b sqrt2)^j as a pair of Fractions, by the product
    rule (p + q sqrt2)(a + b sqrt2) = (pa + 2qb) + (pb + qa) sqrt2."""
    p = q = F(0)
    for c in reversed(cs):
        p, q = p * a + 2 * q * b + c, p * b + q * a
    return p, q


@given(hst.lists(rationals, max_size=7), rationals, rationals)
def test_quadratic_evaluation_matches_fraction_pairs(cs, a, b):
    # the integer kernel against Horner in Fraction pairs
    f, x = Poly(cs), Sqrt2Num(a, b)
    p, q = _pair_horner(f.coeffs, a, b)
    value = f(x)
    assert type(value) is Sqrt2Num and (value.a, value.b) == (p, q)
    assert _sign_at(f._integer_coeffs[0], x) == Sqrt2Num(p, q).sign()


# ---------------------------------------------------------------------------
# Root counting, isolation, refinement
# ---------------------------------------------------------------------------


def test_count_roots_simple():
    p = poly([-1, 1], [-2, 1], [-3, 1])
    assert p.count_roots_open(F(0), F(4)) == 3
    assert p.count_roots_open(F(1), F(4)) == 2  # open: root at 1 excluded
    assert p.count_roots_open(F(0), F(3)) == 2  # root at hi excluded
    assert p.count_roots_open(F(5, 2), F(4)) == 1
    assert p.count_roots_open(F(4), F(9)) == 0


def test_count_roots_with_multiplicity_collapses():
    p = poly([-1, 1], [-1, 1], [-1, 1], [-2, 1])
    assert p.count_roots_open(F(0), F(3)) == 2  # distinct roots only


def test_count_roots_algebraic_endpoints():
    # x^2 - 2 on intervals delimited by sqrt 2 itself
    p = Poly([-2, 0, 1])
    assert p.count_roots_open(Sqrt2Num(0), SQRT2) == 0
    assert p.count_roots_open(Sqrt2Num(0), Sqrt2Num(2)) == 1
    assert p.count_roots_open(SQRT2, Sqrt2Num(2)) == 0
    # p^3 (p^2 - 4p + 2) has no root on (1/2, 2 - sqrt2), where it is
    # positive, nor on (2 - sqrt2, 1), where it is negative
    step = Poly([0, 0, 0, 2, -4, 1])
    assert step.count_roots_open(F(1, 2), TWO_MINUS_SQRT2) == 0
    assert step(F(11, 20)) > 0
    assert step.count_roots_open(TWO_MINUS_SQRT2, F(1)) == 0
    assert step(F(3, 4)) < 0


def test_isolate_roots():
    p = poly([-1, 1], [-2, 1], [-5, 2])
    intervals = p.isolate_roots_open(F(0), F(10))
    assert len(intervals) == 3
    roots = [F(1), F(2), F(5, 2)]
    for (lo, hi), r in zip(intervals, roots):
        assert lo <= r <= hi
    # exact rational root hit by a bisection midpoint -> degenerate interval
    q = poly([-1, 1], [-3, 1])
    ivs = q.isolate_roots_open(F(0), F(4))
    assert len(ivs) == 2


#: Isolating intervals pinned exactly: root endpoints stepped inward, a
#: root at a bisection midpoint, a double root, Q(sqrt 2) ends.
CUBIC = poly([-1, 1], [-2, 1], [-3, 1])  # (x - 1)(x - 2)(x - 3)
ISOLATION_PINS = [
    ("lo is a root", CUBIC, F(1), F(4),
     [(F(7, 4), F(5, 2)), (F(5, 2), F(4))]),
    ("hi is a root", CUBIC, F(0), F(3),
     [(F(0), F(3, 2)), (F(3, 2), F(9, 4))]),
    ("both ends are roots", poly([0, 1], [-1, 3], [-2, 1]), F(0), F(2),
     [(F(1, 4), F(9, 8))]),
    ("midpoint is a root", CUBIC, F(0), F(4),
     [(F(0), F(3, 2)), (F(2), F(2)), (F(5, 2), F(4))]),
    ("double root", poly([-1, 2], [-1, 2], [1, 1]), F(-2), F(1),
     [(F(-2), F(-1, 2)), (F(-1, 2), F(1))]),
    ("double root at lo", poly([-1, 2], [-1, 2], [-2, 3]), F(1, 2), F(1),
     [(F(5, 8), F(1))]),
    ("sqrt2 lo", Poly([2, -4, 1]), SQRT2_MINUS_1, F(4),
     [(F(1, 2), F(9, 4)), (F(9, 4), F(4))]),
    ("sqrt2 lo is a root", Poly([2, -4, 1]), TWO_MINUS_SQRT2, F(4),
     [(F(2), F(4))]),
    ("sqrt2 hi", Poly([-2, 0, 1]), F(0), Sqrt2Num(1, 1),
     [(F(0), F(3, 2))]),
]


@pytest.mark.parametrize(
    "f,lo,hi,expected", [case[1:] for case in ISOLATION_PINS],
    ids=[case[0] for case in ISOLATION_PINS],
)
def test_isolation_pinned(f, lo, hi, expected):
    intervals = f.isolate_roots_open(lo, hi)
    assert intervals == expected
    assert all(type(e) is Fraction for iv in intervals for e in iv)


#: Products with repeated roots, their primitive squarefree parts written
#: out by hand, and intervals with the number of distinct roots inside.
MULTIPLE_ROOTS = [
    # (x - 1)^3 (x - 2) (x^2 - 2)^2 -> (x - 1)(x - 2)(x^2 - 2)
    (poly(*[[-1, 1]] * 3, [-2, 1], [-2, 0, 1], [-2, 0, 1]), (-4, 6, 0, -3, 1),
     [(F(-4), F(4), 4), (SQRT2_MINUS_1, F(3), 3), (SQRT2, F(3), 1)]),
    # (1 - 3p + p^2)^2 (1 - 2p), the loss difference of 102310 and 031021,
    # which touch zero at (3 - sqrt5)/2 -> (1 - 3p + p^2)(1 - 2p)
    (poly([1, -3, 1], [1, -3, 1], [1, -2]), (1, -5, 7, -2),
     [(F(0), TWO_MINUS_SQRT2, 2), (SQRT2_MINUS_1, F(3), 2), (F(0), F(3), 3)]),
]


@pytest.mark.parametrize("f,squarefree,cases", MULTIPLE_ROOTS, ids=["sqrt2", "touch"])
def test_multiple_roots_use_the_squarefree_part(f, squarefree, cases):
    # the chain's first remainder sequence ends in gcd(f, f') of positive
    # degree, so the chain is that of f over it
    assert f.sturm_chain()[0] == squarefree
    sf = Poly(squarefree)
    for lo, hi, distinct in cases:
        intervals = f.isolate_roots_open(lo, hi)
        assert len(intervals) == f.count_roots_open(lo, hi) == distinct
        for (a, b), (c, _d) in zip(intervals, intervals[1:]):
            assert b <= c
        # a simple root of sf in each: a sign change, or an exact root
        for a, b in intervals:
            assert lo <= a <= b <= hi
            assert sf(a) * sf(b) < 0 if a < b else sf(a) == 0


def test_isolate_roots_with_quadratic_endpoints():
    # x^2 - 4x + 2 has the roots 2 - sqrt2 ~ 0.586 and 2 + sqrt2 ~ 3.414
    p = Poly([2, -4, 1])
    both = p.isolate_roots_open(SQRT2_MINUS_1, F(4))
    assert len(both) == 2
    for (lo, hi), root in zip(both, (TWO_MINUS_SQRT2, Sqrt2Num(2, 1))):
        assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
        assert SQRT2_MINUS_1 < lo < root < hi <= 4
        assert p(lo) != 0 and p(hi) != 0
    # an endpoint that is a root is excluded: only 2 + sqrt2 is left
    ((lo, hi),) = p.isolate_roots_open(TWO_MINUS_SQRT2, F(4))
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    assert TWO_MINUS_SQRT2 < lo < Sqrt2Num(2, 1) < hi <= 4


def test_refine_root_width():
    p = Poly([-2, 0, 1])  # sqrt 2
    (iv,) = p.isolate_roots_open(F(0), F(2))
    lo, hi = p.refine_root(*iv, width=F(1, 10**15))
    assert hi - lo < F(1, 10**15)
    assert Sqrt2Num(lo) < SQRT2 < Sqrt2Num(hi)


@pytest.mark.parametrize("width", [F(0), F(-1, 10)], ids=["zero", "negative"])
def test_refine_root_refuses_width_at_most_zero(width):
    # the bisection would never reach a width <= 0
    with pytest.raises(ValueError, match="width"):
        Poly([-2, 0, 1]).refine_root(1, 2, width)


#: Quadratic endpoints around the roots +-sqrt 2 of x^2 - 2 and the
#: breakpoints of the five-player curve.
SQRT2_ENDS = [
    SQRT2_MINUS_1, TWO_MINUS_SQRT2, SQRT2, Sqrt2Num(0, -1), Sqrt2Num(1, 1), Sqrt2Num(1, -1)
]


@given(
    hst.lists(
        hst.tuples(hst.integers(-12, 12), hst.integers(1, 6), hst.integers(1, 3)),
        max_size=4,
    ),
    hst.integers(0, 2),
    hst.fractions(-5, 5, max_denominator=7).filter(bool),
    hst.integers(1, 30),
    hst.data(),
)
@example([(1, 2, 2), (1, 1, 1)], 0, F(-3), 13, None)  # double root at 1/2
@example([], 1, F(1), 15, None)  # +-sqrt 2 alone
def test_root_isolation_against_known_roots(factors, sqrt2_power, lead, digits, data):
    # lead * prod (b x - a)^m * (x^2 - 2)^sqrt2_power, whose roots are known
    p = poly([lead], *[[-2, 0, 1]] * sqrt2_power,
             *[[-a, b] for a, b, m in factors for _ in range(m)])
    roots = {Sqrt2Num(F(a, b)) for a, b, _ in factors}
    if sqrt2_power:
        roots |= {SQRT2, Sqrt2Num(0, -1)}
    roots = sorted(roots)
    if data is None:  # the examples: an interval around every root
        ends = [Sqrt2Num(-5), Sqrt2Num(5)]
    else:
        end = hst.fractions(-4, 4, max_denominator=12).map(Sqrt2Num)
        if roots:
            end = end | hst.sampled_from(roots)
        if sqrt2_power:
            end = end | hst.sampled_from(SQRT2_ENDS)
        ends = sorted(data.draw(hst.sets(end, min_size=2, max_size=2)))
    lo, hi = (e.a if e.is_rational else e for e in ends)
    inside = [r for r in roots if lo < r < hi]

    assert p.count_roots_open(lo, hi) == len(inside)
    intervals = p.isolate_roots_open(lo, hi)
    assert len(intervals) == len(inside)
    for (a, b), (c, _d) in zip(intervals, intervals[1:]):
        # ascending; neighbours may share an end, which is then no root
        # (the check below puts each root in exactly one interval)
        assert b <= c
    width = F(1, 10**digits)
    for (a, b), root in zip(intervals, inside):
        assert type(a) is Fraction and type(b) is Fraction
        assert lo <= a <= b <= hi
        # each interval holds its root and no other one
        assert [r for r in roots if a <= r <= b] == [root]
        if a == b:  # degenerate only on an exact root
            assert root == a
            continue
        assert a < root < b
        c, d = p.refine_root(a, b, width)
        assert type(c) is Fraction and type(d) is Fraction
        assert a <= c <= d <= b
        if c == d:
            assert root == c
        else:
            assert c < root < d and d - c < width


# ---------------------------------------------------------------------------
# Decimal rendering
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value,expected",
    [
        (F(9, 100), "0.09"),
        (F(8199, 100000), "0.08199"),
        (F(25, 32), "0.78125"),
        (F(1, 2), "0.5"),
        (F(1), "1"),
        (F(0), "0"),
        (F(-3, 4), "-0.75"),
        (F(1, 3), "0.333333333333"),
        (F(2, 3), "0.666666666667"),
    ],
)
def test_decimal_str(value, expected):
    assert decimal_str(value) == expected


def _decimal_oracle(value: Fraction, significant: int) -> str:
    """Round |value| half-even to ``significant`` digits on integers alone;
    an exact result drops the trailing zeros after its decimal point."""
    if value == 0:
        return "0"
    a, den = abs(value.numerator), value.denominator
    # e = floor(log10(a / den))
    e = len(str(a)) - len(str(den))
    if a * 10 ** max(0, -e) < den * 10 ** max(0, e):
        e -= 1
    k = significant - 1 - e  # digits kept after the decimal point
    d = den * 10 ** max(0, -k)
    q, r = divmod(a * 10 ** max(0, k), d)
    if 2 * r > d or (2 * r == d and q % 2):
        q += 1
    if q == 10**significant:
        q, k = q // 10, k - 1
    if r == 0:
        while k > 0 and q % 10 == 0:
            q, k = q // 10, k - 1
    if k <= 0:
        text = str(q * 10**-k)
    else:
        digits = str(q).rjust(k + 1, "0")
        text = digits[:-k] + "." + digits[-k:]
    return ("-" if value < 0 else "") + text


@given(
    # small numerators make half-way ties, the case half-even decides
    hst.integers(-999, 999) | hst.integers(-(10**25), 10**25),
    hst.integers(0, 20),
    hst.integers(0, 20),
    hst.sampled_from([1, 3, 7, 9, 11, 221, 999_999]),
    hst.sampled_from([1, 3, 6, 12, 20]),
)
@example(1, 2, 0, 1, 1)  # 0.25 -> 0.2
@example(-5, 1, 0, 1, 1)  # -2.5 -> -2
@example(3, 3, 0, 1, 3)  # 0.375 stays exact
@example(1001, 3, 3, 1, 3)  # 1.001 -> 1.00
@example(-95, 0, 0, 1, 1)  # -95 -> -100
def test_decimal_str_matches_integer_oracle(num, twos, fives, odd, significant):
    # 2^twos 5^fives alone gives a terminating decimal
    value = Fraction(num, 2**twos * 5**fives * odd)
    assert decimal_str(value, significant) == _decimal_oracle(value, significant)


def test_decimal_str_irrational():
    # 2 - sqrt2 = 0.5857864376269..., rounded at 12 significant digits
    assert decimal_str(TWO_MINUS_SQRT2) == "0.585786437627"
    assert decimal_str(SQRT2_MINUS_1) == "0.414213562373"
