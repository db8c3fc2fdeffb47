"""Exact polynomial analysis of optimal hat-game strategies.

A signature (c_0, ..., c_N) fixes a loss polynomial
sum_j c_j p^j (1-p)^(N-j); comparing two signature classes on an interval
is an exact sign question about their difference polynomial.  This module
classifies those comparisons (dominance), assembles the dominance graph of
the five-player loss classes, isolates the quadratic-irrational threshold
where the optimal class changes, builds the closed-form piecewise maximum
win probability psi(n, p) for n <= 5, and cross-checks the minimum loss-set
sizes against the known minimum sizes of radius-1 binary covering codes.

All of it is exact: rational arithmetic throughout, with the breakpoints
sqrt(2) - 1 and 2 - sqrt(2) represented as elements of Q(sqrt 2), never as
floats.
"""

from __future__ import annotations

import bisect
import math
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .adequate import (
    Signature,
    _signature_groups,
    min_cover_optimize,
    min_cover_size,
)
from .core import (
    _LIMITS,
    GameParams,
    _Frozen,
    _check_limit,
    _setattr,
    exact_fraction,
)
from .polys import (
    Number,
    Poly,
    SQRT2_MINUS_1,
    Sqrt2Num,
    TWO_MINUS_SQRT2,
    _exact,
    _horner,
    _rational_inside,
)

#: Minimum sizes K(n, 1) of binary covering codes of radius 1 for word
#: lengths 2..9, from the published bound tables (the n = 9 value pins an
#: interval closed in 2001/2005).  For the symmetric game the optimal
#: strategy loses on exactly K(n, 1) configurations.
COVERING_CODE_SIZE = {2: 2, 3: 2, 4: 4, 5: 7, 6: 12, 7: 16, 8: 32, 9: 62}


@lru_cache(maxsize=1024)
def signature_poly(sig: Signature) -> Poly:
    """Loss polynomial sum_j c_j p^j (1-p)^(n-j), cached per signature."""
    return Poly(_loss_coeffs(sig.counts))


def _loss_coeffs(counts: Sequence[int]) -> tuple[int, ...]:
    """Ascending coefficients of sum_j c_j p^j (1-p)^(n-j), n + 1 the
    number of counts, which may be negative.  Expanding (1-p)^(n-j) by the
    binomial theorem, the coefficient of p^k is the integer
    sum_{j<=k} c_j (-1)^(k-j) C(n-j, k-j)."""
    n = len(counts) - 1
    return tuple(
        sum(c * (-1) ** (k - j) * math.comb(n - j, k - j)
            for j, c in enumerate(counts[: k + 1]))
        for k in range(n + 1)
    )


@lru_cache(maxsize=64)
def _interval_weights(n: int, a1: int, a2: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Integer weights of the loss monomials on [a1/d, a2/d].

    With c_i = d - a_i, row z holds the coefficients of s^(n-k) t^k,
    k = 0..n, in (a1 s + a2 t)^z (c1 s + c2 t)^(n-z).  Writing
    p = (a1 s + a2 t)/d with s + t = 1 makes q = (c1 s + c2 t)/d, so row z
    is d^n p^z q^(n-z) in the variables s, t, and its entry k is C(n, k)
    times a Bernstein coefficient of d^n p^z q^(n-z) on the interval
    (Farouki and Rajan, CAGD 5, 1988)."""
    c1, c2 = d - a1, d - a2
    rows = []
    for z in range(n + 1):
        row = [1]
        for u, v in [(a1, a2)] * z + [(c1, c2)] * (n - z):
            row = [u * x + v * y for x, y in zip(row + [0], [0] + row)]
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Dominance between signature classes
# ---------------------------------------------------------------------------


class DominanceResult(_Frozen):
    """Sign classification of poly(a) - poly(b) on an open interval.

    relation is one of "equal", "always_less", "always_greater" or
    "crossing"; for crossings, ``roots`` holds one isolating rational
    interval per distinct interior root (degenerate (r, r) for exact
    rational roots).
    """

    __slots__ = _fields = ("relation", "roots")

    def __init__(
        self, relation: str, roots: tuple[tuple[Fraction, Fraction], ...] = ()
    ):
        _setattr(self, "relation", relation)
        _setattr(self, "roots", roots)


#: Isolating intervals returned by :func:`dominance` are refined below
#: this width.
ROOT_WIDTH = Fraction(1, 10**13)


def dominance(
    sig_a: Signature,
    sig_b: Signature,
    interval: tuple[Number, Number] = (Fraction(1, 2), Fraction(1)),
) -> DominanceResult:
    """Exact comparison of two loss classes on an open interval.

    "always_less" means class a is strictly cheaper (dominates) throughout
    the interval.  Interval endpoints may be rational or in Q(sqrt 2);
    floats are refused.

    The difference is sum_z D_z p^z q^(n-z) with D the difference of the
    counts; D = 0 is "equal", since those monomials are a basis.  On a
    rational interval [lo, hi] the sign is first read from the integers
    b_k = sum_z D_z w_zk of :func:`_interval_weights`: all b_k >= 0 is
    "always_greater" and all b_k <= 0 is "always_less".  Proof: each p in
    (lo, hi) is lo s + hi t with s, t in (0, 1) and s + t = 1, where
    d^n times the difference is sum_k b_k s^(n-k) t^k.  Every monomial
    s^(n-k) t^k is positive there, and D != 0 makes some b_k nonzero, as
    the rows are a basis too.  A root inside the interval rules out
    same-sign b_k, so this never decides a crossing or a touch.

    A Sturm chain is built only when the b_k have mixed signs or an end
    is irrational: the difference polynomial comes from D on integers
    (:func:`_loss_coeffs`), each root interval comes from
    :meth:`Poly.isolate_roots_open` on the interval itself, refined below
    ``ROOT_WIDTH``, and with no root inside, the sign of the difference at
    one rational point of the interval decides.
    """
    if sig_a.n_players != sig_b.n_players:
        raise ValueError("signatures must have equal player counts")
    lo, hi = (_exact(x) for x in interval)
    if not lo < hi:
        raise ValueError("need lo < hi")
    delta = [a - b for a, b in zip(sig_a.counts, sig_b.counts)]
    if not any(delta):
        return DominanceResult("equal")
    if isinstance(lo, Fraction) and isinstance(hi, Fraction):
        d = math.lcm(lo.denominator, hi.denominator)
        rows = _interval_weights(
            sig_a.n_players, lo.numerator * (d // lo.denominator),
            hi.numerator * (d // hi.denominator), d,
        )
        bern = [sum(dz * w for dz, w in zip(delta, col)) for col in zip(*rows)]
        if min(bern) >= 0:
            return DominanceResult("always_greater")
        if max(bern) <= 0:
            return DominanceResult("always_less")
    diff = Poly(_loss_coeffs(delta))
    roots = tuple(
        diff.refine_root(a, b, ROOT_WIDTH) for a, b in diff.isolate_roots_open(lo, hi)
    )
    if roots:
        return DominanceResult("crossing", roots)
    less = diff(_rational_inside(lo, hi)) < 0
    return DominanceResult("always_less" if less else "always_greater")


class DominanceGraph(_Frozen):
    """Dominance relations among the loss classes of minimum-size sets.

    nodes are ordered by their probability at p = 9/10; edges (i, j) mean
    node i is strictly cheaper than node j on the whole interval; crossing
    pairs have a root of their difference inside the interval.  Most swap
    order there, but a pair that touches at a double root without swapping
    (022210 and 111310 at 1/2, 102310 and 031021 at (3 - sqrt 5)/2) is
    reported as a crossing too.
    """

    __slots__ = _fields = ("n_players", "interval", "nodes", "edges", "crossings")

    def __init__(
        self,
        n_players: int,
        interval: tuple[Number, Number],
        nodes: tuple[Signature, ...],
        edges: tuple[tuple[int, int], ...],
        crossings: tuple[tuple[int, int, tuple[tuple[Fraction, Fraction], ...]], ...],
    ):
        _setattr(self, "n_players", n_players)
        _setattr(self, "interval", interval)
        _setattr(self, "nodes", nodes)
        _setattr(self, "edges", edges)
        _setattr(self, "crossings", crossings)

    def node_labels(self) -> tuple[str, ...]:
        return tuple(s.compact() for s in self.nodes)

    def undominated(self) -> tuple[int, ...]:
        """Nodes no other class beats on the whole interval: the candidate
        optimal classes."""
        beaten = {j for _i, j in self.edges}
        return tuple(k for k in range(len(self.nodes)) if k not in beaten)

    def flagged_crossings(
        self,
    ) -> tuple[tuple[int, int, tuple[tuple[Fraction, Fraction], ...]], ...]:
        """Crossings between undominated classes: the order swaps that
        actually move the optimum.  Crossings between already-dominated
        classes exist too but never matter."""
        live = set(self.undominated())
        return tuple(
            (i, j, roots) for i, j, roots in self.crossings if i in live and j in live
        )

    def to_dot(self) -> str:
        lines = ["digraph dominance {"]
        for s in self.nodes:
            lines.append('  "%s";' % s.compact())
        for i, j in self.edges:
            lines.append(
                '  "%s" -> "%s";' % (self.nodes[i].compact(), self.nodes[j].compact())
            )
        for i, j, _roots in self.flagged_crossings():
            lines.append(
                '  "%s" -> "%s" [dir=none, style=dashed, label="crossing"];'
                % (self.nodes[i].compact(), self.nodes[j].compact())
            )
        lines.append("}")
        return "\n".join(lines)


def signature_classes(n: int) -> tuple[Signature, ...]:
    """Distinct signatures of the minimum-size adequate sets, ordered by
    probability at p = 9/10 (ascending), ties by compact string."""
    params = GameParams(n, Fraction(9, 10))
    return tuple(
        sorted(
            (sig for sig, _ in _signature_groups(n, min_cover_size(n))),
            key=lambda s: (s.probability(params), s.compact()),
        )
    )


def dominance_graph(
    n: int = 5,
    interval: tuple[Number, Number] = (Fraction(1, 2), Fraction(1)),
) -> DominanceGraph:
    """Pairwise dominance among all minimum-size loss classes."""
    nodes = signature_classes(n)
    edges = []
    crossings = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            result = dominance(nodes[i], nodes[j], interval)
            if result.relation == "always_less":
                edges.append((i, j))
            elif result.relation == "always_greater":
                edges.append((j, i))
            elif result.relation == "crossing":
                crossings.append((i, j, result.roots))
    return DominanceGraph(n, interval, nodes, tuple(edges), tuple(crossings))


# ---------------------------------------------------------------------------
# The maximum win probability psi(n, p)
# ---------------------------------------------------------------------------


class PiecewisePsi(_Frozen):
    """Piecewise-polynomial maximum win probability on (0, 1).

    breakpoints has one more entry than pieces; piece k applies on the
    closed interval [breakpoints[k], breakpoints[k+1]] (adjacent pieces
    agree at shared breakpoints - the curve is continuous).
    """

    __slots__ = _fields = ("n_players", "breakpoints", "pieces")

    def __init__(
        self,
        n_players: int,
        breakpoints: tuple[Sqrt2Num, ...],
        pieces: tuple[Poly, ...],
    ):
        _setattr(self, "n_players", n_players)
        _setattr(self, "breakpoints", breakpoints)
        _setattr(self, "pieces", pieces)

    def piece_index(self, p: Number) -> int:
        """Index of the piece whose closed interval contains p (the
        leftmost one at interior breakpoints): one bisection of the
        breakpoints, which order against a rational p directly.  Floats
        are refused."""
        p = _exact(p)
        if not self.breakpoints[0] < p < self.breakpoints[-1]:
            raise ValueError("p must lie strictly between 0 and 1")
        return bisect.bisect_left(self.breakpoints, p) - 1

    def __call__(self, p: Number):
        return self.pieces[self.piece_index(p)](p)


@lru_cache(maxsize=8)
def psi_closed_form(n: int) -> PiecewisePsi:
    """Exact closed form of the maximum win probability for n in 2..5.

    n=2: max(p, q).  n=3 and n=4: 1 - pq.  n=5: four pieces that meet at
    sqrt(2)-1, 1/2 and 2-sqrt(2); the optimal loss class switches between
    the (0,2,2,2,1,0) and (0,2,4,0,0,1) families at the outer breakpoints.
    """
    zero = Sqrt2Num(Fraction(0))
    one = Sqrt2Num(Fraction(1))
    half = Sqrt2Num(Fraction(1, 2))
    if n == 2:
        return PiecewisePsi(
            2,
            (zero, half, one),
            (Poly.from_coeffs([1, -1]), Poly.from_coeffs([0, 1])),
        )
    if n in (3, 4):
        return PiecewisePsi(n, (zero, one), (Poly.from_coeffs([1, -1, 1]),))
    if n == 5:
        return PiecewisePsi(
            5,
            (zero, SQRT2_MINUS_1, half, TWO_MINUS_SQRT2, one),
            (
                Poly.from_coeffs([1, -1, 2, -2, 0, 1]),
                Poly.from_coeffs([0, 5, -10, 6, 1, -1]),
                Poly.from_coeffs([1, -2, 4, 0, -4, 1]),
                Poly.from_coeffs([1, -2, 6, -8, 5, -1]),
            ),
        )
    raise ValueError("closed forms are available for n in {2, 3, 4, 5}")


def psi_solver(n: int, params: GameParams, node_budget: int | None = None) -> Fraction:
    """Maximum win probability computed from first principles:
    1 - (minimum probability over all adequate sets).

    The search and its limits are those of :func:`min_cover_optimize`,
    ``node_budget`` included: exact and fast for n <= 5, and at n = 6 about
    1.5 s or less at every p = k/20.
    """
    _, value = min_cover_optimize(n, params, node_budget=node_budget)
    return 1 - value


class CurveRow(_Frozen):
    """One psi-curve sample: exact abscissa, exact value, piece label.

    Regular grid rows carry the 1-based piece index as their label;
    breakpoint rows carry "k|k+1", or "k" when the breakpoint is the last
    row.
    """

    __slots__ = _fields = ("p", "psi", "piece", "is_breakpoint")

    def __init__(self, p: Number, psi: Number, piece: str, is_breakpoint: bool = False):
        _setattr(self, "p", p)
        _setattr(self, "psi", psi)
        _setattr(self, "piece", piece)
        _setattr(self, "is_breakpoint", is_breakpoint)


def psi_curve(
    n: int, p_min: Fraction, p_max: Fraction, steps: int
) -> list[CurveRow]:
    """Evaluate the closed form on an equally spaced rational grid, with a
    row for each interior breakpoint in [p_min, p_max].

    Grid row k is p = (base + k * step) / den on integers, all three
    divided by their gcd (1/12000..11999/12000 in 11 998 steps has
    den = 12000, not the 143 976 000 of lcm times steps).  Each interior
    breakpoint in [p_min, p_max] is placed once, before the first grid row
    at or after it, which a bisection over k finds; grid rows in between
    take the piece they lie in.  A breakpoint row replaces the grid row it
    coincides with and is labelled "k|k+1", or "k" when it is p_max.
    Refused for more steps than its row of ``core._LIMITS``.

    On a run of grid rows with one piece of degree d, whose coefficients
    times their lcm L are the integers C_j, the value at row k is
    sum_j C_j (base + k step)^j den^(d-j) over L den^d, and that numerator
    is a degree-d polynomial in k.
    The run's first d + 1 numerators are :func:`_horner` sums; they seed a
    table of forward differences, and each later numerator takes d integer
    additions.  Each row builds one Fraction for p and one for psi.
    """
    p_min, p_max = exact_fraction(p_min), exact_fraction(p_max)
    if not (0 < p_min < p_max < 1):
        raise ValueError("need 0 < p_min < p_max < 1")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    psi = psi_closed_form(n)
    _check_limit("psi curve grid steps", steps)
    bps = psi.breakpoints
    den = math.lcm(p_min.denominator, p_max.denominator) * steps
    base = p_min.numerator * (den // p_min.denominator)
    step = (p_max.numerator * (den // p_max.denominator) - base) // steps
    g = math.gcd(base, step, den)
    base, step, den = base // g, step // g, den // g
    rows: list[CurveRow] = []

    def grid_p(k: int) -> Fraction:
        return Fraction(base + k * step, den)

    def grid(start: int, stop: int, i: int) -> None:
        label = str(i + 1)
        ints, lcm = psi.pieces[i]._integer_coeffs
        d = len(ints) - 1
        scale = lcm * den**d
        # diffs[m] is the m-th forward difference of the numerators at k
        diffs = [_horner(ints, base + k * step, den)
                 for k in range(start, min(stop, start + d + 1))]
        for m in range(1, len(diffs)):
            for j in range(len(diffs) - 1, m - 1, -1):
                diffs[j] -= diffs[j - 1]
        top = range(len(diffs) - 1)
        for k in range(start, stop):
            p = Fraction(base + k * step, den)
            rows.append(CurveRow(p, Fraction(diffs[0], scale), label))
            for j in top:
                diffs[j] += diffs[j + 1]

    # bps[0] = 0 < p_min and bps[-1] = 1 > p_max
    j = psi.piece_index(p_min) + 1  # the first breakpoint at or after p_min
    k = 0  # the next grid row
    while bps[j] <= p_max:
        bp = bps[j]
        at = bisect.bisect_left(range(steps + 1), bp, key=grid_p)
        grid(k, at, j - 1)
        label = "%d|%d" % (j, j + 1) if bp < p_max else str(j)
        rows.append(CurveRow(bp, psi.pieces[j - 1](bp), label, True))
        k = at + (bp == grid_p(at))
        j += 1
    grid(k, steps + 1, j - 1)
    return rows


# ---------------------------------------------------------------------------
# Optimal-set counting
# ---------------------------------------------------------------------------


def count_optimal_sets(n: int, p: Number) -> int:
    """How many minimum-size adequate sets attain the minimum probability
    at hat probability ``p``.

    ``p`` may be rational or a quadratic number (the interesting
    thresholds are sqrt(2)-1 and 2-sqrt(2), where two loss classes tie and
    the optimal families merge); comparison is exact either way.
    """
    return sum(len(sets) for _, sets in _optimal_classes(n, p))


def optimal_signature_classes(n: int, p: Number) -> tuple[Signature, ...]:
    """The loss classes attaining the minimum at ``p``, sorted by compact
    label (used for regime-stability checks)."""
    classes = (sig for sig, _ in _optimal_classes(n, p))
    return tuple(sorted(classes, key=Signature.compact))


def _optimal_classes(n: int, p: Number) -> list[tuple[Signature, tuple]]:
    """The minimum-size loss classes of least probability at ``p``, with
    their sets' elements.  At a rational p the classes are compared by
    their integer losses, the counts dotted with :attr:`GameParams.weights`
    (as :meth:`Signature.probability` does, without its common
    denominator); at a quadratic p each loss polynomial is evaluated in
    Q(sqrt 2).  Floats are refused."""
    x = _exact(p)
    if not 0 < x < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    classes = _signature_groups(n, min_cover_size(n))
    if isinstance(x, Sqrt2Num):
        values = [signature_poly(sig)(x) for sig, _ in classes]
    else:
        weights = GameParams(n, x).weights
        values = [sum(c * w for c, w in zip(sig.counts, weights))
                  for sig, _ in classes]
    best = min(values)
    return [cls for cls, value in zip(classes, values) if value == best]


# ---------------------------------------------------------------------------
# Covering-code cross-check and complexity comparison
# ---------------------------------------------------------------------------


class CoveringReport(_Frozen):
    """Comparison of the computed minimum loss-set size with the published
    covering-code size K(n, 1), plus the symmetric-game win bound."""

    __slots__ = _fields = (
        "n_players",
        "computed_min_size",
        "covering_code_size",
        "agrees",
        "symmetric_win_probability",
    )

    def __init__(
        self,
        n_players: int,
        computed_min_size: int | None,
        covering_code_size: int,
        agrees: bool | None,
        symmetric_win_probability: Fraction,
    ):
        _setattr(self, "n_players", n_players)
        _setattr(self, "computed_min_size", computed_min_size)
        _setattr(self, "covering_code_size", covering_code_size)
        _setattr(self, "agrees", agrees)
        _setattr(self, "symmetric_win_probability", symmetric_win_probability)


def covering_check(n: int) -> CoveringReport:
    """Check min loss-set size == K(n, 1); computed directly up to the
    minimum-cover-size row of ``core._LIMITS``, table-only beyond."""
    if n not in COVERING_CODE_SIZE:
        raise ValueError("covering-code sizes are tabulated for n in 2..9")
    k = COVERING_CODE_SIZE[n]
    computed = min_cover_size(n) if n <= _LIMITS["minimum cover size at n"] else None
    return CoveringReport(
        n_players=n,
        computed_min_size=computed,
        covering_code_size=k,
        agrees=None if computed is None else computed == k,
        symmetric_win_probability=1 - Fraction(k, 1 << n),
    )


def sci_2sig(value: int) -> str:
    """Scientific notation with 2 significant digits, round half even:
    1853020188851841 -> "1.9E+15"."""
    if value <= 0:
        raise ValueError("positive integers only")
    context = Context(prec=2, rounding=ROUND_HALF_EVEN)
    return format(context.create_decimal(value), ".1E")


class ComplexityRow(_Frozen):
    """Strategy-space sizes for one n: full brute force 3^(2^(n-1) n),
    the reduced bound 3^((2^(n-1)-2) n), and the number of candidate loss
    sets C(2^n, size)."""

    __slots__ = _fields = (
        "n_players",
        "min_size",
        "full_strategies",
        "reduced_strategies",
        "candidate_sets",
    )

    def __init__(
        self,
        n_players: int,
        min_size: int,
        full_strategies: int,
        reduced_strategies: int,
        candidate_sets: int,
    ):
        _setattr(self, "n_players", n_players)
        _setattr(self, "min_size", min_size)
        _setattr(self, "full_strategies", full_strategies)
        _setattr(self, "reduced_strategies", reduced_strategies)
        _setattr(self, "candidate_sets", candidate_sets)

    @property
    def full_sci(self) -> str:
        return sci_2sig(self.full_strategies)

    @property
    def reduced_sci(self) -> str:
        return sci_2sig(self.reduced_strategies)

    @property
    def candidate_sci(self) -> str:
        return sci_2sig(self.candidate_sets)


def complexity_table(n_values: Iterable[int] = range(2, 10)) -> list[ComplexityRow]:
    """Exact strategy-space sizes for each n, loss-set sizes from the
    covering-code table."""
    rows = []
    for n in n_values:
        if n not in COVERING_CODE_SIZE:
            raise ValueError("n must be in 2..9, got %r" % (n,))
        size = COVERING_CODE_SIZE[n]
        width = 1 << (n - 1)
        rows.append(
            ComplexityRow(
                n_players=n,
                min_size=size,
                full_strategies=3 ** (width * n),
                reduced_strategies=3 ** ((width - 2) * n),
                candidate_sets=math.comb(1 << n, size),
            )
        )
    return rows
