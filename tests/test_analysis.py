"""Polynomial dominance, the psi curve, counting, and complexity tables."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as hst
from polytools import difference, poly

from hatgame.adequate import Signature, adequate_sets_cached, signature
from hatgame.analysis import (
    COVERING_CODE_SIZE,
    ROOT_WIDTH,
    CurveRow,
    DominanceResult,
    _interval_weights,
    complexity_table,
    count_optimal_sets,
    covering_check,
    dominance,
    dominance_graph,
    optimal_signature_classes,
    psi_closed_form,
    psi_curve,
    psi_solver,
    sci_2sig,
    signature_classes,
    signature_poly,
)
from hatgame.core import GameParams, ResourceLimitError
from hatgame.polys import (
    Poly,
    SQRT2_MINUS_1,
    Sqrt2Num,
    TWO_MINUS_SQRT2,
    _rational_inside,
)

HALF = Fraction(1, 2)
NINE_TENTHS = Fraction(9, 10)
P55 = Fraction(11, 20)

#: p, q = 1 - p and p - q as coefficient lists
P = [0, 1]
Q = [1, -1]
P_MINUS_Q = [-1, 2]


def sig(text):
    return Signature.from_compact(text)


# ---------------------------------------------------------------------------
# Signature polynomials
# ---------------------------------------------------------------------------


def test_signature_poly_four_player_minimum_class():
    # p q^3 + 2 p^2 q^2 + p^3 q collapses to pq = p - p^2
    f = signature_poly(sig("01210"))
    assert f == poly(P, Q)
    assert f(NINE_TENTHS) == Fraction(9, 100)


def test_signature_poly_pure_powers():
    assert signature_poly(Signature((0, 0, 0, 1))) == poly(P, P, P)
    assert signature_poly(Signature((1, 0, 0, 0))) == poly(Q, Q, Q)


def test_signature_poly_five_player_minimum():
    assert signature_poly(sig("022210"))(NINE_TENTHS) == Fraction(8199, 100000)
    assert signature_poly(sig("024001"))(NINE_TENTHS) == Fraction(59391, 100000)


def test_signature_poly_matches_enumerated_sums():
    params = GameParams(5, NINE_TENTHS)
    for aset in adequate_sets_cached(5, 7)[:40]:
        s = signature(aset)
        from hatgame.adequate import set_probability

        assert signature_poly(s)(NINE_TENTHS) == set_probability(aset, params)


def _is_expansion(f, counts):
    """Whether the Poly f is sum_j c_j x^j (1 - x)^(n-j): degree at most n,
    and the sum, taken in plain Fraction, at n + 1 distinct rationals x.
    A polynomial of degree at most n is fixed by its values there."""
    n = len(counts) - 1
    points = [Fraction(k, n + 2) for k in range(1, n + 2)]
    return len(f.coeffs) <= n + 1 and all(
        f(x) == sum(c * x**j * (1 - x) ** (n - j) for j, c in enumerate(counts))
        for x in points
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_signature_poly_equals_ring_expansion_on_classes(n):
    for s in signature_classes(n):
        assert _is_expansion(signature_poly(s), s.counts)


@given(
    hst.integers(2, 6).flatmap(
        lambda n: hst.lists(hst.integers(0, 40), min_size=n + 1, max_size=n + 1)
    )
)
def test_signature_poly_equals_ring_expansion(counts):
    assert _is_expansion(signature_poly(Signature(tuple(counts))), counts)


# ---------------------------------------------------------------------------
# Dominance
# ---------------------------------------------------------------------------


def test_dominance_identity_a():
    # 022210 - 111310 = -q^2 (p - q)^2, strictly negative on (1/2, 1)
    diff = difference(signature_poly(sig("022210")), signature_poly(sig("111310")))
    assert diff == poly([-1], Q, Q, P_MINUS_Q, P_MINUS_Q)
    assert dominance(sig("022210"), sig("111310")).relation == "always_less"


def test_dominance_identity_bc():
    # 102310 - 120130 = -2pq^4 + 2p^2q^3 + 2p^3q^2 - 2p^4q, which factors
    # as -2pq (p - q)^2 (p + q); with p + q = 1 that is -2pq (p - q)^2
    diff = difference(signature_poly(sig("102310")), signature_poly(sig("120130")))
    assert _is_expansion(diff, (0, -2, 2, 2, -2, 0))
    assert diff == poly([-2], P, Q, P_MINUS_Q, P_MINUS_Q)
    # the same difference separates 013201 from 031021
    diff2 = difference(signature_poly(sig("013201")), signature_poly(sig("031021")))
    assert diff2 == diff
    assert dominance(sig("102310"), sig("120130")).relation == "always_less"
    assert dominance(sig("013201"), sig("031021")).relation == "always_less"


def test_dominance_symmetry_and_equal():
    assert dominance(sig("111310"), sig("022210")).relation == "always_greater"
    assert dominance(sig("022210"), sig("022210")).relation == "equal"


def test_dominance_crossing_isolates_threshold():
    result = dominance(sig("022210"), sig("024001"))
    assert result.relation == "crossing"
    assert len(result.roots) == 1
    lo, hi = result.roots[0]
    assert hi - lo < Fraction(1, 10**12)
    assert Sqrt2Num(lo) <= TWO_MINUS_SQRT2 <= Sqrt2Num(hi)


def test_dominance_on_subregimes():
    pair = (sig("022210"), sig("024001"))
    assert dominance(*pair, interval=(TWO_MINUS_SQRT2, Fraction(1))).relation == "always_less"
    assert dominance(*pair, interval=(Fraction(1, 2), TWO_MINUS_SQRT2)).relation == "always_greater"


def test_dominance_with_a_quadratic_endpoint():
    # the difference is p^2 (2p - 1)(p^2 - 4p + 2): on (sqrt2 - 1, 1) it
    # vanishes at the rational 1/2 and at 2 - sqrt2
    a, b = sig("022210"), sig("024001")
    diff = difference(signature_poly(a), signature_poly(b))
    assert diff == poly(P, P, [-1, 2], [2, -4, 1])
    result = dominance(a, b, (SQRT2_MINUS_1, Fraction(1)))
    assert result.relation == "crossing"
    exact, (lo, hi) = result.roots
    assert exact == (HALF, HALF)
    assert lo < TWO_MINUS_SQRT2 < hi and hi - lo < Fraction(1, 10**12)


#: The pairs of five-player classes that cross twice on
#: (sqrt2 - 1, 2 - sqrt2); every other pair crosses once, at p = 1/2, where
#: all minimum-size sets lose the same.
TWO_ROOT_PAIRS = {(0, 7), (1, 11), (4, 7), (5, 11)}


@pytest.mark.parametrize(
    "interval, n_edges, root_counts",
    [
        (
            (SQRT2_MINUS_1, TWO_MINUS_SQRT2),
            0,
            {
                (i, j): 2 if (i, j) in TWO_ROOT_PAIRS else 1
                for i in range(12)
                for j in range(i + 1, 12)
            },
        ),
        ((SQRT2_MINUS_1, HALF), 64, {(0, 7): 1, (1, 11): 1}),
    ],
    ids=["sqrt2-1..2-sqrt2", "sqrt2-1..1/2"],
)
def test_dominance_graph_on_quadratic_intervals(interval, n_edges, root_counts):
    lo, hi = interval
    g = dominance_graph(5, interval)
    assert len(g.edges) == n_edges
    assert {(i, j): len(roots) for i, j, roots in g.crossings} == root_counts
    for i, j, roots in g.crossings:
        diff = difference(signature_poly(g.nodes[i]), signature_poly(g.nodes[j]))
        assert len(roots) == diff.count_roots_open(lo, hi)
        for a, b in roots:
            # strictly inside, and each interval isolates one root
            assert lo < a <= b < hi
            if a == b:
                assert diff(a) == 0
            else:
                assert diff(a) != 0 and diff(b) != 0
                assert diff.count_roots_open(a, b) == 1


#: dominance_graph(n, interval) for n = 4 and 5, frozen: node labels,
#: edges and the exact root intervals of every crossing.  The file holds
#: one graph per line, keyed "n interval".
PINNED_GRAPHS = json.loads(
    (Path(__file__).parent / "data" / "dominance_graphs.json").read_text()
)
PINNED_INTERVALS = {
    "0..1/2": (Fraction(0), HALF),
    "1/2..1": (HALF, Fraction(1)),
    "0..1": (Fraction(0), Fraction(1)),
    "sqrt2-1..1/2": (SQRT2_MINUS_1, HALF),
    "sqrt2-1..2-sqrt2": (SQRT2_MINUS_1, TWO_MINUS_SQRT2),
}


@pytest.mark.parametrize(
    "key", list(PINNED_GRAPHS), ids=lambda key: key.replace(" ", "-").replace("/", "_")
)
def test_dominance_graph_matches_pinned_output(key):
    n, interval = key.split(" ")
    g = dominance_graph(int(n), PINNED_INTERVALS[interval])
    pinned = PINNED_GRAPHS[key]
    assert list(g.node_labels()) == pinned["nodes"]
    assert g.edges == tuple(tuple(e) for e in pinned["edges"])
    assert g.crossings == tuple(
        (i, j, tuple((Fraction(lo), Fraction(hi)) for lo, hi in roots))
        for i, j, roots in pinned["crossings"]
    )
    for _i, _j, roots in g.crossings:
        assert all(type(lo) is Fraction and type(hi) is Fraction for lo, hi in roots)


def _sturm_dominance(sig_a, sig_b, interval):
    """dominance by the Sturm path alone: the difference polynomial's
    isolated and refined roots, else its sign at one inside point."""
    lo, hi = interval
    diff = difference(signature_poly(sig_a), signature_poly(sig_b))
    if diff.is_zero:
        return DominanceResult("equal")
    roots = tuple(
        diff.refine_root(a, b, ROOT_WIDTH) for a, b in diff.isolate_roots_open(lo, hi)
    )
    if roots:
        return DominanceResult("crossing", roots)
    less = diff(_rational_inside(lo, hi)) < 0
    return DominanceResult("always_less" if less else "always_greater")


@hst.composite
def class_pairs(draw):
    n = draw(hst.integers(2, 6))
    counts = hst.lists(hst.integers(0, 6), min_size=n + 1, max_size=n + 1)
    return Signature(tuple(draw(counts))), Signature(tuple(draw(counts)))


#: Rational intervals, some of them reaching outside (0, 1).
rational_intervals = hst.sets(
    hst.fractions(-1, 2, max_denominator=12), min_size=2, max_size=2
).map(sorted)


@given(class_pairs(), rational_intervals)
# pairs that touch at a double root without swapping order: both paths
# report a crossing, and the coefficient signs never decide one
@example((sig("022210"), sig("111310")), [Fraction(0), Fraction(1)])
@example((sig("022210"), sig("111310")), [HALF, Fraction(1)])
@example((sig("102310"), sig("031021")), [Fraction(0), HALF])
def test_dominance_matches_the_sturm_path(pair, interval):
    assert dominance(*pair, tuple(interval)) == _sturm_dominance(*pair, interval)


def test_dominance_builds_a_chain_only_for_crossings(monkeypatch):
    # on the three rational intervals the coefficient signs decide all 94
    # of the 198 pairs that do not cross
    chains = []
    isolate = Poly.isolate_roots_open
    monkeypatch.setattr(
        Poly, "isolate_roots_open", lambda f, lo, hi: chains.append(f) or isolate(f, lo, hi)
    )
    intervals = [(Fraction(0), HALF), (HALF, Fraction(1)), (Fraction(0), Fraction(1))]
    graphs = [dominance_graph(5, interval) for interval in intervals]
    assert sum(len(g.edges) for g in graphs) == 94
    assert len(chains) == sum(len(g.crossings) for g in graphs) == 104


@pytest.mark.parametrize("n", [1, 2, 5])
def test_interval_weights_on_the_unit_interval_are_unit_vectors(n):
    assert _interval_weights(n, 0, 1, 1) == tuple(
        tuple(int(k == z) for k in range(n + 1)) for z in range(n + 1)
    )


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("a1, a2, d", [(1, 2, 3), (2, 5, 8), (-3, 7, 4)])
@pytest.mark.parametrize("t", [Fraction(1, 3), Fraction(1, 2), Fraction(5, 7)])
def test_interval_weights_are_the_monomials_in_s_and_t(n, a1, a2, d, t):
    s = 1 - t
    p = Fraction(a1, d) * s + Fraction(a2, d) * t
    for z, row in enumerate(_interval_weights(n, a1, a2, d)):
        form = sum(w * s ** (n - k) * t**k for k, w in enumerate(row))
        assert form == d**n * p**z * (1 - p) ** (n - z)


def test_dominance_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        dominance(sig("0110"), sig("022210"))


@pytest.mark.parametrize("other", ["022210", "024001"], ids=["equal", "different"])
def test_dominance_checks_the_interval_first(other):
    # an empty interval is refused before the equal-class shortcut
    with pytest.raises(ValueError, match="lo < hi"):
        dominance(sig("022210"), sig(other), (Fraction(1), Fraction(0)))


# ---------------------------------------------------------------------------
# Dominance graph
# ---------------------------------------------------------------------------


def test_five_player_signature_classes():
    labels = [s.compact() for s in signature_classes(5)]
    assert labels == [
        "022210",
        "013210",
        "111310",
        "102310",
        "012310",
        "012220",
        "100420",
        "120130",
        "024001",
        "013201",
        "013111",
        "031021",
    ]


def test_five_player_class_sizes():
    counts = {}
    for aset in adequate_sets_cached(5, 7):
        key = signature(aset).compact()
        counts[key] = counts.get(key, 0) + 1
    assert sum(counts.values()) == 320
    assert counts["022210"] == 30
    assert counts["024001"] == 10


def test_dominance_graph_shape():
    g = dominance_graph(5)
    assert len(g.nodes) == 12
    flagged = g.flagged_crossings()
    assert len(flagged) == 1
    i, j, roots = flagged[0]
    assert {g.nodes[i].compact(), g.nodes[j].compact()} == {"022210", "024001"}
    lo, hi = roots[0]
    assert Sqrt2Num(lo) <= TWO_MINUS_SQRT2 <= Sqrt2Num(hi)
    # classes that nothing always-dominates: the two optimum candidates
    assert [g.nodes[k].compact() for k in g.undominated()] == ["022210", "024001"]
    # crossings among already-dominated classes exist but are irrelevant;
    # the full count is a frozen regression value
    assert len(g.crossings) == 19


def test_dominance_graph_minimal_class_in_high_regime():
    interval = (TWO_MINUS_SQRT2, Fraction(1))
    best = sig("022210")
    for other in signature_classes(5):
        if other == best:
            continue
        assert dominance(best, other, interval).relation == "always_less"


def test_four_player_dominant_class():
    # 01210 beats the other three classes everywhere on (1/2, 1)
    labels = [s.compact() for s in signature_classes(4)]
    assert labels == ["01210", "10120", "02101", "11011"]
    best = sig("01210")
    for other in signature_classes(4)[1:]:
        assert dominance(best, other).relation == "always_less"


def test_dominance_graph_dot_output():
    g = dominance_graph(4)
    dot = g.to_dot()
    assert dot.startswith("digraph dominance {")
    assert '"01210" -> "10120";' in dot or '"01210" -> "02101";' in dot


# ---------------------------------------------------------------------------
# psi closed form
# ---------------------------------------------------------------------------


def test_psi_two_players_is_max_p_q():
    psi = psi_closed_form(2)
    assert psi(Fraction(3, 10)) == Fraction(7, 10)
    assert psi(NINE_TENTHS) == NINE_TENTHS
    assert psi(HALF) == HALF


def test_psi_three_equals_one_minus_pq():
    psi = psi_closed_form(3)
    assert psi.pieces == (Poly([1, -1, 1]),)
    # 1 - pq = 0.75 + (p - 1/2)^2 as polynomials
    half = [-Fraction(1, 2), 1]
    assert difference(psi.pieces[0], poly(half, half)) == Poly([Fraction(3, 4)])


def test_psi_four_equals_psi_three():
    assert psi_closed_form(4).pieces == psi_closed_form(3).pieces


def test_psi_five_fixtures():
    psi = psi_closed_form(5)
    assert psi(HALF) == Fraction(25, 32)
    assert psi(NINE_TENTHS) == Fraction(91801, 100000)
    assert len(psi.pieces) == 4
    assert psi.breakpoints[1:-1] == (SQRT2_MINUS_1, Sqrt2Num(HALF), TWO_MINUS_SQRT2)


def test_psi_five_continuity_at_breakpoints():
    psi = psi_closed_form(5)
    for k in range(len(psi.pieces) - 1):
        bp = psi.breakpoints[k + 1]
        assert psi.pieces[k](bp) == psi.pieces[k + 1](bp)


def test_psi_five_color_swap_symmetry():
    # psi(p) == psi(1 - p): pieces mirror around 1/2
    psi = psi_closed_form(5)
    # degree 5: agreement at six points is identity
    for t in range(6):
        assert psi.pieces[0](1 - t) == psi.pieces[3](t)
        assert psi.pieces[1](1 - t) == psi.pieces[2](t)


def test_psi_rejects_out_of_range():
    with pytest.raises(ValueError):
        psi_closed_form(6)
    with pytest.raises(ValueError):
        psi_closed_form(5)(Fraction(0))


# ---------------------------------------------------------------------------
# Solver vs closed form
# ---------------------------------------------------------------------------


def test_solver_matches_closed_form_on_grid():
    for n in (2, 3, 4):
        for k in range(1, 100):
            p = Fraction(k, 100)
            params = GameParams(n, p)
            closed = psi_closed_form(n)(p)
            closed = closed.as_fraction() if isinstance(closed, Sqrt2Num) else closed
            assert psi_solver(n, params) == closed


FIVE_PLAYER_REGIME_POINTS = {
    1: (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)),
    2: (Fraction(42, 100), Fraction(45, 100), Fraction(49, 100)),
    3: (Fraction(51, 100), Fraction(55, 100), Fraction(58, 100)),
    4: (Fraction(3, 5), Fraction(3, 4), Fraction(9, 10)),
}


@pytest.mark.parametrize("piece", sorted(FIVE_PLAYER_REGIME_POINTS))
def test_five_player_solver_matches_active_piece(piece):
    psi = psi_closed_form(5)
    for p in FIVE_PLAYER_REGIME_POINTS[piece]:
        assert psi.piece_index(p) == piece - 1
        expected = psi.pieces[piece - 1](p)
        assert psi_solver(5, GameParams(5, p)) == expected


def test_solver_resource_limits():
    with pytest.raises(ResourceLimitError):
        psi_solver(7, GameParams(7, HALF))
    with pytest.raises(ResourceLimitError):
        psi_solver(5, GameParams(5, NINE_TENTHS), node_budget=2)


def test_solver_budget_past_the_unbounded_row():
    # a budget lifts the n row of the unbounded search, and the budget
    # then stops it (at 1/2 the n = 7 search ends at its root)
    with pytest.raises(ResourceLimitError, match="node budget"):
        psi_solver(7, GameParams(7, Fraction(3, 5)), node_budget=10)


# ---------------------------------------------------------------------------
# psi curve
# ---------------------------------------------------------------------------


def _rational_rows(rows):
    out = {}
    for r in rows:
        p = r.p
        if isinstance(p, Sqrt2Num):
            if not p.is_rational:
                continue
            p = p.as_fraction()
        psi = r.psi.as_fraction() if isinstance(r.psi, Sqrt2Num) else Fraction(r.psi)
        out[p] = psi
    return out


def test_psi_curve_grid_and_minimum():
    rows = psi_curve(5, Fraction(1, 100), Fraction(99, 100), 98)
    # 99 grid points (1/2 relabeled as a breakpoint row) + 2 irrational
    # breakpoints inside the range
    assert len(rows) == 101
    rational = _rational_rows(rows)
    assert set(rational) == {Fraction(k, 100) for k in range(1, 100)}
    minimum = min((psi, p) for p, psi in rational.items())
    assert minimum == (Fraction(25, 32), HALF)


def test_psi_curve_symmetry():
    rows = psi_curve(5, Fraction(1, 100), Fraction(99, 100), 98)
    by_p = _rational_rows(rows)
    for k in range(1, 100):
        p = Fraction(k, 100)
        assert by_p[p] == by_p[1 - p]


def test_psi_curve_three_players_matches_formula():
    rows = psi_curve(3, Fraction(1, 10), Fraction(9, 10), 8)
    for r in rows:
        assert r.psi == 1 - r.p + r.p * r.p


def test_psi_curve_breakpoint_rows():
    rows = psi_curve(5, Fraction(2, 5), Fraction(3, 5), 2)
    bps = [r for r in rows if r.is_breakpoint]
    assert len(bps) == 3  # sqrt2-1, 1/2 and 2-sqrt2 all inside [0.4, 0.6]
    labels = [r.piece for r in bps]
    assert labels == ["1|2", "2|3", "3|4"]
    # a breakpoint landing on a grid point keeps the breakpoint label
    halves = [r for r in rows if isinstance(r.p, Sqrt2Num) and r.p == Sqrt2Num(HALF)]
    assert len(halves) == 1 and halves[0].piece == "2|3"
    # rows are sorted by p
    keys = [
        r.p if isinstance(r.p, Sqrt2Num) else Sqrt2Num(Fraction(r.p)) for r in rows
    ]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "n,p_min,p_max,steps,expected",
    [
        # starts on the breakpoint 1/2
        (5, HALF, Fraction(3, 5), 3, [
            (Sqrt2Num(HALF), "2|3", True, Sqrt2Num),
            (Fraction(8, 15), "3", False, Fraction),
            (Fraction(17, 30), "3", False, Fraction),
            (TWO_MINUS_SQRT2, "3|4", True, Sqrt2Num),
            (Fraction(3, 5), "4", False, Fraction),
        ]),
        # ends on the breakpoint 1/2
        (5, Fraction(2, 5), HALF, 3, [
            (Fraction(2, 5), "1", False, Fraction),
            (SQRT2_MINUS_1, "1|2", True, Sqrt2Num),
            (Fraction(13, 30), "2", False, Fraction),
            (Fraction(7, 15), "2", False, Fraction),
            (Sqrt2Num(HALF), "2", True, Sqrt2Num),
        ]),
        (2, Fraction(1, 10), HALF, 4, [
            (Fraction(1, 10), "1", False, Fraction),
            (Fraction(1, 5), "1", False, Fraction),
            (Fraction(3, 10), "1", False, Fraction),
            (Fraction(2, 5), "1", False, Fraction),
            (Sqrt2Num(HALF), "1", True, Sqrt2Num),
        ]),
        (2, HALF, NINE_TENTHS, 4, [
            (Sqrt2Num(HALF), "1|2", True, Sqrt2Num),
            (Fraction(3, 5), "2", False, Fraction),
            (Fraction(7, 10), "2", False, Fraction),
            (Fraction(4, 5), "2", False, Fraction),
            (NINE_TENTHS, "2", False, Fraction),
        ]),
        # the breakpoint falls between the two grid points
        (2, Fraction(1, 3), Fraction(2, 3), 1, [
            (Fraction(1, 3), "1", False, Fraction),
            (Sqrt2Num(HALF), "1|2", True, Sqrt2Num),
            (Fraction(2, 3), "2", False, Fraction),
        ]),
    ],
)
def test_psi_curve_edge_rows(n, p_min, p_max, steps, expected):
    rows = psi_curve(n, p_min, p_max, steps)
    assert [(r.p, r.piece, r.is_breakpoint, type(r.p)) for r in rows] == expected


def _naive_psi_curve(n, p_min, p_max, steps):
    """psi_curve by its documented rules, built row by row: the closed form
    at every grid point, each interior breakpoint in [p_min, p_max] added
    with the left piece's value and replacing the grid point it equals,
    all sorted exactly."""
    psi = psi_closed_form(n)
    breakpoints = [
        (j, bp) for j, bp in enumerate(psi.breakpoints[1:-1], 1) if p_min <= bp <= p_max
    ]
    rows = [
        CurveRow(bp, psi(bp), "%d|%d" % (j, j + 1) if bp < p_max else str(j), True)
        for j, bp in breakpoints
    ]
    for k in range(steps + 1):
        p = p_min + (p_max - p_min) * k / steps
        if all(bp != p for _j, bp in breakpoints):
            rows.append(CurveRow(p, psi(p), str(psi.piece_index(p) + 1)))
    return sorted(rows, key=lambda r: Sqrt2Num(r.p) if type(r.p) is Fraction else r.p)


#: Rationals strictly inside (0, 1); small denominators put grid points on
#: the breakpoint 1/2.
unit_rationals = hst.fractions(0, 1, max_denominator=24).filter(lambda p: 0 < p < 1)


@given(
    hst.integers(2, 5),
    hst.sets(unit_rationals, min_size=2, max_size=2).map(sorted),
    hst.integers(1, 40),
)
@example(5, [Fraction(2, 5), Fraction(3, 5)], 10)  # three breakpoints, 1/2 on the grid
@example(5, [HALF, Fraction(3, 5)], 3)  # starts on a breakpoint
@example(2, [Fraction(1, 10), HALF], 4)  # ends on one
@example(5, [Fraction(2, 5), Fraction(41, 100)], 7)  # no grid point past sqrt2 - 1
# runs of fewer rows than the d + 1 = 6 that seed the differences
@example(5, [Fraction(1, 3), Fraction(3, 5)], 1)
@example(5, [Fraction(1, 3), Fraction(3, 5)], 2)
@example(5, [Fraction(1, 3), Fraction(3, 5)], 3)
@example(5, [Fraction(1, 3), Fraction(3, 5)], 4)
def test_psi_curve_matches_naive_build(n, ends, steps):
    p_min, p_max = ends
    got = psi_curve(n, p_min, p_max, steps)
    want = _naive_psi_curve(n, p_min, p_max, steps)
    shape = lambda r: (r.p, type(r.p), r.psi, type(r.psi), r.piece, r.is_breakpoint)
    assert [shape(r) for r in got] == [shape(r) for r in want]


def test_psi_curve_fine_grid_matches_naive_build():
    # step 1/12000, too slow for a hypothesis example's deadline: lcm times
    # steps gives den = 143 976 000, which the grid's gcd brings to 12000
    args = (5, Fraction(1, 12000), Fraction(11999, 12000), 11998)
    shape = lambda r: (r.p, type(r.p), r.psi, type(r.psi), r.piece, r.is_breakpoint)
    assert [shape(r) for r in psi_curve(*args)] == [shape(r) for r in _naive_psi_curve(*args)]


# ---------------------------------------------------------------------------
# Optimal-set counting
# ---------------------------------------------------------------------------


def test_count_optimal_sets_regimes():
    assert count_optimal_sets(5, P55) == 10
    assert count_optimal_sets(5, NINE_TENTHS) == 30
    assert count_optimal_sets(5, TWO_MINUS_SQRT2) == 40
    assert count_optimal_sets(5, HALF) == 320


def test_count_optimal_sets_mirror_regimes():
    # color swap: the low-p regimes mirror the high-p ones
    assert count_optimal_sets(5, Fraction(2, 5)) == 30
    assert count_optimal_sets(5, Fraction(45, 100)) == 10
    assert count_optimal_sets(5, SQRT2_MINUS_1) == 40


def test_count_optimal_sets_small_n():
    assert count_optimal_sets(2, HALF) == 6
    assert count_optimal_sets(2, NINE_TENTHS) == 2
    assert count_optimal_sets(3, HALF) == 4
    assert count_optimal_sets(3, NINE_TENTHS) == 3
    assert count_optimal_sets(4, HALF) == 40
    assert count_optimal_sets(4, NINE_TENTHS) == 24


@pytest.mark.parametrize("p", [Fraction(0), Fraction(1), Fraction(3, 2)])
def test_optimal_counts_and_classes_refuse_p_outside_unit_interval(p):
    with pytest.raises(ValueError):
        count_optimal_sets(5, p)
    with pytest.raises(ValueError):
        optimal_signature_classes(5, p)
    with pytest.raises(ValueError):
        optimal_signature_classes(5, Sqrt2Num(p))


def test_rational_p_matches_its_quadratic_embedding():
    for n in (2, 3, 4, 5):
        for k in range(1, 20):
            p = Fraction(k, 20)
            assert count_optimal_sets(n, p) == count_optimal_sets(n, Sqrt2Num(p))
            assert optimal_signature_classes(n, p) == optimal_signature_classes(
                n, Sqrt2Num(p)
            )


def test_optimal_classes_stable_within_regimes():
    for points, expected in [
        (FIVE_PLAYER_REGIME_POINTS[3], ("024001",)),
        (FIVE_PLAYER_REGIME_POINTS[4], ("022210",)),
        (FIVE_PLAYER_REGIME_POINTS[1], ("012220",)),
        (FIVE_PLAYER_REGIME_POINTS[2], ("100420",)),
    ]:
        for p in points:
            labels = tuple(s.compact() for s in optimal_signature_classes(5, p))
            assert labels == expected
    # at the threshold both classes tie
    labels = tuple(
        s.compact() for s in optimal_signature_classes(5, TWO_MINUS_SQRT2)
    )
    assert labels == ("022210", "024001")


@pytest.mark.parametrize(
    "call",
    [
        lambda: psi_closed_form(5)(0.3),
        lambda: psi_closed_form(5).piece_index(0.3),
        lambda: psi_curve(5, 0.1, 0.9, 4),
        lambda: count_optimal_sets(5, 0.5857864376269049),
        lambda: optimal_signature_classes(5, 0.3),
        lambda: dominance(sig("022210"), sig("024001"), (0.5, 1.0)),
    ],
    ids=[
        "psi",
        "piece_index",
        "psi_curve",
        "count_optimal_sets",
        "optimal_signature_classes",
        "dominance",
    ],
)
def test_floats_are_refused(call):
    # a float p is a binary approximation: 0.3 is not 3/10, and the float
    # of 2 - sqrt2 misses the threshold where 40 sets tie
    with pytest.raises(TypeError, match="inexact float"):
        call()


# ---------------------------------------------------------------------------
# Covering check and complexity
# ---------------------------------------------------------------------------


def test_covering_check_computed_range():
    for n in (2, 3, 4, 5):
        report = covering_check(n)
        assert report.agrees is True
        assert report.computed_min_size == COVERING_CODE_SIZE[n]
    assert covering_check(5).symmetric_win_probability == Fraction(25, 32)


def test_covering_check_table_only():
    report = covering_check(9)
    assert report.computed_min_size is None
    assert report.agrees is None
    assert report.symmetric_win_probability == 1 - Fraction(62, 512)


def test_covering_check_rejects_unknown():
    with pytest.raises(ValueError):
        covering_check(10)


def test_sci_2sig():
    assert sci_2sig(1853020188851841) == "1.9E+15"
    assert sci_2sig(282429536481) == "2.8E+11"
    assert sci_2sig(3284214703056) == "3.3E+12"
    assert sci_2sig(531441) == "5.3E+5"
    assert sci_2sig(185) == "1.8E+2"  # ties round half even
    assert sci_2sig(175) == "1.8E+2"
    assert sci_2sig(999) == "1.0E+3"  # carry into the exponent
    assert sci_2sig(7) == "7.0E+0"


def test_complexity_exact_values():
    rows = {r.n_players: r for r in complexity_table()}
    assert rows[3].full_strategies == 531441
    assert rows[3].reduced_strategies == 729
    assert rows[3].candidate_sets == 28
    assert rows[4].candidate_sets == 1820
    assert rows[5].candidate_sets == 3365856
    assert rows[9].min_size == 62


def test_complexity_magnitudes():
    rows = {r.n_players: r for r in complexity_table()}
    expected = {
        3: ("5.3E+5", "7.3E+2", "2.8E+1"),
        4: ("1.9E+15", "2.8E+11", "1.8E+3"),
        5: ("1.5E+38", "2.5E+33", "3.4E+6"),
        6: ("4.0E+91", "7.6E+85", "3.3E+12"),
        7: ("5.6E+213", "1.2E+207", "9.3E+19"),
        8: ("3.7E+488", "8.7E+480", "5.8E+40"),
        9: ("1.9E+1099", "5.0E+1090", "6.4E+80"),
    }
    for n, (full, reduced, cand) in expected.items():
        assert rows[n].full_sci == full
        assert rows[n].reduced_sci == reduced
        assert rows[n].candidate_sci == cand
