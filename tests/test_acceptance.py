"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (run with ``pytest -v`` or
``-s`` to see them); a failure reads as the criterion number plus the
assertion that broke.  Expected values are exact; where a tolerance is
stated it is asserted literally.
"""

import random
import time
from fractions import Fraction

from hatgame.adequate import (
    AdequateSet,
    Signature,
    _cover_tuples,
    adequate_sets_cached,
    is_adequate,
    is_adequate_hamming,
    min_cover_size,
    optimal_sets,
    set_probability,
    signature,
    size_sweep,
)
from hatgame.analysis import (
    COVERING_CODE_SIZE,
    complexity_table,
    count_optimal_sets,
    covering_check,
    dominance,
    dominance_graph,
    psi_closed_form,
    psi_solver,
    signature_poly,
)
from hatgame.core import GameParams, evaluate_matrix
from hatgame.polys import Poly, Sqrt2Num, TWO_MINUS_SQRT2
from hatgame.strategy import (
    brute_force_optimal,
    dedupe_player_permutation,
    free_invariance_check,
    matrix_from_set,
)

HALF = Fraction(1, 2)
NINE_TENTHS = Fraction(9, 10)
P55 = Fraction(11, 20)


def test_criterion_01_adequate_set_counts():
    t0 = time.perf_counter()
    five = list(_cover_tuples(5, 7))  # timed cold, straight off the search
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, "five-player enumeration must finish within 5 minutes"
    assert len(five) == 320

    assert len(adequate_sets_cached(2, 2)) == 6
    three = [a.elements for a in adequate_sets_cached(3, 2)]
    assert three == [(0, 7), (1, 6), (2, 5), (3, 4)]
    assert len(adequate_sets_cached(4, 4)) == 40
    assert len(adequate_sets_cached(5, 7)) == 320
    print("criterion 1 PASS: set counts 6/4/40/320, n=5 in %.1fs" % elapsed)


def test_criterion_02_asymmetric_optima():
    sets3, best3 = optimal_sets(3, GameParams(3, NINE_TENTHS), 2)
    assert best3 == Fraction(9, 100)
    assert len(sets3) == 3

    params4 = GameParams(4, NINE_TENTHS)
    sets4, best4 = optimal_sets(4, params4, 4)
    assert best4 == Fraction(9, 100)
    assert len(sets4) == 24
    from collections import Counter

    histogram = Counter(
        set_probability(a, params4) for a in adequate_sets_cached(4, 4)
    )
    assert histogram == {
        Fraction(9, 100): 24,
        Fraction(154, 1000): 6,
        Fraction(666, 1000): 6,
        Fraction(73, 100): 4,
    }

    sets5, best5 = optimal_sets(5, GameParams(5, NINE_TENTHS), 7)
    assert best5 == Fraction(8199, 100000)
    assert len(sets5) == 30
    assert sets5[0].elements == (1, 6, 14, 22, 24, 27, 29)
    assert (1, 6, 15, 23, 24, 26, 28) in {a.elements for a in sets5}
    print("criterion 2 PASS: optima 0.09 (x3), 0.09 (x24), 0.08199 (x30)")


def test_criterion_03_psi_values():
    assert psi_solver(2, GameParams(2, NINE_TENTHS)) == NINE_TENTHS

    expected = Poly.from_coeffs([1, -1, 1])  # 1 - p + p^2
    for n in (3, 4):
        psi = psi_closed_form(n)
        assert psi.pieces == (expected,)
        for k in range(1, 100):
            p = Fraction(k, 100)
            assert psi_solver(n, GameParams(n, p)) == expected(p)

    assert psi_closed_form(5)(HALF) == Fraction(25, 32)
    assert psi_solver(5, GameParams(5, HALF)) == Fraction(25, 32)

    psi5 = psi_closed_form(5)
    regime_points = {
        1: (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)),
        2: (Fraction(42, 100), Fraction(45, 100), Fraction(49, 100)),
        3: (Fraction(51, 100), Fraction(55, 100), Fraction(58, 100)),
        4: (Fraction(3, 5), Fraction(3, 4), NINE_TENTHS),
    }
    for piece, points in regime_points.items():
        for p in points:
            assert psi5.piece_index(p) == piece - 1
            assert psi_solver(5, GameParams(5, p)) == psi5.pieces[piece - 1](p)
    print("criterion 3 PASS: solver == closed form at 99+12 grid points, exactly")


def test_criterion_04_threshold_and_counts():
    result = dominance(
        Signature.from_compact("022210"), Signature.from_compact("024001")
    )
    assert result.relation == "crossing"
    (lo, hi), = result.roots
    assert hi - lo < Fraction(1, 10**12)
    assert Sqrt2Num(lo) <= TWO_MINUS_SQRT2 <= Sqrt2Num(hi)

    assert count_optimal_sets(5, P55) == 10
    assert count_optimal_sets(5, NINE_TENTHS) == 30
    assert count_optimal_sets(5, TWO_MINUS_SQRT2) == 40
    print("criterion 4 PASS: threshold isolated, optimal-set counts 10/30/40")


def test_criterion_05_brute_force_oracles():
    best2, mats2 = brute_force_optimal(2, GameParams(2, HALF))
    assert best2 == HALF
    assert len(mats2) == 30
    assert len(dedupe_player_permutation(mats2, 2)) == 17

    t0 = time.perf_counter()
    best3, mats3 = brute_force_optimal(3, GameParams(3, HALF))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, "three-player brute force must finish within 60 s"
    assert best3 == Fraction(3, 4)
    table = [
        matrix_from_set(AdequateSet(e, 3))
        for e in [(0, 7), (1, 6), (2, 5), (3, 4)]
    ]
    assert mats3 == table

    best39, mats39 = brute_force_optimal(3, GameParams(3, NINE_TENTHS))
    assert best39 == Fraction(91, 100)
    assert len(mats39) == 3
    print(
        "criterion 5 PASS: brute force 1/2 x30 (17 classes), 3/4 x4, "
        "0.91 x3; n=3 in %.1fs" % elapsed
    )


def test_criterion_06_oracle_equivalence():
    checked = 0
    for mask in range(1, 1 << 8):
        elems = [c for c in range(8) if (mask >> c) & 1]
        assert is_adequate(elems, 3) == is_adequate_hamming(elems, 3)
        checked += 1
    assert checked == 255

    rng = random.Random(987654321)
    for n in (4, 5):
        h = 1 << n
        for _ in range(100_000):
            elems = rng.sample(range(h), rng.randint(1, 2 * (n + 1)))
            assert is_adequate(elems, n) == is_adequate_hamming(elems, n)
    print("criterion 6 PASS: oracles agree on 255 + 2x100000 subsets")


def test_criterion_07_generator_soundness():
    ps = (HALF, NINE_TENTHS, P55)
    groups = [(2, 2), (3, 2), (4, 4), (5, 7)]
    for n, size in groups:
        for aset in adequate_sets_cached(n, size):
            m = matrix_from_set(aset)
            for p in ps:
                params = GameParams(n, p)
                assert evaluate_matrix(m, params) == 1 - set_probability(
                    aset, params
                )
            assert free_invariance_check(m, GameParams(n, NINE_TENTHS))
    print("criterion 7 PASS: matrix value identity + FREE invariance, 380 sets x 3 p")


def test_criterion_08_size_sweeps():
    rows3 = size_sweep(3, range(2, 9), GameParams(3, NINE_TENTHS))
    assert [r.signature.compact() for r in rows3] == [
        "0110", "1110", "1210", "1310", "1320", "1330", "1331",
    ]
    rows4 = size_sweep(4, range(4, 17), GameParams(4, NINE_TENTHS))
    assert [r.signature.compact() for r in rows4] == [
        "01210", "11210", "12210", "13210", "14210", "14310", "14410",
        "14510", "14610", "14620", "14630", "14640", "14641",
    ]
    low = size_sweep(5, (7, 8), GameParams(5, P55))
    assert [r.signature.compact() for r in low] == ["024001", "124001"]
    high = size_sweep(5, (7,), GameParams(5, NINE_TENTHS))
    assert high[0].signature.compact() == "022210"

    # the 17 -> 18 step in the low regime: 2 q^2 p^3 - p^5 is strictly
    # positive on (1/2, 2 - sqrt2) and vanishes exactly at the threshold
    P, Q = Poly.x(), Poly.from_coeffs([1, -1])
    step = 2 * Q**2 * P**3 - P**5
    interval = (HALF, TWO_MINUS_SQRT2)
    assert step.count_roots_open(*interval) == 0
    assert step(Fraction(11, 20)) > 0
    assert step(TWO_MINUS_SQRT2) == Sqrt2Num(0)
    # it stays strictly below both single-element weights q^3 p^2 and
    # q^2 p^3 throughout the regime, touching q^3 p^2 exactly at the
    # left endpoint
    assert (step - Q**3 * P**2)(HALF) == 0
    for single in (Q**3 * P**2, Q**2 * P**3):
        assert (step - single).count_roots_open(*interval) == 0
        assert (step - single)(Fraction(11, 20)) < 0
    print("criterion 8 PASS: sweep tables exact, 17->18 step sign proven")


def test_criterion_09_dominance_identities():
    P, Q = Poly.x(), Poly.from_coeffs([1, -1])
    p_minus_q = Poly.from_coeffs([-1, 2])

    diff_a = signature_poly(Signature.from_compact("022210")) - signature_poly(
        Signature.from_compact("111310")
    )
    assert diff_a == -(Q**2) * p_minus_q**2

    diff_bc = signature_poly(Signature.from_compact("102310")) - signature_poly(
        Signature.from_compact("120130")
    )
    # the difference is -2pq^4 + 2p^2q^3 + 2p^3q^2 - 2p^4q exactly ...
    assert diff_bc == -2 * P * Q**4 + 2 * P**2 * Q**3 + 2 * P**3 * Q**2 - 2 * P**4 * Q
    # ... which factors as -2pq (p-q)^2 (p+q) = -2pq (p-q)^2; guard against
    # the tempting cubed misfactorization, which is a different polynomial
    # (the negativity conclusion would be the same either way)
    assert diff_bc == -2 * P * Q * p_minus_q**2
    assert diff_bc != -2 * P * Q * p_minus_q**3
    assert diff_bc.count_roots_open(HALF, Fraction(1)) == 0
    assert diff_bc(Fraction(3, 4)) < 0

    graph = dominance_graph(5)
    assert len(graph.nodes) == 12
    flagged = graph.flagged_crossings()
    assert len(flagged) == 1
    i, j, _ = flagged[0]
    assert {graph.nodes[i].compact(), graph.nodes[j].compact()} == {
        "022210",
        "024001",
    }
    print("criterion 9 PASS: identities exact (quadratic factor), 12 nodes, 1 crossing")


def test_criterion_10_complexity_and_covering():
    rows = {r.n_players: r for r in complexity_table()}
    assert rows[3].full_strategies == 531441
    assert rows[3].reduced_strategies == 729
    assert rows[3].candidate_sets == 28
    assert rows[5].candidate_sets == 3365856

    # reference scientific-notation strings; two of them (n=4 full count
    # and n=6 candidate count) are truncations rather than roundings at
    # the second digit, so equality is asserted within one unit of that
    # digit and the correctly rounded strings are pinned explicitly
    published = {
        3: ("5.3E+5", "7.3E+2", "2.8E+1"),
        4: ("1.8E+15", "2.8E+11", "1.8E+3"),
        5: ("1.5E+38", "2.5E+33", "3.4E+6"),
        6: ("4.0E+91", "7.6E+85", "3.2E+12"),
        7: ("5.6E+213", "1.2E+207", "9.3E+19"),
        8: ("3.7E+488", "8.7E+480", "5.8E+40"),
        9: ("1.9E+1099", "5.0E+1090", "6.4E+80"),
    }
    computed = {
        n: (rows[n].full_sci, rows[n].reduced_sci, rows[n].candidate_sci)
        for n in published
    }

    def within_one_ulp(ours: str, theirs: str) -> bool:
        m_ours, e_ours = ours.split("E+")
        m_theirs, e_theirs = theirs.split("E+")
        if e_ours != e_theirs:
            return False
        return abs(round(float(m_ours) * 10) - round(float(m_theirs) * 10)) <= 1

    truncated_cells = {(4, 0), (6, 2)}
    for n, cells in published.items():
        for k, theirs in enumerate(cells):
            ours = computed[n][k]
            assert within_one_ulp(ours, theirs), (n, k, ours, theirs)
            if (n, k) in truncated_cells:
                assert ours != theirs  # rounded vs truncated second digit
            else:
                assert ours == theirs
    assert computed[4][0] == "1.9E+15"
    assert computed[6][2] == "3.3E+12"

    for n in (2, 3, 4, 5):
        report = covering_check(n)
        assert report.computed_min_size == COVERING_CODE_SIZE[n]
        assert report.agrees is True
        assert min_cover_size(n) == COVERING_CODE_SIZE[n]
    print(
        "criterion 10 PASS: exact counts, magnitudes to 2 significant digits, "
        "min cover size == K(n,1) for n=2..5"
    )
