"""Adequacy oracles, enumeration, signatures and cover optimization."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as hst

from hatgame.adequate import (
    AdequateSet,
    NoAdequateSetError,
    Signature,
    _cover_search,
    _layer_prices,
    _plain_greedy,
    _search_tables,
    adequate_sets_cached,
    ball_mask,
    enumerate_adequate,
    is_adequate,
    is_adequate_hamming,
    min_cover_optimize,
    min_cover_size,
    optimal_sets,
    set_probability,
    signature,
    size_sweep,
)
from hatgame.analysis import psi_closed_form
from hatgame.core import _LIMITS, GameParams, ResourceLimitError

HALF = Fraction(1, 2)
NINE_TENTHS = Fraction(9, 10)
P55 = Fraction(11, 20)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def test_is_adequate_examples():
    assert is_adequate([0, 7], 3)
    assert not is_adequate([0, 1], 3)  # 110 shares no score with 000 or 001
    assert is_adequate(list(range(8)), 3)


def test_is_adequate_hamming_examples():
    assert is_adequate_hamming([1, 6], 3)
    assert not is_adequate_hamming([0], 3)  # ball {0,1,2,4} misses 7
    assert is_adequate_hamming([0, 1], 2)


def test_oracles_reject_bad_input():
    for oracle in (is_adequate, is_adequate_hamming):
        with pytest.raises(ValueError):
            oracle([], 3)
        with pytest.raises(ValueError):
            oracle([1, 1], 3)
        with pytest.raises(ValueError):
            oracle([9], 3)


def test_oracle_equivalence_exhaustive_n3():
    universe = list(range(8))
    agree = 0
    for mask in range(1, 1 << 8):
        elems = [c for c in universe if (mask >> c) & 1]
        assert is_adequate(elems, 3) == is_adequate_hamming(elems, 3)
        agree += 1
    assert agree == 255


@pytest.mark.parametrize("n,trials", [(4, 100_000), (5, 100_000)])
def test_oracle_equivalence_random(n, trials):
    rng = random.Random(12345)
    h = 1 << n
    for _ in range(trials):
        size = rng.randint(1, 2 * (n + 1))
        elems = rng.sample(range(h), size)
        assert is_adequate(elems, n) == is_adequate_hamming(elems, n)


def test_ball_mask():
    assert ball_mask(0, 3) == sum(1 << c for c in (0, 1, 2, 4))
    assert ball_mask(7, 3) == sum(1 << c for c in (7, 6, 5, 3))
    for n in (2, 3, 4, 5):
        for c in range(1 << n):
            assert ball_mask(c, n).bit_count() == n + 1


@given(
    n=hst.integers(min_value=2, max_value=5),
    data=hst.data(),
)
@settings(max_examples=200)
def test_supersets_stay_adequate(n, data):
    # any superset of an adequate set is adequate
    h = 1 << n
    seeds = {2: (0, 3), 3: (1, 6), 4: (1, 6, 10, 13), 5: (0, 1, 2, 15, 23, 27, 28)}
    extra = data.draw(hst.sets(hst.integers(min_value=0, max_value=h - 1)))
    elems = tuple(sorted(set(seeds[n]) | extra))
    assert is_adequate_hamming(elems, n)
    assert is_adequate(elems, n)


def test_complement_symmetry():
    for n in (3, 4):
        for aset in enumerate_adequate(n, min_cover_size(n)):
            comp = tuple(sorted(e ^ ((1 << n) - 1) for e in aset.elements))
            flipped = AdequateSet(comp, n)  # constructor revalidates
            assert signature(flipped) == signature(aset).reversed()
            p, q = Fraction(9, 10), Fraction(1, 10)
            assert set_probability(flipped, GameParams(n, q)) == set_probability(
                aset, GameParams(n, p)
            )


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def test_adequate_set_validates():
    with pytest.raises(ValueError):
        AdequateSet((0, 1), 3)  # not adequate
    aset = AdequateSet((7, 0), 3)  # sorts
    assert aset.elements == (0, 7)
    assert aset.size == 2


def test_signature_examples():
    assert signature(AdequateSet((1, 6, 10, 13), 4)).compact() == "01210"
    assert signature(AdequateSet((0, 7), 3)).counts == (1, 0, 0, 1)
    s = Signature.from_compact("022210")
    assert s.size == 7 and s.n_players == 5
    assert Signature.from_compact("1-5-10-0-0-1").counts == (1, 5, 10, 0, 0, 1)


def test_set_probability_examples():
    assert set_probability(AdequateSet((1, 6), 3), GameParams(3, NINE_TENTHS)) == Fraction(9, 100)
    assert set_probability(AdequateSet((0, 7), 3), GameParams(3, NINE_TENTHS)) == Fraction(73, 100)
    # at p = 1/2 every set of the same size weighs size/2^n
    for aset in enumerate_adequate(4, 4):
        assert set_probability(aset, GameParams(4, HALF)) == Fraction(4, 16)


def test_signature_probability_agrees_with_set_probability():
    params = GameParams(5, P55)
    q = 1 - P55
    for aset in adequate_sets_cached(5, 7)[:50]:
        # direct sum of p^z q^(n-z) over the elements, z = white hats
        direct = sum(P55 ** (5 - e.bit_count()) * q ** e.bit_count() for e in aset)
        assert signature(aset).probability(params) == direct
        assert set_probability(aset, params) == direct


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumeration_counts_and_first_rows():
    assert [a.elements for a in enumerate_adequate(3, 2)] == [
        (0, 7),
        (1, 6),
        (2, 5),
        (3, 4),
    ]
    assert list(enumerate_adequate(3, 1)) == []
    n2 = [a.elements for a in enumerate_adequate(2, 2)]
    assert n2 == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    n4 = [a.elements for a in enumerate_adequate(4, 4)]
    assert len(n4) == 40
    assert n4[:10] == [
        (0, 1, 14, 15),
        (0, 2, 13, 15),
        (0, 3, 13, 14),
        (0, 4, 11, 15),
        (0, 5, 11, 14),
        (0, 6, 11, 13),
        (0, 7, 8, 15),
        (0, 7, 9, 14),
        (0, 7, 10, 13),
        (0, 7, 11, 12),
    ]


def test_enumeration_five_players():
    sets = adequate_sets_cached(5, 7)
    assert len(sets) == 320
    assert sets[0].elements == (0, 1, 2, 15, 23, 27, 28)
    # the first handful of the symmetric listing
    assert [s.elements for s in sets[1:5]] == [
        (0, 1, 3, 14, 22, 26, 29),
        (0, 1, 4, 15, 23, 26, 29),
        (0, 1, 5, 14, 22, 27, 28),
        (0, 1, 8, 15, 22, 27, 29),
    ]


def test_enumeration_is_lexicographic_and_valid():
    tuples = [a.elements for a in enumerate_adequate(4, 5)]
    assert tuples == sorted(tuples)
    assert len(tuples) == 560


@pytest.mark.parametrize(
    "n,size",
    [(2, s) for s in range(1, 5)]
    + [(3, s) for s in range(1, 9)]
    + [(4, s) for s in range(1, 17)],
)
def test_enumeration_matches_score_oracle_filter(n, size):
    # every size-subset in lexicographic order, kept when the
    # score-comparison definition accepts it: no search, no ball masks
    expected = [
        elems
        for elems in itertools.combinations(range(1 << n), size)
        if is_adequate(elems, n)
    ]
    assert [a.elements for a in enumerate_adequate(n, size)] == expected


@lru_cache(maxsize=None)
def _five_player_listing(size):
    listed = tuple(a.elements for a in enumerate_adequate(5, size))
    return listed, frozenset(listed)


@given(size=hst.sampled_from((7, 8)), data=hst.data())
@settings(max_examples=150, deadline=None)
def test_listing_membership_matches_score_oracle(size, data):
    # a set is listed iff the score-comparison definition accepts it; draws
    # come from the listing, from a listed set with one element swapped, and
    # uniformly (almost never adequate)
    listed, members = _five_player_listing(size)
    source = data.draw(hst.sampled_from(("listed", "swapped", "uniform")))
    if source == "uniform":
        elems = data.draw(hst.sets(hst.integers(0, 31), min_size=size, max_size=size))
    else:
        elems = set(data.draw(hst.sampled_from(listed)))
        if source == "swapped":
            elems.remove(data.draw(hst.sampled_from(sorted(elems))))
            elems.add(data.draw(hst.integers(0, 31).filter(lambda e: e not in elems)))
    elems = tuple(sorted(elems))
    assert (elems in members) == is_adequate(elems, 5)


def test_one_left_listing_refused_at_the_same_count(monkeypatch):
    # at the minimum size nothing is padded: every one of the 320 sets of
    # n = 5, size 7 ends on its last element's two-ball read-off
    monkeypatch.setitem(_LIMITS, "sets in one adequate-set listing", 319)
    message = ("sets in one adequate-set listing is supported up to 319, "
               "got at least 320")
    with pytest.raises(ResourceLimitError, match="^%s$" % message):
        list(enumerate_adequate(5, 7))
    monkeypatch.setitem(_LIMITS, "sets in one adequate-set listing", 320)
    assert len(list(enumerate_adequate(5, 7))) == 320


def test_enumeration_five_players_size_eight_has_no_repeats():
    tuples = [a.elements for a in enumerate_adequate(5, 8)]
    assert len(tuples) == 24340
    assert len(set(tuples)) == len(tuples)


def test_enumeration_refused_for_six_players():
    with pytest.raises(ResourceLimitError):
        list(enumerate_adequate(6, 12))


@pytest.mark.parametrize("n", [0, 1, 17])
def test_enumeration_rejects_n_outside_the_domain_before_any_limit(n):
    # a domain error, not a resource limit, and not one about the size
    with pytest.raises(ValueError, match=r"^n must be in \[2, 16\], got %d$" % n):
        list(enumerate_adequate(n, 3))
    with pytest.raises(ResourceLimitError):
        list(enumerate_adequate(6, 3))


def test_five_element_sets_without_four_element_core():
    # of the 560 five-element sets, exactly 80 contain no adequate
    # four-element subset (they are not one-element extensions)
    four = {a.elements for a in enumerate_adequate(4, 4)}
    fresh = 0
    for aset in enumerate_adequate(4, 5):
        if not any(
            tuple(sub) in four for sub in itertools.combinations(aset.elements, 4)
        ):
            fresh += 1
    assert fresh == 80


def test_min_cover_size():
    assert min_cover_size(2) == 2
    assert min_cover_size(3) == 2
    assert min_cover_size(4) == 4
    assert min_cover_size(5) == 7


def test_min_cover_size_refused_for_six_players():
    with pytest.raises(ResourceLimitError):
        min_cover_size(6)


# ---------------------------------------------------------------------------
# Optimal sets at fixed size
# ---------------------------------------------------------------------------


def test_optimal_sets_three_players():
    sets, best = optimal_sets(3, GameParams(3, NINE_TENTHS), 2)
    assert best == Fraction(9, 100)
    assert [a.elements for a in sets] == [(1, 6), (2, 5), (3, 4)]


def test_optimal_sets_symmetric_ties():
    sets, best = optimal_sets(3, GameParams(3, HALF), 2)
    assert best == Fraction(1, 4)
    assert len(sets) == 4
    sets2, best2 = optimal_sets(2, GameParams(2, NINE_TENTHS), 2)
    assert best2 == Fraction(1, 10)
    assert [a.elements for a in sets2] == [(1, 3), (2, 3)]


def test_optimal_sets_four_players():
    sets, best = optimal_sets(4, GameParams(4, NINE_TENTHS), 4)
    assert best == Fraction(9, 100)
    assert len(sets) == 24


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_optimal_sets_equal_a_plain_filter(n):
    # the validated listing filtered by set_probability, which reads no
    # signature table, against optimal_sets and count_optimal_sets
    from hatgame.analysis import count_optimal_sets

    k_min = min_cover_size(n)
    for size in (k_min, k_min + 1):
        sets = adequate_sets_cached(n, size)
        for k in range(1, 10):
            params = GameParams(n, Fraction(k, 10))
            values = [set_probability(a, params) for a in sets]
            best = min(values)
            winners = [a for a, v in zip(sets, values) if v == best]
            assert optimal_sets(n, params, size) == (winners, best)
            if size == k_min:
                assert count_optimal_sets(n, params.p_white) == len(winners)


def test_optimal_sets_empty_size_raises():
    with pytest.raises(NoAdequateSetError):
        optimal_sets(3, GameParams(3, HALF), 1)


def test_four_player_sum_histogram():
    # sums over all 40 four-element sets at p = 9/10
    from collections import Counter

    params = GameParams(4, NINE_TENTHS)
    hist = Counter(
        set_probability(a, params) for a in enumerate_adequate(4, 4)
    )
    assert hist == {
        Fraction(9, 100): 24,
        Fraction(154, 1000): 6,
        Fraction(666, 1000): 6,
        Fraction(73, 100): 4,
    }


def test_four_player_full_sorted_listing():
    # all 40 sets ordered by (sum, elements): the complete reference table
    params = GameParams(4, NINE_TENTHS)
    ordered = sorted(
        (a.elements for a in enumerate_adequate(4, 4)),
        key=lambda e: (set_probability(AdequateSet(e, 4), params), e),
    )
    assert ordered == [
        (1, 3, 12, 14), (1, 5, 10, 14), (1, 6, 9, 14), (1, 6, 10, 13),
        (1, 6, 11, 12), (1, 7, 10, 12), (2, 3, 12, 13), (2, 5, 9, 14),
        (2, 5, 10, 13), (2, 5, 11, 12), (2, 6, 9, 13), (2, 7, 9, 12),
        (3, 4, 9, 14), (3, 4, 10, 13), (3, 4, 11, 12), (3, 5, 8, 14),
        (3, 6, 8, 13), (3, 7, 8, 12), (4, 5, 10, 11), (4, 6, 9, 11),
        (4, 7, 9, 10), (5, 6, 8, 11), (5, 7, 8, 10), (6, 7, 8, 9),
        (1, 2, 12, 15), (1, 4, 10, 15), (1, 6, 8, 15), (2, 4, 9, 15),
        (2, 5, 8, 15), (3, 4, 8, 15),
        (0, 3, 13, 14), (0, 5, 11, 14), (0, 6, 11, 13), (0, 7, 9, 14),
        (0, 7, 10, 13), (0, 7, 11, 12),
        (0, 1, 14, 15), (0, 2, 13, 15), (0, 4, 11, 15), (0, 7, 8, 15),
    ]


def test_five_player_class_values_at_nine_tenths():
    # the twelve distinct sums over the 320 seven-element sets
    params = GameParams(5, NINE_TENTHS)
    values = sorted(
        {set_probability(a, params) for a in adequate_sets_cached(5, 7)}
    )
    assert values == [
        Fraction(k, 100000)
        for k in (8199, 8271, 8839, 8911, 8919, 14751, 16039, 20431,
                  59391, 60759, 66591, 72279)
    ]


def test_five_player_reference_rows_present():
    # spot rows from the sorted five-player listing: two examples per
    # sum class at p = 9/10
    params = GameParams(5, NINE_TENTHS)
    by_elements = {
        a.elements: set_probability(a, params) for a in adequate_sets_cached(5, 7)
    }
    for elems, expected in [
        ((1, 6, 14, 22, 24, 27, 29), Fraction(8199, 100000)),
        ((1, 6, 15, 23, 24, 26, 28), Fraction(8199, 100000)),
        ((1, 6, 11, 13, 22, 23, 24), Fraction(8271, 100000)),
        ((1, 6, 11, 19, 24, 28, 29), Fraction(8271, 100000)),
        ((1, 6, 10, 18, 28, 29, 31), Fraction(8839, 100000)),
        ((1, 3, 5, 14, 22, 24, 31), Fraction(8911, 100000)),
        ((1, 3, 7, 12, 20, 26, 29), Fraction(8919, 100000)),
        ((1, 2, 7, 12, 20, 27, 28), Fraction(14751, 100000)),
        ((1, 2, 3, 12, 20, 24, 31), Fraction(16039, 100000)),
        ((1, 2, 4, 15, 23, 24, 31), Fraction(20431, 100000)),
        ((0, 7, 11, 19, 28, 29, 30), Fraction(59391, 100000)),
        ((0, 3, 5, 14, 22, 25, 30), Fraction(60759, 100000)),
        ((0, 1, 3, 14, 22, 26, 29), Fraction(66591, 100000)),
        ((0, 1, 2, 15, 23, 27, 28), Fraction(72279, 100000)),
    ]:
        assert by_elements[elems] == expected


# ---------------------------------------------------------------------------
# Global optimization
# ---------------------------------------------------------------------------


def test_min_cover_optimize_examples():
    aset, value = min_cover_optimize(4, GameParams(4, NINE_TENTHS))
    assert value == Fraction(9, 100)
    aset3, value3 = min_cover_optimize(3, GameParams(3, HALF))
    assert value3 == Fraction(1, 4)
    aset5, value5 = min_cover_optimize(5, GameParams(5, P55))
    sig = Signature.from_compact("024001")
    assert value5 == sig.probability(GameParams(5, P55))
    assert aset5.elements == (0, 7, 11, 19, 28, 29, 30)


def test_min_cover_witnesses_are_pinned():
    # witness and value of the global search at mirrored p: for p >= 1/2
    # the greedy incumbent and the search order decide which optimum is
    # reported, and the witness at p < 1/2 is the complement of that at 1 - p
    expected = {
        Fraction(1, 4): ((2, 4, 7, 9, 17, 25, 30), Fraction(159, 1024)),
        Fraction(2, 5): ((2, 4, 7, 9, 17, 25, 30), Fraction(618, 3125)),
        HALF: ((0, 1, 2, 15, 23, 27, 28), Fraction(7, 32)),
        Fraction(3, 5): ((1, 6, 14, 22, 24, 27, 29), Fraction(618, 3125)),
        Fraction(3, 4): ((1, 6, 14, 22, 24, 27, 29), Fraction(159, 1024)),
    }
    for p, (elements, value) in expected.items():
        aset, got = min_cover_optimize(5, GameParams(5, p))
        assert (aset.elements, got) == (elements, value)


def test_min_cover_witness_is_irredundant():
    for n, p in [(3, NINE_TENTHS), (4, P55), (5, NINE_TENTHS)]:
        aset, value = min_cover_optimize(n, GameParams(n, p))
        assert set_probability(aset, GameParams(n, p)) == value
        for e in aset.elements:
            rest = tuple(x for x in aset.elements if x != e)
            assert not is_adequate_hamming(rest, n)


def test_min_cover_never_beaten_by_fixed_size():
    for n, p in [(3, NINE_TENTHS), (4, NINE_TENTHS)]:
        params = GameParams(n, p)
        _, global_best = min_cover_optimize(n, params)
        for size in range(min_cover_size(n), (1 << n) + 1):
            _, best = optimal_sets(n, params, size)
            assert global_best <= best
        # equality at the minimum size
        _, at_min = optimal_sets(n, params, min_cover_size(n))
        assert global_best == at_min


def test_min_cover_node_budget():
    with pytest.raises(ResourceLimitError):
        min_cover_optimize(5, GameParams(5, NINE_TENTHS), node_budget=3)


def test_min_cover_unbounded_refused_beyond_six_players(monkeypatch):
    # refused before any table is built
    def no_tables(n):
        raise AssertionError("built the ball table for n=%d" % n)

    monkeypatch.setattr("hatgame.adequate._balls", no_tables)
    with pytest.raises(ResourceLimitError):
        min_cover_optimize(7, GameParams(7, HALF))


def test_min_cover_six_players_half_is_a_smallest_code():
    # at p = 1/2 the cheapest cover is a smallest one: K(6, 1) = 12
    aset, value = min_cover_optimize(6, GameParams(6, HALF), node_budget=1_500_000)
    assert aset.size == 12
    assert value == Fraction(3, 16)
    assert is_adequate(aset.elements, 6)


def test_min_cover_six_players_mirrored_tenths():
    # the budgets guard the node counts, 14 180 at both (p = 1/10 used to
    # exceed 30M nodes)
    full = (1 << 6) - 1
    low = min_cover_optimize(6, GameParams(6, Fraction(1, 10)), node_budget=15_600)
    high = min_cover_optimize(6, GameParams(6, NINE_TENTHS), node_budget=15_600)
    assert low[1] == high[1] == Fraction(8119, 100000)
    assert low[0].elements == tuple(sorted(e ^ full for e in high[0].elements))


def test_min_cover_six_players_witnesses_and_node_counts():
    # the coordinate-symmetry pruning, the layer dual bound, the
    # irredundant and translate incumbents and the cheapest-first cutoff
    # all keep the first optimum in search order, so the witnesses are
    # those of the unpruned search; the budgets, about 1.1 times the
    # counts, guard the node counts (14 180, 295 734 and 204 538 nodes at
    # 9/10, 1/2 and 3/5; 16 334, 295 734 and 213 469 without the translate
    # incumbent, 43 281, 295 741 and 524 962 with the cheapest-coverer
    # dual bound)
    expected = [
        (NINE_TENTHS, 15_600,
         (1, 6, 10, 28, 29, 31, 44, 45, 47, 48, 50, 51, 61, 63),
         Fraction(8119, 100000)),
        (HALF, 325_000,
         (0, 1, 2, 15, 23, 28, 39, 44, 52, 57, 58, 59), Fraction(3, 16)),
        (Fraction(3, 5), 225_000,
         (1, 3, 7, 12, 26, 29, 42, 45, 48, 52, 54, 59), Fraction(114, 625)),
    ]
    for p, budget, elements, value in expected:
        aset, got = min_cover_optimize(6, GameParams(6, p), node_budget=budget)
        assert (aset.elements, got) == (elements, value)
    # the exact-size search prunes too: the n = 5 size-10 row at 2/5 takes
    # 364 nodes with the padded-translate start and the layer dual (1 251
    # without them, 1 798 without the symmetry pruning)
    aset, value = _cover_search(5, GameParams(5, Fraction(2, 5)), size=10,
                                node_budget=450)
    assert (aset.elements, value) == (
        (0, 2, 4, 7, 8, 9, 16, 17, 25, 30), Fraction(746, 3125)
    )


def test_exact_size_search_node_budgets():
    # the padded-translate start and the layer dual at n = 5: 278 / 64 /
    # 106 / 134 nodes at 3/10, sizes 7..10 (761 / 1 006 / 1 116 / 1 180
    # without them), and 659 / 449 at 11/20, sizes 7 and 8 (1 157 / 1 314);
    # each budget leaves about 20% headroom
    expected = [
        (Fraction(3, 10), 7, 340, (2, 4, 7, 9, 17, 25, 30), Fraction(17157, 100000)),
        (Fraction(3, 10), 8, 80, (0, 7, 8, 9, 16, 17, 25, 30), Fraction(87, 500)),
        (Fraction(3, 10), 9, 130, (0, 4, 7, 8, 9, 16, 17, 25, 30),
         Fraction(17967, 100000)),
        (Fraction(3, 10), 10, 165, (0, 2, 4, 7, 8, 9, 16, 17, 25, 30),
         Fraction(9267, 50000)),
        (Fraction(11, 20), 7, 800, (0, 7, 11, 19, 28, 29, 30),
         Fraction(658229, 3200000)),
        (Fraction(11, 20), 8, 540, (0, 7, 11, 19, 28, 29, 30, 31),
         Fraction(358639, 1600000)),
    ]
    for p, size, budget, elements, value in expected:
        aset, got = _cover_search(5, GameParams(5, p), size=size, node_budget=budget)
        assert (aset.elements, got) == (elements, value)


def test_min_cover_seven_players_three_fifths():
    # the layer dual bound is within 0.1% of the optimum at the root here:
    # 80 nodes (90 without the translate incumbent), where the
    # cheapest-coverer bound ran past 5M
    aset, value = min_cover_optimize(7, GameParams(7, Fraction(3, 5)), node_budget=1_000)
    assert value == Fraction(78, 625)
    assert aset.size == 16
    assert is_adequate(aset.elements, 7)


@pytest.mark.parametrize("k", range(1, 20))
def test_min_cover_seven_players_every_twentieth(k):
    # the translate incumbent starts the search at the optimum's weight
    # + 1: at most 85 nodes at any k/20 (1 at 1/2), where 7/10 and 3/4
    # took 3.5M and 5.0M nodes without it
    aset, value = min_cover_optimize(7, GameParams(7, Fraction(k, 20)), node_budget=1_000)
    assert aset.size == 16
    assert is_adequate(aset.elements, 7)
    assert set_probability(aset, GameParams(7, Fraction(k, 20))) == value


def test_min_cover_seven_players_half_is_one_node():
    # the greedy cover at p = 1/2 is a perfect code, whose weight the
    # root's dual bound reaches: the root is cut before any child is counted
    aset, value = min_cover_optimize(7, GameParams(7, HALF), node_budget=1)
    assert (aset.size, value) == (16, Fraction(1, 8))
    assert is_adequate(aset.elements, 7)


def test_min_cover_seven_players_witnesses_are_pinned():
    # the witnesses and values the search gave before the translate
    # incumbent, which must not move them
    hamming_coset = (1, 6, 24, 31, 42, 45, 51, 52, 75, 76, 82, 85, 96, 103, 121, 126)
    for p, value in [(Fraction(3, 5), Fraction(78, 625)),
                     (Fraction(7, 10), Fraction(609, 5000)),
                     (Fraction(3, 4), Fraction(15, 128))]:
        aset, got = min_cover_optimize(7, GameParams(7, p), node_budget=1_000)
        assert (aset.elements, got) == (hamming_coset, value)


@given(
    n=hst.integers(min_value=2, max_value=7),
    p=hst.fractions(min_value=0, max_value=1, max_denominator=10_000).filter(
        lambda p: 0 < p < 1),
)
@example(n=5, p=HALF)
@settings(max_examples=100, deadline=None)
def test_search_tables_match_the_weight_order(n, p):
    # the cached tables depend on p only through p == 1/2: built as the
    # search once built them per call, from the weights at the heavier
    # color, they must agree at every p
    h = 1 << n
    flip = h - 1 if p < HALF else 0
    weights = [GameParams(n, p).weights[n - (c ^ flip).bit_count()] for c in range(h)]
    order = sorted(range(h), key=lambda e: (weights[e], e))
    tables = _search_tables(n, p == HALF)
    assert list(tables[0]) == order
    for c in range(h):
        ball = ball_mask(c, n)
        assert list(tables[1][c]) == [e for e in order if ball >> e & 1]
    # the runs of equal weight partition the order, in order
    at = 0
    for first, count, mask in tables[2]:
        run = order[at:at + count]
        assert run[0] == first
        assert {weights[e] for e in run} == {weights[first]}
        assert mask == sum(1 << e for e in run)
        at += count
    assert at == h
    # successive runs differ in weight, so each run is a whole weight class
    run_weights = [weights[first] for first, _, _ in tables[2]]
    assert len(set(run_weights)) == len(run_weights)


@given(p=hst.fractions(min_value=0, max_value=1, max_denominator=10_000).filter(
    lambda p: 0 < p < 1))
@settings(max_examples=40, deadline=None)
def test_min_cover_five_players_matches_the_closed_form(p):
    # the hand-coded Psi(5) shares no code with the search
    _, value = min_cover_optimize(5, GameParams(5, p))
    assert 1 - value == psi_closed_form(5)(p)


@pytest.mark.parametrize("n", range(2, 8))
def test_translates_of_the_plain_greedy_cover_are_adequate(n):
    # XOR by v maps radius-1 balls onto radius-1 balls; checked here with
    # the score-comparison oracle, which knows nothing of balls
    base = _plain_greedy(n)
    for v in range(1 << n):
        assert is_adequate([e ^ v for e in base], n)


@given(
    n=hst.integers(min_value=2, max_value=7),
    p=hst.fractions(min_value=0, max_value=1, max_denominator=10_000).filter(
        lambda p: 0 < p < 1),
)
@settings(max_examples=100, deadline=None)
def test_layer_prices_are_dual_feasible_and_above_cheapest_coverers(n, p):
    weights = GameParams(n, p).weights
    prices = _layer_prices(n, weights)
    layer = [n - c.bit_count() for c in range(1 << n)]
    balls = [[c for c in range(1 << n) if ball_mask(e, n) >> c & 1]
             for e in range(1 << n)]
    for e, ball in enumerate(balls):
        # the prices of a ball, scaled by n+1, fit in its element's weight
        assert sum(prices[layer[c]] for c in ball) <= (n + 1) * weights[layer[e]]
        # a configuration's coverers are the elements of its ball
        assert prices[layer[e]] >= min(weights[layer[c]] for c in ball)


# ---------------------------------------------------------------------------
# Size sweeps
# ---------------------------------------------------------------------------


def test_sweep_three_players_table():
    rows = size_sweep(3, range(2, 9), GameParams(3, NINE_TENTHS))
    assert [r.signature.compact() for r in rows] == [
        "0110",
        "1110",
        "1210",
        "1310",
        "1320",
        "1330",
        "1331",
    ]


def test_sweep_four_players_table():
    rows = size_sweep(4, range(4, 17), GameParams(4, NINE_TENTHS))
    assert [r.signature.compact() for r in rows] == [
        "01210",
        "11210",
        "12210",
        "13210",
        "14210",
        "14310",
        "14410",
        "14510",
        "14610",
        "14620",
        "14630",
        "14640",
        "14641",
    ]


def test_sweep_five_players_regime_rows():
    rows_low = size_sweep(5, (7, 8), GameParams(5, P55))
    assert [r.signature.compact() for r in rows_low] == ["024001", "124001"]
    rows_high = size_sweep(5, (7, 8), GameParams(5, NINE_TENTHS))
    assert rows_high[0].signature.compact() == "022210"
    assert rows_high[0].min_sum == Fraction(8199, 100000)
    # adding the cheapest element (all black, q^5) is optimal at das = 8
    assert rows_high[1].signature.compact() == "122210"
    assert rows_high[1].min_sum == Fraction(8199, 100000) + Fraction(1, 100000)


def test_sweep_infeasible_sizes_give_empty_rows():
    rows = size_sweep(3, (1, 2), GameParams(3, NINE_TENTHS))
    assert rows[0].signature is None and rows[0].min_sum is None
    assert rows[1].signature is not None


@lru_cache(maxsize=None)
def _listed_classes(n, size):
    by_sig = {}
    for aset in adequate_sets_cached(n, size):
        by_sig.setdefault(signature(aset), []).append(aset)
    return by_sig


def _check_sweep_row(n, size, p):
    # the sweep row agrees with exhaustive enumeration on the value, and its
    # witness is one of the enumerated optima
    by_sig = _listed_classes(n, size)
    params = GameParams(n, p)
    (row,) = size_sweep(n, (size,), params)
    if not by_sig:
        assert row.witness is None and row.min_sum is None
        return
    # a signature fixes the probability: one set per class suffices
    values = {sig: set_probability(sets[0], params) for sig, sets in by_sig.items()}
    best = min(values.values())
    assert row.min_sum == best
    assert values.get(row.signature) == best
    assert row.witness in by_sig[row.signature]


def test_sweep_exact_size_search_matches_exhaustive():
    # at p = 1/2 all flips of a configuration weigh the same: an orbit rule
    # that ignores the bits of the configuration being covered gives wrong
    # values there (n = 3 size 2, n = 4 size 4) and nowhere else in this list
    for n in (2, 3, 4):
        for size in range(1, (1 << n) + 1):
            for p in (NINE_TENTHS, P55, Fraction(1, 10), Fraction(2, 5), HALF):
                _check_sweep_row(n, size, p)
    for p in (P55, Fraction(2, 5), HALF):
        _check_sweep_row(5, 7, p)
    for p in (P55, HALF):
        _check_sweep_row(5, 8, p)


@given(k=hst.integers(min_value=1, max_value=199))
@settings(max_examples=100, deadline=None)
def test_sweep_rows_match_exhaustive_at_every_p(k):
    # the start of a sized search is a padded translate whose weight moves
    # with p; whichever translate it is, the row is the exhaustive optimum
    p = Fraction(k, 200)
    for size in range(1, 17):
        _check_sweep_row(4, size, p)
    _check_sweep_row(5, 8, p)


def test_sweep_exact_size_witnesses_are_pinned():
    # the witness at p < 1/2 is the complement of the witness at 1 - p
    rows = size_sweep(5, (10, 11, 12), GameParams(5, Fraction(3, 5)))
    assert [(r.signature.compact(), r.min_sum, r.witness.elements) for r in rows] == [
        ("142210", Fraction(746, 3125), (1, 6, 14, 15, 22, 23, 24, 27, 29, 31)),
        ("152210", Fraction(794, 3125), (1, 6, 14, 15, 22, 23, 24, 27, 29, 30, 31)),
        ("153210", Fraction(866, 3125), (1, 6, 11, 13, 15, 22, 23, 24, 27, 29, 30, 31)),
    ]
    (row,) = size_sweep(5, (10,), GameParams(5, Fraction(2, 5)))
    assert (row.signature.compact(), row.min_sum, row.witness.elements) == (
        "012241", Fraction(746, 3125), (0, 2, 4, 7, 8, 9, 16, 17, 25, 30)
    )
    # each witness at 9/10 is the first optimum in search order, and the
    # witness at 1/10 its complement; the lexicographically smallest optima
    # at 1/10 are (0, 1, 3, 5, 14) and (0, 1, 2, 3, 5, 14)
    rows = size_sweep(4, (5, 6), GameParams(4, NINE_TENTHS))
    assert [r.witness.elements for r in rows] == [
        (1, 3, 12, 14, 15), (1, 3, 7, 11, 12, 15)
    ]
    rows = size_sweep(4, (5, 6), GameParams(4, Fraction(1, 10)))
    assert [r.witness.elements for r in rows] == [
        (0, 1, 3, 12, 14), (0, 3, 4, 8, 12, 14)
    ]


def test_mirrored_p_give_complementary_witnesses():
    # the search runs at the heavier color, so p and 1 - p share one tree:
    # equal values, complementary witnesses, reversed signatures
    for n in (2, 3, 4, 5):
        full = (1 << n) - 1
        sizes = range(1, (1 << n) + 1) if n < 5 else (7, 8, 10)
        for k in range(1, 10):
            p, q = GameParams(n, Fraction(k, 20)), GameParams(n, Fraction(20 - k, 20))
            (a, va), (b, vb) = min_cover_optimize(n, p), min_cover_optimize(n, q)
            assert va == vb
            assert a.elements == tuple(sorted(e ^ full for e in b.elements))
            assert signature(a) == signature(b).reversed()
            for row_p, row_q in zip(size_sweep(n, sizes, p), size_sweep(n, sizes, q)):
                assert row_p.min_sum == row_q.min_sum
                if row_p.witness is None:
                    assert row_q.witness is None
                    continue
                assert row_p.witness.elements == tuple(
                    sorted(e ^ full for e in row_q.witness.elements))
                assert row_p.signature == row_q.signature.reversed()


def test_sweep_refused_for_six_players():
    with pytest.raises(ResourceLimitError):
        size_sweep(6, (12,), GameParams(6, P55))


def test_sweep_every_adequate_set_touches_the_all_white_ball():
    # any adequate set needs an element within distance one of the
    # all-white configuration; size rows violating that cannot exist
    ball0 = {0} | {1 << k for k in range(5)}
    for aset in adequate_sets_cached(5, 7):
        assert ball0 & set(aset.elements)
    # consequently a five-player signature with c_4 = c_5 = 0 is never
    # adequate, whatever its size
    for aset in adequate_sets_cached(5, 7):
        c = signature(aset).counts
        assert c[4] + c[5] >= 1


def test_sweep_large_size_rows_are_feasible_and_frozen():
    # branch-and-bound rows at sizes beyond exhaustive reach; the values
    # are locked in after cross-validation of the search at smaller sizes
    rows = size_sweep(5, (17, 18, 26, 31, 32), GameParams(5, P55))
    got = {r.size: r.signature.compact() for r in rows}
    assert got[17] == "1-5-10-0-0-1"
    assert got[31] == "1-5-10-10-5-0"
    assert got[32] == "1-5-10-10-5-1"
    # the two rows below differ from a naive pattern continuation: each
    # must keep an element within distance one of all-white, so c_4 >= 1
    assert got[18] == "159210"
    assert got[26] == "1-5-10-9-1-0"
    for r in rows:
        c = r.signature.counts
        assert c[4] + c[5] >= 1
