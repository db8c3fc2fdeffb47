"""Matrix synthesis, brute force, constrained enumeration, symmetry."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as hst

import hatgame
from hatgame.adequate import AdequateSet, enumerate_adequate, set_probability
from hatgame.core import (
    FREE,
    GUESS_BLACK,
    GUESS_WHITE,
    PASS,
    DecisionMatrix,
    GameParams,
    ResourceLimitError,
    _cells,
    _guess_masks,
    evaluate_matrix,
    losing_configs,
    wins,
)
from hatgame.strategy import (
    all_matrices_for_set,
    brute_force_optimal,
    dedupe_player_permutation,
    free_invariance_check,
    matrix_from_set,
    permute_config,
    permute_matrix,
)

HALF = Fraction(1, 2)
NINE_TENTHS = Fraction(9, 10)


# ---------------------------------------------------------------------------
# matrix_from_set fixtures
# ---------------------------------------------------------------------------


def test_three_player_matrices():
    expected = {
        (0, 7): "-1 0 0 1\n-1 0 0 1\n-1 0 0 1",
        (1, 6): "0 -1 1 0\n0 -1 1 0\n1 0 0 -1",
        (2, 5): "0 1 -1 0\n1 0 0 -1\n0 -1 1 0",
        (3, 4): "1 0 0 -1\n0 1 -1 0\n0 1 -1 0",
    }
    for elems, text in expected.items():
        assert matrix_from_set(AdequateSet(elems, 3)).to_text() == text


def test_two_player_matrices():
    expected = {
        (0, 1): "-1 -1\n* 0",
        (0, 2): "* 0\n-1 -1",
        (0, 3): "-1 1\n-1 1",
        (1, 2): "1 -1\n1 -1",
        (1, 3): "0 *\n1 1",
        (2, 3): "1 1\n0 *",
    }
    for elems, text in expected.items():
        assert matrix_from_set(AdequateSet(elems, 2)).to_text() == text


def test_four_player_matrix_without_conflicts():
    m = matrix_from_set(AdequateSet((1, 6, 10, 13), 4))
    assert m.to_text() == (
        "0 -1 1 0 0 1 -1 0\n"
        "0 -1 1 0 0 1 -1 0\n"
        "0 -1 1 0 1 0 0 -1\n"
        "1 0 0 -1 0 -1 1 0"
    )
    assert m.free_cells() == ()


def test_four_player_matrix_with_free_cells():
    m = matrix_from_set(AdequateSet((1, 6, 9, 14), 4))
    assert m.free_cells() == ((1, 1), (1, 6))
    assert m.rows[0] == (0, FREE, 0, 0, 0, 0, FREE, 0)


def test_four_player_asymmetric_first_matrix():
    m = matrix_from_set(AdequateSet((1, 3, 12, 14), 4))
    assert m.to_text() == (
        "0 -1 0 -1 1 0 1 0\n"
        "0 -1 0 -1 1 0 1 0\n"
        "0 * 0 0 0 0 * 0\n"
        "1 1 0 0 0 0 -1 -1"
    )


def test_four_player_symmetric_first_matrix():
    m = matrix_from_set(AdequateSet((0, 1, 14, 15), 4))
    assert m.to_text() == (
        "-1 -1 0 0 0 0 1 1\n"
        "-1 -1 0 0 0 0 1 1\n"
        "-1 -1 0 0 0 0 1 1\n"
        "* 0 0 0 0 0 0 *"
    )


def test_five_player_symmetric_first_matrix():
    m = matrix_from_set(AdequateSet((0, 1, 2, 15, 23, 27, 28), 5))
    row123 = (-1, -1, -1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, -1)
    row45 = (FREE, -1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, -1, 0)
    assert m.rows == (row123, row123, row123, row45, row45)


def test_five_player_low_regime_first_matrix():
    m = matrix_from_set(AdequateSet((0, 7, 11, 19, 28, 29, 30), 5))
    row123 = (-1, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0, -1, 1, 1, 1, 0)
    row45 = (-1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, FREE, -1)
    assert m.rows == (row123, row123, row123, row45, row45)


def test_five_player_high_regime_first_matrix():
    m = matrix_from_set(AdequateSet((1, 6, 14, 22, 24, 27, 29), 5))
    row12 = (0, -1, 0, 0, 0, 0, FREE, 0, 1, 0, 0, 1, 0, 1, -1, 0)
    row34 = (0, -1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, -1, 1, 0, -1)
    row5 = (1, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, -1, -1, 1, 1, 0)
    assert m.rows == (row12, row12, row34, row34, row5)


# ---------------------------------------------------------------------------
# Generator soundness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [HALF, NINE_TENTHS, Fraction(11, 20)])
@pytest.mark.parametrize("n,size", [(2, 2), (3, 2), (4, 4)])
def test_generated_matrix_value_identity(n, size, p):
    params = GameParams(n, p)
    for aset in enumerate_adequate(n, size):
        m = matrix_from_set(aset)
        assert evaluate_matrix(m, params) == 1 - set_probability(aset, params)


def test_losing_configs_equal_the_set_for_free_less_matrices():
    for n, size in [(3, 2), (3, 3), (4, 4)]:
        for aset in enumerate_adequate(n, size):
            m = matrix_from_set(aset)
            if m.free_cells():
                continue
            assert losing_configs(m) == aset.elements


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------


def _ternary_code(matrix):
    """Player 1, score 0 is the leading digit; decision d is digit d + 1."""
    code = 0
    for row in matrix.rows:
        for d in row:
            code = 3 * code + d + 1
    return code


def test_brute_force_two_players_symmetric():
    best, matrices = brute_force_optimal(2, GameParams(2, HALF))
    assert best == HALF
    assert len(matrices) == 30
    assert len(dedupe_player_permutation(matrices, 2)) == 17
    codes = [_ternary_code(m) for m in matrices]
    assert codes == sorted(set(codes))


def test_brute_force_three_players_symmetric():
    best, matrices = brute_force_optimal(3, GameParams(3, HALF))
    assert best == Fraction(3, 4)
    expected = [
        matrix_from_set(AdequateSet(elems, 3))
        for elems in [(0, 7), (1, 6), (2, 5), (3, 4)]
    ]
    assert matrices == expected


def test_brute_force_three_players_asymmetric():
    best, matrices = brute_force_optimal(3, GameParams(3, NINE_TENTHS))
    assert best == Fraction(91, 100)
    expected = [
        matrix_from_set(AdequateSet(elems, 3))
        for elems in [(1, 6), (2, 5), (3, 4)]
    ]
    assert matrices == expected


def _flat_brute_force(n, params):
    """The search before mask groups, kept as the reference: the win mask
    of every one of the 3^(n 2^(n-1)) matrices, in ternary-code order."""
    choices = list(itertools.product((GUESS_BLACK, PASS, GUESS_WHITE), repeat=1 << (n - 1)))
    rows = [[_guess_masks((row,), (row_cells,)) for row in choices]
            for row_cells in _cells(n)]
    partial = [(0, 0)]
    for outcomes in rows[:-1]:
        partial = [(w | rw, r | rr) for w, r in partial for rw, rr in outcomes]
    win_masks = [(r | rr) & ~(w | rw) for w, r in partial for rw, rr in rows[-1]]
    weights = params.weights
    values = {
        m: sum(weights[n - c.bit_count()] for c in range(1 << n) if (m >> c) & 1)
        for m in set(win_masks)
    }
    best = max(values.values())
    codes = [i for i, m in enumerate(win_masks) if values[m] == best]
    return Fraction(best, params.total_weight), codes


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [Fraction(1, 20), HALF, NINE_TENTHS, Fraction(999, 1000)])
def test_brute_force_matches_the_flat_product(n, p):
    params = GameParams(n, p)
    best, matrices = brute_force_optimal(n, params)
    assert (best, [_ternary_code(m) for m in matrices]) == _flat_brute_force(n, params)


def test_package_imports_with_the_standard_library_alone():
    # -S leaves site-packages off the path: no third-party package is found
    env = dict(os.environ, PYTHONPATH=str(Path(hatgame.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "from hatgame import *; import hatgame.cli"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


#: Run in a fresh interpreter: pytest itself has loaded ``dataclasses``.
STARTUP_CHECK = """
import importlib, sys
before = set(sys.modules)
import hatgame.cli
loaded = set(sys.modules) - before
unused = {"dataclasses", "hatgame.adequate", "hatgame.analysis", "hatgame.strategy"}
assert not loaded & unused, sorted(loaded & unused)
import hatgame
# before any name is resolved, and so cached in the package namespace
assert set(hatgame.__all__) <= set(dir(hatgame))
# a submodule not yet imported is an attribute, as when the package
# imported them all
assert hatgame.strategy.__name__ == "hatgame.strategy"
for name in hatgame.__all__:
    home = importlib.import_module("hatgame." + hatgame._HOMES[name])
    value = getattr(hatgame, name)
    assert value is getattr(home, name), name
    assert getattr(value, "__module__", home.__name__) == home.__name__, name
try:
    hatgame.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("hatgame.no_such_name resolved")
"""


def test_cli_import_loads_only_what_a_call_runs():
    env = dict(os.environ, PYTHONPATH=str(Path(hatgame.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", STARTUP_CHECK],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_brute_force_rejects_larger_games():
    with pytest.raises(ValueError):
        brute_force_optimal(4, GameParams(4, HALF))


def test_brute_force_agrees_with_cover_optimum():
    from hatgame.adequate import optimal_sets

    for n in (2, 3):
        for p in (HALF, NINE_TENTHS, Fraction(3, 5)):
            params = GameParams(n, p)
            best, _ = brute_force_optimal(n, params)
            _, min_sum = optimal_sets(n, params, 2)
            assert best == 1 - min_sum


# ---------------------------------------------------------------------------
# All matrices for a set
# ---------------------------------------------------------------------------


def test_all_matrices_two_player_counts():
    counts = {
        a.elements: len(all_matrices_for_set(a)) for a in enumerate_adequate(2, 2)
    }
    assert counts == {
        (0, 1): 3,
        (0, 2): 3,
        (0, 3): 9,
        (1, 2): 9,
        (1, 3): 3,
        (2, 3): 3,
    }
    assert sum(counts.values()) == 30


def test_all_matrices_union_equals_brute_force():
    everything = []
    for a in enumerate_adequate(2, 2):
        everything.extend(all_matrices_for_set(a))
    _, brute = brute_force_optimal(2, GameParams(2, HALF))
    assert sorted(m.rows for m in everything) == sorted(m.rows for m in brute)


def test_all_matrices_exact_win_set():
    for a in enumerate_adequate(2, 2):
        for m in all_matrices_for_set(a):
            assert losing_configs(m) == a.elements


def test_all_matrices_three_players_unique():
    for a in enumerate_adequate(3, 2):
        ms = all_matrices_for_set(a)
        assert len(ms) == 1
        assert ms[0] == matrix_from_set(a)


def test_all_matrices_bounded_by_n_times_the_set_size():
    # the whole n = 3 cube is the largest n <= 3 set
    assert len(all_matrices_for_set(AdequateSet(range(8), 3))) == 16335
    # n = 4: 18 954 matrices for the first 6-element set, 374 706 for the
    # first 7-element one
    with pytest.raises(ResourceLimitError, match="n \\* size is supported up to 24, got 28"):
        all_matrices_for_set(next(enumerate_adequate(4, 7)))


# ---------------------------------------------------------------------------
# The win rule, written from the game's definition
# ---------------------------------------------------------------------------


def _rule_wins(rows, code):
    """Some guess is right, none is wrong; FREE reads as a pass.  Player i
    sees the other hats, MSB first, as its score."""
    n = len(rows)
    hats = [(code >> (n - 1 - i)) & 1 for i in range(n)]
    right = []
    for i in range(n):
        seen = 0
        for bit in hats[:i] + hats[i + 1 :]:
            seen = 2 * seen + bit
        d = rows[i][seen]
        if d in (GUESS_WHITE, GUESS_BLACK):
            right.append(d == (GUESS_WHITE if hats[i] == 0 else GUESS_BLACK))
    return any(right) and all(right)


def _rule_losses(rows):
    return tuple(c for c in range(1 << len(rows)) if not _rule_wins(rows, c))


def test_win_rule_on_random_matrices():
    rng = random.Random(2016)
    for n in range(2, 8):
        for _ in range(30):
            rows = tuple(
                tuple(rng.choice((GUESS_BLACK, PASS, GUESS_WHITE, FREE))
                      for _ in range(1 << (n - 1)))
                for _ in range(n)
            )
            m = DecisionMatrix(rows)
            assert [wins(m, c) for c in range(1 << n)] == [
                _rule_wins(rows, c) for c in range(1 << n)
            ]
            losses = _rule_losses(rows)
            assert losing_configs(m) == losses
            p = rng.choice((HALF, NINE_TENTHS, Fraction(1, 3)))
            expected = sum(
                p ** (n - c.bit_count()) * (1 - p) ** c.bit_count()
                for c in range(1 << n)
                if c not in losses
            )
            assert evaluate_matrix(m, GameParams(n, p)) == expected


def test_all_matrices_partition_the_two_player_strategies():
    # decode all 3^4 matrices, player-major and score-minor, player 1 /
    # score 0 the leading ternary digit, and group them by losing set
    by_losses = {}
    for digits in itertools.product((GUESS_BLACK, PASS, GUESS_WHITE), repeat=4):
        rows = (digits[:2], digits[2:])
        by_losses.setdefault(_rule_losses(rows), []).append(rows)
    listed = 0
    for size in range(2, 5):
        for a in enumerate_adequate(2, size):
            rows = [m.rows for m in all_matrices_for_set(a)]
            assert rows == by_losses.pop(a.elements, [])
            listed += len(rows)
    assert listed == 81 and not by_losses


def test_all_matrices_three_players_lose_exactly_on_their_set():
    totals = {}
    for size in (2, 3, 4):
        totals[size] = 0
        for a in enumerate_adequate(3, size):
            for m in all_matrices_for_set(a):
                assert _rule_losses(m.rows) == a.elements
                totals[size] += 1
    assert totals == {2: 4, 3: 624, 4: 25922}


# ---------------------------------------------------------------------------
# Player-permutation symmetry
# ---------------------------------------------------------------------------


def test_permute_config():
    # swap players 1 and 2 of a 3-player configuration
    assert permute_config(0b100, 3, (1, 0, 2)) == 0b010
    assert permute_config(0b101, 3, (1, 0, 2)) == 0b011
    assert permute_config(0b101, 3, (0, 1, 2)) == 0b101


@given(data=hst.data())
@settings(max_examples=100)
def test_permutation_preserves_value(data):
    n = data.draw(hst.integers(min_value=2, max_value=3))
    width = 1 << (n - 1)
    rows = tuple(
        tuple(
            data.draw(hst.sampled_from((GUESS_BLACK, PASS, GUESS_WHITE)))
            for _ in range(width)
        )
        for _ in range(n)
    )
    m = DecisionMatrix(rows)
    perm = tuple(data.draw(hst.permutations(range(n))))
    p = data.draw(hst.sampled_from((HALF, NINE_TENTHS, Fraction(1, 3))))
    params = GameParams(n, p)
    assert evaluate_matrix(permute_matrix(m, perm), params) == evaluate_matrix(
        m, params
    )


def test_permutation_action_is_compatible_with_sets():
    # relabeling players permutes the loss set accordingly
    perm = (2, 0, 1)
    aset = AdequateSet((1, 6), 3)
    m = matrix_from_set(aset)
    image = permute_matrix(m, perm)
    expected_losses = tuple(
        sorted(permute_config(c, 3, perm) for c in aset.elements)
    )
    assert losing_configs(image) == expected_losses


@pytest.mark.parametrize("perm", [(0, 1, 2, 3), (0, 0, 1), (0, 1), (1, 2, 3)])
def test_permute_matrix_refuses_a_non_permutation(perm):
    m = matrix_from_set(AdequateSet((1, 6), 3))
    with pytest.raises(ValueError):
        permute_matrix(m, perm)


def test_dedupe_single_matrix():
    m = matrix_from_set(AdequateSet((0, 7), 3))
    assert dedupe_player_permutation([m], 3) == [m]


def test_dedupe_table_of_four():
    mats = [
        matrix_from_set(AdequateSet(e, 3))
        for e in [(0, 7), (1, 6), (2, 5), (3, 4)]
    ]
    # {0,7} is fixed by relabeling; the other three form one orbit
    assert len(dedupe_player_permutation(mats, 3)) == 2


# ---------------------------------------------------------------------------
# FREE-cell invariance
# ---------------------------------------------------------------------------


def test_free_invariance_on_generated_matrices():
    params = GameParams(4, NINE_TENTHS)
    m = matrix_from_set(AdequateSet((1, 6, 9, 14), 4))
    assert free_invariance_check(m, params)
    assert free_invariance_check(
        matrix_from_set(AdequateSet((0, 7), 3)), GameParams(3, HALF)
    )


def test_free_invariance_counterexample():
    # a FREE whose resolution changes the value: guessing white on score 0
    # wins configuration 00, passing loses it
    bad = DecisionMatrix(((FREE, PASS), (PASS, PASS)))
    assert not free_invariance_check(bad, GameParams(2, HALF))


def test_free_invariance_refused_beyond_exhaustive_limit(monkeypatch):
    # 13 FREE cells would take 3^13 evaluations; refused before any
    cells = [FREE] * 13 + [PASS] * 19
    m = DecisionMatrix(tuple(tuple(cells[8 * i : 8 * i + 8]) for i in range(4)))

    def no_evaluation(*args):
        raise AssertionError("evaluated before refusing")

    monkeypatch.setattr("hatgame.strategy.evaluate_matrix", no_evaluation)
    with pytest.raises(ResourceLimitError):
        free_invariance_check(m, GameParams(4, HALF))


def test_free_invariance_all_generated_minimum_sets():
    for n, size, p in [(2, 2, NINE_TENTHS), (3, 2, HALF), (4, 4, NINE_TENTHS)]:
        params = GameParams(n, p)
        for aset in enumerate_adequate(n, size):
            assert free_invariance_check(matrix_from_set(aset), params)
