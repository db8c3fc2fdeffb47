"""Core model tests: configurations, scores, probabilities, matrices."""

import copy
import pickle
import re
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, strategies as hst

from hatgame.adequate import (
    AdequateSet,
    Signature,
    SweepRow,
    enumerate_adequate,
    min_cover_optimize,
    min_cover_size,
    size_sweep,
)
from hatgame.analysis import (
    DominanceResult,
    complexity_table,
    covering_check,
    dominance,
    dominance_graph,
    psi_closed_form,
    psi_curve,
)
from hatgame.core import (
    _LIMITS,
    FREE,
    GUESS_BLACK,
    GUESS_WHITE,
    PASS,
    DecisionMatrix,
    GameParams,
    ResourceLimitError,
    all_pass_matrix,
    bits,
    code_from_bits,
    config_probability,
    count_whites,
    evaluate_matrix,
    exact_fraction,
    flip,
    losing_configs,
    score,
    score_vector,
    wins,
)
from hatgame.polys import Poly, Sqrt2Num
from hatgame.strategy import all_matrices_for_set, free_invariance_check

HALF = Fraction(1, 2)
NINE_TENTHS = Fraction(9, 10)


# ---------------------------------------------------------------------------
# GameParams
# ---------------------------------------------------------------------------


def test_params_derive_q():
    params = GameParams(3, NINE_TENTHS)
    assert params.q_black == Fraction(1, 10)
    assert params.p_white + params.q_black == 1


def test_params_reject_floats():
    with pytest.raises(TypeError):
        GameParams(3, 0.9)


class _Ratio(Fraction):
    """A Fraction subclass: exact, but not returned as it is."""


def test_exact_fraction_returns_a_fraction_itself():
    x = Fraction(9, 10)
    assert exact_fraction(x) is x
    sub = exact_fraction(_Ratio(9, 10))
    assert type(sub) is Fraction and sub == x
    assert type(exact_fraction(3)) is Fraction and exact_fraction("9/10") == x
    with pytest.raises(TypeError, match="inexact float"):
        exact_fraction(0.9)


@pytest.mark.parametrize("n", [1, 0, 17, -2])
def test_params_reject_bad_n(n):
    with pytest.raises(ValueError):
        GameParams(n, HALF)


@pytest.mark.parametrize("p", [Fraction(0), Fraction(1), Fraction(3, 2)])
def test_params_reject_bad_p(p):
    with pytest.raises(ValueError):
        GameParams(3, p)


# ---------------------------------------------------------------------------
# Bits and scores
# ---------------------------------------------------------------------------


def test_bits_examples():
    assert bits(1, 3) == (0, 0, 1)
    assert bits(0, 4) == (0, 0, 0, 0)
    assert bits(10, 4) == (1, 0, 1, 0)


def test_bits_roundtrip_exhaustive():
    for n in (2, 3, 4, 5, 6):
        for code in range(1 << n):
            assert code_from_bits(bits(code, n)) == code


def test_score_vector_examples():
    assert score_vector(2, 3) == (2, 0, 1)
    assert score_vector(0, 3) == (0, 0, 0)
    assert score_vector(10, 4) == (2, 6, 4, 5)


def test_score_is_bits_with_position_deleted():
    for n in (2, 3, 4, 5):
        for code in range(1 << n):
            b = bits(code, n)
            for i in range(1, n + 1):
                others = b[: i - 1] + b[i:]
                expected = 0
                for bit in others:
                    expected = (expected << 1) | bit
                assert score(code, n, i) == expected


def test_score_reconstruction_roundtrip():
    # (player, score, own bit) pins the configuration uniquely
    for n in (2, 3, 4, 5, 6):
        for i in range(1, n + 1):
            seen = {}
            for code in range(1 << n):
                key = (score(code, n, i), (code >> (n - i)) & 1)
                assert key not in seen
                seen[key] = code


def test_flip_examples():
    assert flip(0b100, 3, 3) == 0b101
    assert flip(0, 4, 1) == 0b1000


def test_flip_involution_and_counterpart_law():
    for n in (2, 3, 4, 5):
        for code in range(1 << n):
            for i in range(1, n + 1):
                other = flip(code, n, i)
                assert flip(other, n, i) == code
                assert other != code
                assert (code ^ other).bit_count() == 1
                assert score(code, n, i) == score(other, n, i)


@given(
    n=hst.integers(min_value=2, max_value=12),
    data=hst.data(),
)
def test_counterpart_law_random(n, data):
    code = data.draw(hst.integers(min_value=0, max_value=(1 << n) - 1))
    i = data.draw(hst.integers(min_value=1, max_value=n))
    other = flip(code, n, i)
    assert score_vector(code, n)[i - 1] == score_vector(other, n)[i - 1]


# ---------------------------------------------------------------------------
# Probabilities
# ---------------------------------------------------------------------------


def test_config_probability_examples():
    assert config_probability(0, GameParams(3, HALF)) == Fraction(1, 8)
    assert config_probability(1, GameParams(3, NINE_TENTHS)) == Fraction(81, 1000)


@pytest.mark.parametrize("p", [HALF, NINE_TENTHS, Fraction(11, 20), Fraction(1, 3)])
def test_probability_normalization(p):
    for n in (2, 3, 5, 10):
        params = GameParams(n, p)
        total = sum(
            (config_probability(c, params) for c in range(1 << n)), Fraction(0)
        )
        assert total == 1


def test_count_whites():
    assert count_whites(0, 4) == 4
    assert count_whites(0b1010, 4) == 2
    assert count_whites(0b1111, 4) == 0


# ---------------------------------------------------------------------------
# Decision matrices
# ---------------------------------------------------------------------------

TABLE_0_7 = DecisionMatrix(
    (
        (GUESS_BLACK, PASS, PASS, GUESS_WHITE),
        (GUESS_BLACK, PASS, PASS, GUESS_WHITE),
        (GUESS_BLACK, PASS, PASS, GUESS_WHITE),
    )
)


def _one_record_of_each_class():
    return [
        GameParams(3, HALF),
        DecisionMatrix(((0, 1), (-1, 0))),
        AdequateSet((0, 3), 2),
        Signature((0, 1, 1)),
        size_sweep(3, [2], GameParams(3, HALF))[0],
        Sqrt2Num(1, -1),
        Poly((1, 2)),
        dominance(Signature((0, 1, 1, 0)), Signature((1, 0, 0, 1))),
        dominance_graph(3),
        psi_closed_form(3),
        psi_curve(3, Fraction(1, 4), Fraction(3, 4), 2)[0],
        covering_check(3),
        complexity_table([2])[0],
    ]


def test_records_are_immutable_values():
    records = _one_record_of_each_class()
    assert len({type(r) for r in records}) == 13
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            delattr(record, record._fields[0])
        with pytest.raises(AttributeError):
            record.new_attribute = None
        twin = pickle.loads(pickle.dumps(record))
        assert twin == record and hash(twin) == hash(record), record
        assert copy.copy(record) == record
        # each record is built again from its fields, by position or by name
        assert type(record)(*record._key()) == record, record
        assert type(record)(**dict(zip(record._fields, record._key()))) == record, record
    # equality is per class, as for a frozen dataclass
    assert Signature((0, 1, 1)) != (0, 1, 1)
    assert repr(GameParams(3, HALF)) == "GameParams(n_players=3, p_white=Fraction(1, 2))"
    # a record that only stores its values binds them as a call would
    assert SweepRow(2, None, min_sum=None, witness=None) == SweepRow(2, None, None, None)
    assert DominanceResult("equal").roots == ()
    for args, kwargs in (
        ((2, None, None, None, None), {}),  # one value too many
        ((2, None, None, None), {"sum": None}),  # an unknown name
        ((2, None, None, None), {"size": 2}),  # a field given twice
        ((2, None, None), {}),  # a missing field
    ):
        with pytest.raises(TypeError):
            SweepRow(*args, **kwargs)


def test_matrix_validation():
    with pytest.raises(ValueError):
        DecisionMatrix(((0, 0), (0,)))
    with pytest.raises(ValueError):
        DecisionMatrix(((0, 5), (0, 0)))
    # only int decisions: 1.0 and True would print as 1.0 and true in JSON
    for value in (1.0, True, Fraction(1)):
        with pytest.raises(ValueError, match="invalid decision value"):
            DecisionMatrix(((0, value), (0, 0)))


def test_wins_examples():
    # the symmetric 3-player strategy loses exactly on all-same-color
    assert wins(TABLE_0_7, 0b001)
    assert not wins(TABLE_0_7, 0b000)
    assert not wins(TABLE_0_7, 0b111)
    assert not wins(all_pass_matrix(3), 0b010)


def test_wins_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        wins(TABLE_0_7, 0b10000)
    with pytest.raises(ValueError):
        evaluate_matrix(TABLE_0_7, GameParams(4, HALF))


def test_evaluate_examples():
    assert evaluate_matrix(TABLE_0_7, GameParams(3, HALF)) == Fraction(3, 4)
    assert evaluate_matrix(all_pass_matrix(3), GameParams(3, NINE_TENTHS)) == 0
    assert losing_configs(TABLE_0_7) == (0, 7)


def test_evaluate_first_four_player_asymmetric_optimum():
    # loss set {1, 3, 12, 14} wins with probability 0.91 at p = 9/10
    from hatgame.adequate import AdequateSet
    from hatgame.strategy import matrix_from_set

    m = matrix_from_set(AdequateSet((1, 3, 12, 14), 4))
    assert evaluate_matrix(m, GameParams(4, NINE_TENTHS)) == Fraction(91, 100)


# ---------------------------------------------------------------------------
# Text and JSON interchange
# ---------------------------------------------------------------------------


def test_matrix_text_roundtrip():
    text = TABLE_0_7.to_text()
    assert text.splitlines()[0] == "-1 0 0 1"
    assert DecisionMatrix.from_text(text) == TABLE_0_7


def test_matrix_text_comments_and_star():
    parsed = DecisionMatrix.from_text(
        """
        # players guess only on extreme observations
        0 *
        1 1
        """
    )
    assert parsed.rows == ((PASS, FREE), (GUESS_WHITE, GUESS_WHITE))
    assert parsed.free_cells() == ((1, 1),)


def test_matrix_text_rejects_garbage():
    with pytest.raises(ValueError):
        DecisionMatrix.from_text("0 2\n0 0")
    with pytest.raises(ValueError):
        DecisionMatrix.from_text("# just a comment")


def test_matrix_json_rows():
    m = DecisionMatrix.from_text("0 *\n1 1")
    assert m.to_json_rows() == {"1": [0, 3], "2": [1, 1]}


def test_substitute_free():
    m = DecisionMatrix.from_text("0 *\n1 1")
    assert m.substitute_free(PASS).rows == ((0, 0), (1, 1))
    assert m.substitute_free({(1, 1): GUESS_BLACK}).rows == ((0, -1), (1, 1))


# ---------------------------------------------------------------------------
# Free-rule covariance for generated matrices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [HALF, NINE_TENTHS])
def test_generated_matrices_free_rule_irrelevant(p):
    from hatgame.adequate import enumerate_adequate
    from hatgame.strategy import matrix_from_set

    params = GameParams(4, p)
    for aset in enumerate_adequate(4, 4):
        m = matrix_from_set(aset)
        values = {
            evaluate_matrix(m.substitute_free(d), params)
            for d in (GUESS_BLACK, PASS, GUESS_WHITE)
        }
        assert len(values) == 1


# ---------------------------------------------------------------------------
# The table of limits
# ---------------------------------------------------------------------------


def _matrix_with_free_cells(k):
    """A four-player matrix whose first k cells are FREE."""
    cells = [FREE] * k + [PASS] * (32 - k)
    return DecisionMatrix(tuple(tuple(cells[8 * i : 8 * i + 8]) for i in range(4)))


def _no_tables(*args):
    raise AssertionError("built a table before refusing")


#: Per row of ``_LIMITS``: a limit to patch in (None keeps the table's) and
#: a function that takes one past the limit, builds the inputs there and
#: returns the call that must be refused.
LIMIT_CASES = {
    "adequate-set listing at n": (
        None, lambda n: lambda: list(enumerate_adequate(n, 12))),
    # n = 4, size 5 lists 560 sets, one past the patched row
    "sets in one adequate-set listing": (
        559, lambda count: lambda: list(enumerate_adequate(4, 5))),
    "size sweep at n": (
        None, lambda n: partial(size_sweep, n, (12,), GameParams(n, HALF))),
    "minimum cover size at n": (None, lambda n: partial(min_cover_size, n)),
    "cover search without a node budget at n": (
        None, lambda n: partial(min_cover_optimize, n, GameParams(n, HALF))),
    "cover search with a node budget at n": (
        None, lambda n: partial(min_cover_optimize, n, GameParams(n, Fraction(3, 4)),
                                node_budget=1)),
    "all matrices of a set at n": (
        None, lambda n: partial(all_matrices_for_set, AdequateSet(range(1 << n), n))),
    # the n = 3 cube has 3 * 8 = 24 cell counterparts, one past the patched row
    "all matrices of a set at n * size": (
        23, lambda work: partial(all_matrices_for_set, AdequateSet(range(work // 3), 3))),
    "FREE cells in an invariance check": (
        None, lambda k: partial(free_invariance_check, _matrix_with_free_cells(k),
                                GameParams(4, HALF))),
    "psi curve grid steps": (
        None, lambda steps: partial(psi_curve, 5, Fraction(1, 100), Fraction(99, 100), steps)),
}


@pytest.mark.parametrize("row", sorted(_LIMITS))
def test_every_limit_refuses_one_past_it(monkeypatch, row):
    limit, build = LIMIT_CASES[row]
    if limit is None:
        limit = _LIMITS[row]
    else:
        monkeypatch.setitem(_LIMITS, row, limit)
    call = build(limit + 1)
    if row != "sets in one adequate-set listing":
        # refused before any ball or cell table is built, or any matrix
        # evaluated
        for name in ("hatgame.adequate._balls", "hatgame.strategy._cells",
                     "hatgame.strategy.evaluate_matrix"):
            monkeypatch.setattr(name, _no_tables)
    # the listed-sets count is where the listing stopped, a lower bound
    got = "at least %d" if row == "sets in one adequate-set listing" else "%d"
    message = "%s is supported up to %d, got %s" % (row, limit, got % (limit + 1))
    with pytest.raises(ResourceLimitError, match="^%s$" % re.escape(message)):
        call()
