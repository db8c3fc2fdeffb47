"""The benchmark's checks accept right answers and reject planted wrong ones.

    python3 -m pytest bench/test_checks.py
"""

import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import refcount  # noqa: E402
import hatgame  # noqa: E402
from hatgame import GameParams, is_adequate  # noqa: E402

P = Fraction(3, 10)


def optimum(n, p):
    aset, value = hatgame.min_cover_optimize(n, GameParams(n, p))
    matrix = hatgame.matrix_from_set(aset)
    return aset.elements, value, hatgame.losing_configs(matrix), hatgame.evaluate_matrix(matrix, GameParams(n, p))


def weight(code, n, p):
    z = refcount.whites(code, n)
    return p**z * (1 - p) ** (n - z)


# -- the reference itself ----------------------------------------------------


def test_counter_matches_known_counts():
    assert sum(refcount.count_by_signature(4, 4).values()) == 40
    assert sum(refcount.count_by_signature(3, 2).values()) == 4
    assert refcount.count_by_signature(4, 3) == {}


def test_recorded_reference_is_current():
    ref = refcount.load_reference()
    for n in (2, 3, 4):
        for size in refcount.sizes_for(n):
            hist = refcount.count_by_signature(n, size)
            assert ref[str(n)][str(size)]["count"] == sum(hist.values())


def test_covers_is_the_definition():
    assert refcount.covers((0, 7), 3)
    assert not refcount.covers((0, 1), 3)


# -- optimize ------------------------------------------------------------------


def test_optimum_accepted():
    elements, value, lost, win = optimum(4, P)
    checks.check_optimum(elements, 4, P, value, lost, win, is_adequate)


def test_non_adequate_witness_rejected():
    with pytest.raises(checks.CheckError, match="not adequate"):
        checks.check_witness((0, 1), 3, is_adequate)


def test_redundant_witness_rejected():
    elements, *_ = optimum(4, P)
    extra = next(e for e in range(16) if e not in elements)
    with pytest.raises(checks.CheckError, match="redundant"):
        checks.check_witness(tuple(sorted(elements + (extra,))), 4, is_adequate)


def test_loss_off_by_one_weight_rejected():
    elements, value, lost, win = optimum(4, P)
    wrong = value + weight(0, 4, P)
    with pytest.raises(checks.CheckError, match="reported loss"):
        checks.check_optimum(elements, 4, P, wrong, lost, 1 - wrong, is_adequate)


def test_matrix_losing_elsewhere_rejected():
    elements, value, lost, win = optimum(4, P)
    with pytest.raises(checks.CheckError, match="matrix loses"):
        checks.check_optimum(elements, 4, P, value, lost[1:], win, is_adequate)


def test_mirror_accepted_and_unequal_losses_rejected():
    elements, value, *_ = optimum(4, P)
    _, value_q, *_ = optimum(4, 1 - P)
    checks.check_mirror(4, P, value, elements, value_q, is_adequate)
    with pytest.raises(checks.CheckError, match="at 1-p"):
        checks.check_mirror(4, P, value, elements, value_q + weight(15, 4, 1 - P), is_adequate)


def test_size_row_below_global_optimum_rejected():
    (row,) = hatgame.size_sweep(4, [6], GameParams(4, P))
    _, best, *_ = optimum(4, P)
    checks.check_size_row(6, 4, P, row.min_sum, row.witness.elements, row.signature.counts, best, is_adequate)
    with pytest.raises(checks.CheckError, match="below the global optimum"):
        checks.check_size_row(6, 4, P, row.min_sum, row.witness.elements, row.signature.counts, row.min_sum + 1, is_adequate)


def test_closed_form_disagreement_rejected():
    _, value, *_ = optimum(5, Fraction(3, 4))
    psi = hatgame.psi_closed_form(5)(Fraction(3, 4))
    checks.check_closed_form(value, psi)
    with pytest.raises(checks.CheckError):
        checks.check_closed_form(value + weight(0, 5, Fraction(3, 4)), psi)


# -- enumerate -----------------------------------------------------------------


def test_count_and_min_cover_size_rejected_when_off():
    with pytest.raises(checks.CheckError):
        checks.check_count("listing", 319, 320)
    with pytest.raises(checks.CheckError):
        checks.check_min_cover_size(5, 6)


def test_sweep_row_not_minimal_rejected():
    ref = refcount.load_reference()["4"]["5"]["signatures"]
    sigs = [checks.parse_signature(s) for s in ref]
    (row,) = hatgame.size_sweep(4, [5], GameParams(4, P))
    checks.check_sweep_row(4, 5, P, row.min_sum, row.witness.elements, row.signature.counts, sigs, is_adequate)
    with pytest.raises(checks.CheckError, match="minimum over all sets"):
        checks.check_sweep_row(4, 5, P, row.min_sum + weight(0, 4, P), row.witness.elements, row.signature.counts, sigs, is_adequate)
    with pytest.raises(checks.CheckError, match="signature"):
        checks.check_sweep_row(4, 5, P, row.min_sum, row.witness.elements, (5, 0, 0, 0, 0), sigs, is_adequate)


# -- analysis ------------------------------------------------------------------


def test_flipped_dominance_edge_rejected():
    graph = hatgame.dominance_graph(5)
    edges = [(graph.nodes[i].counts, graph.nodes[j].counts) for i, j in graph.edges]
    checks.check_edges(edges, Fraction(1, 2), Fraction(1))
    a, b = edges[0]
    with pytest.raises(checks.CheckError, match="fails at"):
        checks.check_edges([(b, a)], Fraction(1, 2), Fraction(1))


def test_crossing_without_sign_change_rejected():
    a, b = (0, 2, 2, 2, 1, 0), (0, 2, 4, 0, 0, 1)  # they meet at 2 - sqrt(2)
    checks.check_crossing(a, b, [(Fraction(58, 100), Fraction(59, 100))])
    with pytest.raises(checks.CheckError, match="no sign change"):
        checks.check_crossing(a, b, [(Fraction(60, 100), Fraction(61, 100))])
    assert not checks.double_root_in(a, b, Fraction(58, 100), Fraction(59, 100))


def test_double_root_found():
    # the loss difference is (1 - 3p + p^2)^2 (1 - 2p): touching at (3 - sqrt 5)/2
    a, b = (1, 0, 2, 3, 1, 0), (0, 3, 1, 0, 2, 1)
    assert checks.double_root_in(a, b, Fraction(38, 100), Fraction(39, 100))
    assert not checks.double_root_in(a, b, Fraction(39, 100), Fraction(40, 100))


def test_optimal_count_and_psi_rejected_when_off():
    classes = {checks.parse_signature(s): c for s, c in refcount.load_reference()["5"]["7"]["signatures"].items()}
    assert checks.optimal_count(classes, Fraction(1, 2)) == 320
    with pytest.raises(checks.CheckError):
        checks.check_optimal_count(Fraction(1, 2), 319, checks.optimal_count(classes, Fraction(1, 2)))
    psi = hatgame.psi_closed_form(5)(P)
    checks.check_psi_row(P, psi, classes)
    with pytest.raises(checks.CheckError):
        checks.check_psi_row(P, psi - weight(0, 5, P), classes)
    with pytest.raises(checks.CheckError):
        checks.check_psi_symmetry({P: psi, 1 - P: psi + 1})


# -- cli -----------------------------------------------------------------------


def test_cli_psi_disagreeing_with_evaluate_rejected():
    p = Fraction(3, 4)
    psi = hatgame.psi_closed_form(5)(p)
    checks.check_psi_agrees(p, psi, psi, psi)
    with pytest.raises(checks.CheckError, match="evaluate"):
        checks.check_psi_agrees(p, psi, psi - weight(0, 5, p), psi)


def test_psi_csv_rows_checked():
    sigs = [checks.parse_signature(s) for s in refcount.load_reference()["5"]["7"]["signatures"]]
    p = Fraction(3, 4)
    psi = hatgame.psi_closed_form(5)(p)
    rows = [(str(x), hatgame.polys.decimal_str(hatgame.psi_closed_form(5)(x)), "1") for x in (Fraction(1, 4), p)]
    checks.check_psi_csv(rows, sigs, p, psi)
    rows[1] = (rows[1][0], hatgame.polys.decimal_str(psi + Fraction(1, 10**9)), "1")
    with pytest.raises(checks.CheckError, match="psi csv"):
        checks.check_psi_csv(rows, sigs, p, psi)


def test_brute_complexity_covering_rejected_when_off():
    checks.check_brute("max = 0.79 = 79/100\n", Fraction(3, 10))
    with pytest.raises(checks.CheckError):
        checks.check_brute("max = 0.8 = 4/5\n", Fraction(3, 10))
    row = {"n": "3", "das": "2", "full": str(3**12), "reduced": str(3**6), "subsets": "28"}
    checks.check_complexity([row])
    with pytest.raises(checks.CheckError):
        checks.check_complexity([dict(row, full=str(3**12 + 1))])
    good = [{"n": str(n), "agrees": "true", "computed_min_das": str(k)} for n, k in refcount.PUBLISHED_K.items()]
    checks.check_covering(good)
    with pytest.raises(checks.CheckError):
        checks.check_covering([dict(good[0], agrees="false")] + good[1:])


def test_dot_and_json_disagreeing_rejected():
    payload = {"edges": [["022210", "024001"]], "flagged_crossings": []}
    dot = 'digraph dominance {\n  "022210" -> "024001";\n}'
    checks.check_dominance(dot, payload)
    with pytest.raises(checks.CheckError, match="dot edges"):
        checks.check_dominance(dot.replace('"022210" -> "024001"', '"024001" -> "022210"'), payload)
