"""Command-line interface: formats, fixtures, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hatgame
from hatgame.adequate import _signature_groups, optimal_sets
from hatgame.cli import main, parse_probability, parse_size_range
from hatgame.core import _LIMITS, GameParams
from hatgame.strategy import all_matrices_for_set


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def test_parse_probability_exact():
    assert parse_probability("9/10") == Fraction(9, 10)
    assert parse_probability("0.9") == Fraction(9, 10)
    assert parse_probability("0.55") == Fraction(11, 20)
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_probability("1.5")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_probability("zebra")


def test_parse_size_range():
    assert parse_size_range("2..8") == (2, 8)
    assert parse_size_range("4-16") == (4, 16)
    assert parse_size_range("7") == (7, 7)


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def test_enumerate_three_players(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "3", "--das", "2", "--p", "0.9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i1,i2,sum,sum_exact,z1,z2"
    assert lines[1:] == [
        "0,7,0.73,73/100,3,0",
        "1,6,0.09,9/100,2,1",
        "2,5,0.09,9/100,2,1",
        "3,4,0.09,9/100,1,2",
    ]
    assert "count=4" in err


def test_enumerate_empty_is_success(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "3", "--das", "1")
    assert code == 0
    assert out.splitlines() == ["i1,sum,sum_exact,z1"]
    assert "count=0" in err


def test_enumerate_sorted_by_sum_matches_sorted_listing(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--n", "4", "--das", "4", "--p", "0.9", "--sort", "sum",
    )
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == 40
    # first block: the 24 optimal rows, starting with 1,3,12,14
    assert lines[0] == "1,3,12,14,0.09,9/100,3,2,2,1"
    sums = [line.split(",")[4] for line in lines]
    assert sums == sorted(sums, key=float)
    assert sums.count("0.09") == 24
    assert sums.count("0.154") == 6
    assert sums.count("0.666") == 6
    assert sums.count("0.73") == 4
    # last block ends with the most expensive sets
    assert lines[-1].startswith("0,7,8,15,0.73")


def test_enumerate_json(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--n", "2", "--das", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6
    assert payload["sets"][0]["elements"] == [0, 1]
    assert payload["sets"][0]["sum"] == "1/2"


def test_enumerate_bad_args_exit_two(capsys):
    assert run(capsys, "enumerate", "--n", "99", "--das", "2")[0] == 2
    assert run(capsys, "enumerate", "--n", "3", "--das", "99")[0] == 2


# ---------------------------------------------------------------------------
# solve and evaluate round trip
# ---------------------------------------------------------------------------


def test_solve_three_players_symmetric(capsys):
    code, out, _ = run(capsys, "solve", "--n", "3", "--p", "0.5")
    assert code == 0
    assert "psi = 0.75 = 3/4" in out
    assert "nasopt = 4" in out
    assert "set: 0 7" in out and "set: 3 4" in out
    assert "-1 0 0 1" in out


def test_solve_two_players_asymmetric(capsys):
    code, out, _ = run(capsys, "solve", "--n", "2", "--p", "0.9")
    assert code == 0
    assert "psi = 0.9 = 9/10" in out
    assert "set: 1 3" in out and "set: 2 3" in out


def test_solve_five_players(capsys):
    code, out, _ = run(capsys, "solve", "--n", "5", "--p", "0.9")
    assert code == 0
    assert "psi = 0.91801 = 91801/100000" in out
    assert "nasopt = 30" in out
    assert "set: 1 6 14 22 24 27 29" in out.splitlines()[6]


def test_solve_evaluate_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--n", "5", "--p", "0.9")
    assert code == 0
    lines = out.splitlines()
    start = lines.index("matrix:") + 1
    matrix_text = "\n".join(lines[start : start + 5])
    path = tmp_path / "matrix.txt"
    path.write_text(matrix_text + "\n")
    code, out2, _ = run(capsys, "evaluate", "--p", "0.9", "--matrix", str(path))
    assert code == 0
    assert "win_probability = 0.91801 = 91801/100000" in out2


def test_solve_json_and_all_matrices(capsys):
    code, out, _ = run(
        capsys, "solve", "--n", "2", "--p", "0.5", "--format", "json",
        "--all-matrices",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["psi"] == "1/2"
    assert payload["nasopt"] == 6
    assert sum(len(group) for group in payload["all_matrices"]) == 30


def test_solve_resource_limit(capsys):
    code, _, err = run(capsys, "solve", "--n", "6", "--p", "0.5")
    assert code == 3
    assert "resource limit" in err


def test_solve_all_matrices_four_players(capsys):
    code, out, _ = run(capsys, "solve", "--n", "4", "--p", "1/2",
                       "--all-matrices", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["nasopt"] == 40
    counts = [len(group) for group in payload["all_matrices"]]
    assert sum(counts) == 2088
    sets = optimal_sets(4, GameParams(4, Fraction(1, 2)), 4)[0]
    assert counts == [len(all_matrices_for_set(aset)) for aset in sets]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_solve_all_matrices_refused_before_output(capsys, fmt):
    code, out, err = run(capsys, "solve", "--n", "5", "--p", "0.9",
                         "--all-matrices", "--format", fmt)
    assert code == 3
    assert out == ""
    assert "resource limit" in err


def test_evaluate_with_comments_and_star(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("# a hand-written strategy\n0 *\n1 1\n")
    code, out, _ = run(capsys, "evaluate", "--p", "0.9", "--matrix", str(path))
    assert code == 0
    assert "win_probability = 0.9 = 9/10" in out


def test_evaluate_rejects_mismatched_n(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("0 0\n1 1\n")
    code, _, err = run(capsys, "evaluate", "--n", "3", "--p", "0.9",
                       "--matrix", str(path))
    assert code == 2
    assert "error" in err


def test_evaluate_missing_file(capsys):
    code, _, err = run(capsys, "evaluate", "--p", "0.5", "--matrix", "/no/such/file")
    assert code == 2


# ---------------------------------------------------------------------------
# brute
# ---------------------------------------------------------------------------


def test_brute_two_players(capsys):
    code, out, _ = run(capsys, "brute", "--n", "2", "--p", "0.5")
    assert code == 0
    assert "max = 0.5 = 1/2" in out
    assert "optimal matrices = 30" in out
    assert "non-isomorphic = 17" in out


def test_brute_json(capsys):
    code, out, _ = run(capsys, "brute", "--n", "3", "--p", "0.9",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["max"] == "91/100"
    assert payload["optimal_matrices"] == 3


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def test_psi_curve_minimum_row(capsys):
    code, out, _ = run(
        capsys,
        "psi", "--n", "5", "--pmin", "0.01", "--pmax", "0.99", "--steps", "98",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,psi,piece"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 101
    minimum = min(rows, key=lambda r: float(r[1]))
    assert minimum[0] == "0.5" and minimum[1] == "0.78125"
    assert minimum[2] == "2|3"
    breakpoint_rows = [r for r in rows if "|" in r[2]]
    assert [r[0] for r in breakpoint_rows] == [
        "0.414213562373",
        "0.5",
        "0.585786437627",
    ]


def test_psi_json(capsys):
    code, out, _ = run(
        capsys,
        "psi", "--n", "3", "--pmin", "0.25", "--pmax", "0.75", "--steps", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["points"][1]["p"] == "0.5"
    assert payload["points"][1]["psi_exact"] == "3/4"


def test_psi_json_exact_values_at_irrational_breakpoints(capsys):
    code, out, _ = run(
        capsys,
        "psi", "--n", "5", "--pmin", "0.25", "--pmax", "0.75", "--steps", "2",
        "--format", "json",
    )
    assert code == 0
    points = json.loads(out)["points"]
    assert [(r["p_exact"], r["psi_exact"], r["piece"]) for r in points] == [
        ("1/4", "865/1024", "1"),
        ("-1 + 1*sqrt(2)", "-19 + 14*sqrt(2)", "1|2"),
        ("1/2", "25/32", "2|3"),
        ("2 - 1*sqrt(2)", "-19 + 14*sqrt(2)", "3|4"),
        ("3/4", "865/1024", "4"),
    ]


# ---------------------------------------------------------------------------
# dominance, complexity, covering, sweep
# ---------------------------------------------------------------------------


def test_dominance_dot(capsys):
    code, out, _ = run(capsys, "dominance")
    assert code == 0
    assert out.startswith("digraph dominance {")
    for label in ("022210", "024001", "013210", "031021"):
        assert '"%s"' % label in out
    assert 'label="crossing"' in out


def test_dominance_json(capsys):
    code, out, _ = run(capsys, "dominance", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 12
    assert payload["undominated"] == ["022210", "024001"]
    assert len(payload["flagged_crossings"]) == 1
    assert payload["total_crossings"] == 19


def test_dominance_pair_query(capsys):
    code, out, _ = run(capsys, "dominance", "--a", "022210", "--b", "111310")
    assert code == 0
    assert "always_less" in out
    code, out, _ = run(capsys, "dominance", "--a", "022210", "--b", "024001",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["relation"] == "crossing"
    assert len(payload["roots"]) == 1


def test_complexity_table(capsys):
    code, out, _ = run(capsys, "complexity")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,das,full,full_sci,reduced,reduced_sci,subsets,subsets_sci"
    row3 = lines[2].split(",")
    assert row3[:3] == ["3", "2", "531441"]
    assert row3[4] == "729"
    assert row3[6] == "28"
    row5 = lines[4].split(",")
    assert row5[6] == "3365856"


def test_covering(capsys):
    code, out, _ = run(capsys, "covering", "--n", "5")
    assert code == 0
    assert out.splitlines()[1] == "5,7,7,true,0.78125,25/32"


def test_sweep(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "3", "--p", "0.9",
                       "--das-range", "2..8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "das,signature,sum,sum_exact"
    assert lines[1] == "2,0110,0.09,9/100"
    # the size-8 set is everything: the team then loses with certainty
    assert lines[-1] == "8,1331,1,1/1"


def test_sweep_default_range_five_players(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "5", "--p", "0.55")
    assert code == 0
    lines = out.splitlines()[1:]
    assert lines[0].startswith("7,024001,")
    assert len(lines) == 3


def test_sweep_default_range_refused_for_six_players(capsys):
    # the default range starts at min_cover_size(6), which is refused
    code, out, err = run(capsys, "sweep", "--n", "6", "--p", "0.9")
    assert code == 3
    assert out == ""
    assert "resource limit" in err


def test_enumerate_refused_for_six_players(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "6", "--das", "12")
    assert code == 3
    assert out == ""
    assert "resource limit" in err


def test_enumerate_refused_past_the_listed_sets_row(capsys, monkeypatch):
    # n = 5, size 8 lists 24 340 sets; refused once 1 000 would be passed
    monkeypatch.setitem(_LIMITS, "sets in one adequate-set listing", 1000)
    _signature_groups.cache_clear()  # a cached listing is not built again
    code, out, err = run(capsys, "enumerate", "--n", "5", "--das", "8")
    assert code == 3
    assert out == ""
    # the count where the listing stopped is a lower bound on its size
    assert re.search("^resource limit: sets in one adequate-set listing is "
                     "supported up to 1000, got at least [0-9]+$", err, re.M), err


def test_psi_refused_past_the_grid_steps_row(capsys):
    code, out, err = run(capsys, "psi", "--n", "5", "--pmin", "0.01",
                         "--pmax", "0.99", "--steps", "100001")
    assert code == 3
    assert out == ""
    assert "resource limit" in err


# ---------------------------------------------------------------------------
# A reader that closes the pipe early
# ---------------------------------------------------------------------------


def test_closed_stdout_pipe_is_not_an_error():
    env = dict(os.environ, PYTHONPATH=str(Path(hatgame.__file__).parents[1]))
    # about 500 kB of json, more than a pipe holds, so a write must fail
    with subprocess.Popen(
        [sys.executable, "-m", "hatgame", "psi", "--n", "3", "--pmin", "0.001",
         "--pmax", "0.999", "--steps", "4000", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.read(10) == b'{"n": 3, "'
        proc.stdout.close()
        err = proc.stderr.read()
        status = proc.wait(timeout=60)
    assert status == 0
    assert err == b""


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--n", "4", "--das", "4", "--p", "0.9"),
        ("solve", "--n", "3", "--p", "0.9"),
        ("psi", "--n", "5", "--pmin", "0.1", "--pmax", "0.9", "--steps", "16"),
        ("dominance", "--format", "json"),
    ],
)
def test_output_is_deterministic(capsys, argv):
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
