"""Command-line interface.

Every capability of the library is reachable as a subcommand with
reproducible output: identical flags produce byte-identical output (no
randomness anywhere).  Probabilities are printed both as decimals (12
significant digits) and exact rationals.

Exit codes: 0 success, 2 bad arguments, 3 resource limit exceeded.  A
reader that closes stdout early (``hatgame ... | head``) is not an error:
the rest of the output is dropped and the exit code is 0.

Each subcommand imports the modules it runs when it runs, so a call
loads only what it uses: ``evaluate`` never imports the cover search,
and no call but ``brute`` and ``solve`` imports :mod:`hatgame.strategy`.
"""

from __future__ import annotations

import argparse
import csv
import heapq
import itertools
import json
import os
import sys
from fractions import Fraction

from .core import (
    DecisionMatrix,
    GameParams,
    ResourceLimitError,
    _check_limit,
    evaluate_matrix,
)
from .polys import Number, Sqrt2Num, decimal_str

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_RESOURCE = 3


def parse_probability(text: str) -> Fraction:
    """Exact probability parsing: 'a/b' rationals or decimal literals
    ('0.9' becomes exactly 9/10, never a float)."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "%r is not a rational number (use a/b or a decimal literal)" % text
        )
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError("probability must be strictly between 0 and 1")
    return value


def parse_size_range(text: str) -> tuple[int, int]:
    """Inclusive size range 'LO..HI' (or 'LO-HI', or a single size)."""
    for sep in ("..", "-", ":"):
        if sep in text:
            lo_s, hi_s = text.split(sep, 1)
            break
    else:
        lo_s = hi_s = text
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError("bad size range %r (use LO..HI)" % text)
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError("bad size range %r" % text)
    return lo, hi


def rational_str(value: Fraction) -> str:
    value = Fraction(value)
    return "%d/%d" % (value.numerator, value.denominator)


def _exact_str(value: Number) -> str:
    """Exact text of a value: a/b when rational, else a + b*sqrt(2)."""
    if isinstance(value, Sqrt2Num):
        return rational_str(value.a) if value.is_rational else str(value)
    return rational_str(value)


def _write_csv(header, rows):
    """Write a header and rows to stdout as csv, rows as they come."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_enumerate(args) -> None:
    """Stream the listing: each class of :func:`_signature_groups` is
    priced once, and the classes' tuples, each class already
    lexicographic, are merged in order, so rows are written as they are
    made.  ``--sort sum`` merges each run of classes of equal value, runs
    by ascending value."""
    from .adequate import _signature_groups

    n, size = args.n, args.das
    params = GameParams(n, args.p)
    groups = _signature_groups(n, size)
    runs = {}
    for sig, sets in groups:
        # the signature fixes the value and both of its printed forms
        value = sig.probability(params)
        priced = (decimal_str(value), rational_str(value))
        run = runs.setdefault(value if args.sort == "sum" else 0, [])
        run.append(zip(sets, itertools.repeat(priced)))
    records = itertools.chain.from_iterable(heapq.merge(*runs[k]) for k in sorted(runs))
    count = sum(len(sets) for _, sets in groups)
    print("count=%d" % count, file=sys.stderr)
    if args.format == "json":
        # the bytes json.dumps gives for the whole document, item by item
        out = sys.stdout
        out.write('{"n": %d, "das": %d, "count": %d, "sets": [' % (n, size, count))
        for k, (elems, (dec, exact)) in enumerate(records):
            item = {
                "elements": list(elems),
                "sum": exact,
                "sum_decimal": dec,
                "zeros": [n - e.bit_count() for e in elems],
            }
            out.write((", " if k else "") + json.dumps(item))
        out.write("]}\n")
        return
    _write_csv(
        ["i%d" % (k + 1) for k in range(size)]
        + ["sum", "sum_exact"]
        + ["z%d" % (k + 1) for k in range(size)],
        (
            list(elems) + [dec, exact] + [n - e.bit_count() for e in elems]
            for elems, (dec, exact) in records
        ),
    )


def cmd_solve(args) -> None:
    from .adequate import min_cover_size, optimal_sets, signature
    from .strategy import all_matrices_for_set, matrix_from_set

    n = args.n
    params = GameParams(n, args.p)
    if args.all_matrices:
        # checked before any output: the text format prints as it goes
        _check_limit("all matrices of a set at n", n)
    size = min_cover_size(n)
    sets, min_sum = optimal_sets(n, params, size)
    psi = 1 - min_sum
    matrices = [matrix_from_set(aset) for aset in sets]
    if args.format == "json":
        payload = {
            "n": n,
            "p": rational_str(params.p_white),
            "psi": rational_str(psi),
            "psi_decimal": decimal_str(psi),
            "das": size,
            "nasopt": len(sets),
            "sets": [
                {
                    "elements": list(aset.elements),
                    "sum": rational_str(min_sum),
                    "signature": signature(aset).compact(),
                    "matrix": matrix.to_json_rows(),
                }
                for aset, matrix in zip(sets, matrices)
            ],
        }
        if args.all_matrices:
            payload["all_matrices"] = [
                [m.to_json_rows() for m in all_matrices_for_set(aset)]
                for aset in sets
            ]
        print(json.dumps(payload))
        return
    print("n = %d" % n)
    print("p = %s = %s" % (decimal_str(params.p_white), rational_str(params.p_white)))
    print("psi = %s = %s" % (decimal_str(psi), rational_str(psi)))
    print("das = %d" % size)
    print("nasopt = %d" % len(sets))
    for aset, matrix in zip(sets, matrices):
        print()
        print(
            "set: %s   sum = %s = %s   signature = %s"
            % (
                " ".join(str(e) for e in aset.elements),
                decimal_str(min_sum),
                rational_str(min_sum),
                signature(aset).compact(),
            )
        )
        print("matrix:")
        print(matrix.to_text())
        if args.all_matrices:
            everything = all_matrices_for_set(aset)
            print("all %d matrices losing exactly on this set:" % len(everything))
            for m in everything:
                print(m.to_text())
                print()


def cmd_evaluate(args) -> None:
    with open(args.matrix) as handle:
        text = handle.read()
    matrix = DecisionMatrix.from_text(text)
    n = matrix.n_players
    if args.n is not None and args.n != n:
        raise ValueError(
            "matrix file has %d rows but --n %d was given" % (n, args.n)
        )
    params = GameParams(n, args.p)
    value = evaluate_matrix(matrix, params)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": n,
                    "p": rational_str(params.p_white),
                    "win_probability": rational_str(value),
                    "win_probability_decimal": decimal_str(value),
                }
            )
        )
    else:
        print("win_probability = %s = %s" % (decimal_str(value), rational_str(value)))


def cmd_brute(args) -> None:
    from .strategy import brute_force_optimal, dedupe_player_permutation

    n = args.n
    params = GameParams(n, args.p)
    best, matrices = brute_force_optimal(n, params)
    reps = dedupe_player_permutation(matrices, n)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": n,
                    "p": rational_str(params.p_white),
                    "max": rational_str(best),
                    "max_decimal": decimal_str(best),
                    "optimal_matrices": len(matrices),
                    "non_isomorphic": len(reps),
                    "matrices": [m.to_json_rows() for m in matrices],
                }
            )
        )
        return
    print("max = %s = %s" % (decimal_str(best), rational_str(best)))
    print("optimal matrices = %d" % len(matrices))
    print("non-isomorphic = %d" % len(reps))
    for m in matrices:
        print()
        print(m.to_text())


def cmd_psi(args) -> None:
    from . import analysis

    n = args.n
    rows = analysis.psi_curve(n, args.pmin, args.pmax, args.steps)
    if args.format == "json":
        payload = [
            {
                "p": decimal_str(r.p),
                "p_exact": _exact_str(r.p),
                "psi": decimal_str(r.psi),
                "psi_exact": _exact_str(r.psi),
                "piece": r.piece,
            }
            for r in rows
        ]
        print(json.dumps({"n": n, "points": payload}))
        return
    _write_csv(
        ["p", "psi", "piece"],
        ([decimal_str(r.p), decimal_str(r.psi), r.piece] for r in rows),
    )


def cmd_dominance(args) -> None:
    from . import analysis
    from .adequate import Signature

    if args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            raise ValueError("--a and --b must be given together")
        result = analysis.dominance(
            Signature.from_compact(args.a), Signature.from_compact(args.b)
        )
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "a": args.a,
                        "b": args.b,
                        "relation": result.relation,
                        "roots": [
                            [rational_str(lo), rational_str(hi)]
                            for lo, hi in result.roots
                        ],
                    }
                )
            )
        else:
            print("%s vs %s: %s" % (args.a, args.b, result.relation))
            for lo, hi in result.roots:
                print(
                    "  root in [%s, %s] ~ %s"
                    % (rational_str(lo), rational_str(hi), decimal_str((lo + hi) / 2))
                )
        return
    graph = analysis.dominance_graph(args.n)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": args.n,
                    "nodes": list(graph.node_labels()),
                    "edges": [
                        [graph.nodes[i].compact(), graph.nodes[j].compact()]
                        for i, j in graph.edges
                    ],
                    "undominated": [
                        graph.nodes[k].compact() for k in graph.undominated()
                    ],
                    "flagged_crossings": [
                        {
                            "pair": [
                                graph.nodes[i].compact(),
                                graph.nodes[j].compact(),
                            ],
                            "roots": [
                                [rational_str(lo), rational_str(hi)]
                                for lo, hi in roots
                            ],
                        }
                        for i, j, roots in graph.flagged_crossings()
                    ],
                    "total_crossings": len(graph.crossings),
                }
            )
        )
    else:
        print(graph.to_dot())


def cmd_complexity(args) -> None:
    from . import analysis

    rows = analysis.complexity_table()
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "n": r.n_players,
                        "das": r.min_size,
                        "full_strategies": str(r.full_strategies),
                        "full_sci": r.full_sci,
                        "reduced_strategies": str(r.reduced_strategies),
                        "reduced_sci": r.reduced_sci,
                        "candidate_sets": str(r.candidate_sets),
                        "candidate_sci": r.candidate_sci,
                    }
                    for r in rows
                ]
            )
        )
        return
    _write_csv(
        [
            "n",
            "das",
            "full",
            "full_sci",
            "reduced",
            "reduced_sci",
            "subsets",
            "subsets_sci",
        ],
        (
            [
                r.n_players,
                r.min_size,
                r.full_strategies,
                r.full_sci,
                r.reduced_strategies,
                r.reduced_sci,
                r.candidate_sets,
                r.candidate_sci,
            ]
            for r in rows
        ),
    )


def cmd_covering(args) -> None:
    from . import analysis

    ns = [args.n] if args.n is not None else list(range(2, 10))
    reports = [analysis.covering_check(n) for n in ns]
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "n": r.n_players,
                        "computed_min_das": r.computed_min_size,
                        "covering_code_size": r.covering_code_size,
                        "agrees": r.agrees,
                        "symmetric_max_prob": rational_str(
                            r.symmetric_win_probability
                        ),
                        "symmetric_max_prob_decimal": decimal_str(
                            r.symmetric_win_probability
                        ),
                    }
                    for r in reports
                ]
            )
        )
        return
    _write_csv(
        ["n", "computed_min_das", "K", "agrees", "max_prob", "max_prob_exact"],
        (
            [
                r.n_players,
                "" if r.computed_min_size is None else r.computed_min_size,
                r.covering_code_size,
                "" if r.agrees is None else str(r.agrees).lower(),
                decimal_str(r.symmetric_win_probability),
                rational_str(r.symmetric_win_probability),
            ]
            for r in reports
        ),
    )


def cmd_sweep(args) -> None:
    from .adequate import min_cover_size, size_sweep

    n = args.n
    params = GameParams(n, args.p)
    if args.das_range is not None:
        lo, hi = args.das_range
    else:
        lo = min_cover_size(n)
        hi = (1 << n) if n <= 4 else min(lo + 2, 1 << n)
    rows = size_sweep(n, range(lo, hi + 1), params)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "das": r.size,
                        "signature": None if r.signature is None else r.signature.compact(),
                        "sum": None if r.min_sum is None else rational_str(r.min_sum),
                        "sum_decimal": None if r.min_sum is None else decimal_str(r.min_sum),
                        "witness": None if r.witness is None else list(r.witness.elements),
                    }
                    for r in rows
                ]
            )
        )
        return
    _write_csv(
        ["das", "signature", "sum", "sum_exact"],
        (
            [
                r.size,
                "" if r.signature is None else r.signature.compact(),
                "" if r.min_sum is None else decimal_str(r.min_sum),
                "" if r.min_sum is None else rational_str(r.min_sum),
            ]
            for r in rows
        ),
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hatgame",
        description="Exact solver and analysis toolkit for the N-player "
        "two-color hat guessing game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("csv", "json"), default="csv"):
        p.add_argument("--format", choices=formats, default=default)

    p = sub.add_parser("enumerate", help="list all adequate sets of a given size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--das", type=int, required=True, help="set size to enumerate")
    p.add_argument("--p", type=parse_probability, default=Fraction(1, 2))
    p.add_argument("--sort", choices=["lex", "sum"], default="lex")
    add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("solve", help="optimal win probability, sets and matrices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=parse_probability, required=True)
    p.add_argument("--all-matrices", action="store_true")
    add_common(p, formats=("text", "json"), default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evaluate", help="evaluate a decision-matrix file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=parse_probability, required=True)
    p.add_argument("--matrix", required=True, help="matrix text file")
    add_common(p, formats=("text", "json"), default="text")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("brute", help="brute-force all optimal matrices (n <= 3)")
    p.add_argument("--n", type=int, required=True, choices=(2, 3))
    p.add_argument("--p", type=parse_probability, required=True)
    add_common(p, formats=("text", "json"), default="text")
    p.set_defaults(func=cmd_brute)

    p = sub.add_parser("psi", help="maximum win probability curve")
    p.add_argument("--n", type=int, required=True, choices=(2, 3, 4, 5))
    p.add_argument("--pmin", type=parse_probability, required=True)
    p.add_argument("--pmax", type=parse_probability, required=True)
    p.add_argument("--steps", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("dominance", help="dominance graph of loss classes")
    p.add_argument("--n", type=int, default=5, choices=(2, 3, 4, 5))
    p.add_argument("--a", default=None, help="compare one signature (e.g. 022210)")
    p.add_argument("--b", default=None, help="against another")
    add_common(p, formats=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_dominance)

    p = sub.add_parser("complexity", help="strategy-space size comparison")
    add_common(p)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("covering", help="covering-code cross-check")
    p.add_argument("--n", type=int, default=None, choices=range(2, 10))
    add_common(p)
    p.set_defaults(func=cmd_covering)

    p = sub.add_parser("sweep", help="minimum loss by set size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=parse_probability, required=True)
    p.add_argument("--das-range", type=parse_size_range, default=None,
                   help="inclusive size range LO..HI")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()
        return EXIT_OK
    except ResourceLimitError as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        # the reader is gone; send what is still buffered nowhere so the
        # flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    raise SystemExit(main())
