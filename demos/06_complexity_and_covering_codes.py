"""Why loss sets beat brute force, and the covering-code connection.

Brute force over decision matrices examines 3^(2^(n-1) n) strategies; the
loss-set method only has to scan C(2^n, k) candidate subsets.  The minimum
loss-set size in the symmetric game equals K(n, 1), the smallest binary
covering code of radius 1.

Run:  python demos/06_complexity_and_covering_codes.py
"""

from fractions import Fraction

from hatgame import (
    GameParams,
    complexity_table,
    covering_check,
    size_sweep,
)
from hatgame.polys import decimal_str

print("Strategy-space sizes (exact where printable):")
print("  n   size  brute force      reduced          candidate sets")
for row in complexity_table():
    full = str(row.full_strategies) if row.full_strategies < 10**7 else row.full_sci
    red = str(row.reduced_strategies) if row.reduced_strategies < 10**7 else row.reduced_sci
    cand = str(row.candidate_sets) if row.candidate_sets < 10**7 else row.candidate_sci
    print("  %d   %-4d  %-15s  %-15s  %s" % (row.n_players, row.min_size, full, red, cand))
print()

print("Minimum loss-set size vs covering-code size K(n, 1):")
for n in range(2, 10):
    r = covering_check(n)
    computed = "computed %d" % r.computed_min_size if r.computed_min_size else "table only"
    print(
        "  n=%d: K=%2d (%s%s), symmetric win bound %s"
        % (
            n,
            r.covering_code_size,
            computed,
            "" if r.agrees is None else ", agrees" if r.agrees else ", MISMATCH",
            decimal_str(r.symmetric_win_probability, 6),
        )
    )
print()

print("Does allowing bigger loss sets ever help? Minimum cost by size,")
print("four players, p = 9/10 (it never drops below the size-4 optimum):")
rows = size_sweep(4, range(4, 17), GameParams(4, Fraction(9, 10)))
for r in rows:
    print(
        "  size %-2d  class %-7s  cost %s"
        % (r.size, r.signature.compact(), decimal_str(r.min_sum, 6))
    )
print()

print("Five players at p = 11/20, where the story is subtler: the rows")
print("come from an exact branch-and-bound with a fixed-cardinality")
print("constraint.")
rows5 = size_sweep(5, (7, 8, 9, 12, 17, 18, 26, 31, 32), GameParams(5, Fraction(11, 20)))
for r in rows5:
    print(
        "  size %-2d  class %-12s  cost %s"
        % (r.size, r.signature.compact(), decimal_str(r.min_sum, 6))
    )
print()
print("Every loss class keeps at least one element within distance one of")
print("the all-white configuration (otherwise it could not cover it), so")
print("the last two count columns can never both be zero.")
