"""Brute force as an independent oracle.

For two and three players the whole strategy space is small enough to
search outright: 3^4 = 81 and 3^12 = 531441 matrices.  The maxima and the
full lists of maximizers confirm what the covering-set method predicts,
while sharing none of its code.

Run:  python demos/04_brute_force_crosscheck.py
"""

from fractions import Fraction

from hatgame import (
    GameParams,
    all_matrices_for_set,
    brute_force_optimal,
    dedupe_player_permutation,
    enumerate_adequate,
    optimal_sets,
)

print("Two players, p = 1/2:")
params2 = GameParams(2, Fraction(1, 2))
best, matrices = brute_force_optimal(2, params2)
reps = dedupe_player_permutation(matrices, 2)
print("  maximum win probability: %s" % best)
print("  optimal matrices: %d, non-isomorphic: %d" % (len(matrices), len(reps)))
print()
print("  The same 30 matrices, organized by loss set:")
for aset in enumerate_adequate(2, 2):
    count = len(all_matrices_for_set(aset))
    print("    loss set %s -> %d matrices" % (set(aset.elements), count))
print("  (4 sets x 3 + 2 sets x 9 = 30; the interaction-free pairs {0,3}")
print("  and {1,2} admit more freedom)")
print()

print("Three players, full 531441-strategy search:")
for p in (Fraction(1, 2), Fraction(9, 10)):
    params = GameParams(3, p)
    best, matrices = brute_force_optimal(3, params)
    _, min_loss = optimal_sets(3, params, 2)
    print(
        "  p=%s: max %s, %d optimal matrices; covering method"
        " predicts 1 - %s = %s"
        % (p, best, len(matrices), min_loss, 1 - min_loss)
    )
    assert best == 1 - min_loss
print()
print("The brute-force maxima equal 1 minus the cheapest loss set, and")
print("the maximizer lists are exactly the synthesized matrices.")
