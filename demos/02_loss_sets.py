"""Loss sets are radius-1 covering codes.

A set of configurations can be the exact loss set of some strategy iff
every configuration agrees with a member of the set in all but at most one
position, i.e. the radius-1 Hamming balls around the set cover the whole
cube.  This demo enumerates those sets and shows the minimum sizes.

Run:  python demos/02_loss_sets.py
"""

from hatgame import (
    ball_mask,
    enumerate_adequate,
    is_adequate,
    is_adequate_hamming,
    min_cover_size,
)

print("Radius-1 ball around 000 (three players):")
mask = ball_mask(0, 3)
print("  covers:", [c for c in range(8) if (mask >> c) & 1])
print()

print("Which pairs work for three players? A pair {a, b} is a valid loss")
print("set iff the two balls cover all eight configurations:")
for elems, verdict in [((0, 7), None), ((0, 1), None), ((3, 4), None)]:
    ok = is_adequate_hamming(elems, 3)
    assert ok == is_adequate(elems, 3)  # two independent tests, same answer
    print("  %s -> %s" % (set(elems), "covers" if ok else "does not cover"))
print()

print("All minimum-size loss sets, by player count:")
for n in (2, 3, 4, 5):
    size = min_cover_size(n)
    sets = list(enumerate_adequate(n, size))
    print("  n=%d: minimum size %d, %d sets" % (n, size, len(sets)))
    for aset in sets[:3]:
        print("      ", aset.elements)
    if len(sets) > 3:
        print("       ...")
print()
print("At p = 1/2 every configuration weighs 2^-n, so the minimum-size")
print("sets are exactly the optimal ones: the five-player team keeps")
print("1 - 7/32 = 25/32 of the games.")
