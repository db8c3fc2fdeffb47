"""Adequate-set counter that shares no code with the package's search.

The package decides coverage with radius-1 ball bitmasks (``_balls``) and
lists covers by ascending element choice (``_cover_tuples``).  This module
uses neither.  It works from the definition: a configuration is covered by
an element when some player sees the same score in both, where a score is
the configuration with that player's bit deleted.  It counts sets of an
exact size by branching on which element covers the lowest uncovered
configuration first, and closes each complete cover by counting the ways
to pad it.  Every set of that size is counted exactly once, so the counts
and the signature histograms it writes are an independent reference.

Run ``python3 bench/refcount.py`` to regenerate ``bench/reference.json``
(about a minute on a 2-core x86 machine, most of it n = 5 at size 9).
"""

from __future__ import annotations

import json
import math
import os
import sys
from functools import lru_cache

#: Published minimum sizes K(n, 1) of binary covering codes of radius 1.
PUBLISHED_K = {2: 2, 3: 2, 4: 4, 5: 7}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def scores(code: int, n: int) -> tuple[int, ...]:
    """What each player sees: the configuration with that player's bit
    (MSB first) deleted, read as an integer."""
    out = []
    for i in range(n):
        shift = n - 1 - i
        high = code >> (shift + 1)
        low = code & ((1 << shift) - 1)
        out.append((high << shift) | low)
    return tuple(out)


def whites(code: int, n: int) -> int:
    """Number of white hats (zero bits)."""
    return sum(1 for i in range(n) if not (code >> i) & 1)


@lru_cache(maxsize=None)
def neighbourhoods(n: int) -> tuple[int, ...]:
    """neighbourhoods(n)[c] has bit e set when e and c show some player
    the same score, found by comparing score vectors pairwise."""
    table = [scores(c, n) for c in range(1 << n)]
    out = []
    for c in range(1 << n):
        mask = 0
        for e in range(1 << n):
            if any(table[c][i] == table[e][i] for i in range(n)):
                mask |= 1 << e
        out.append(mask)
    return tuple(out)


def covers(elements, n: int) -> bool:
    """Definition-based adequacy: every configuration shares a score
    coordinate with some element."""
    elems = set(elements)
    table = [scores(c, n) for c in range(1 << n)]
    seen = [{table[e][i] for e in elems} for i in range(n)]
    return all(
        any(table[c][i] in seen[i] for i in range(n)) for c in range(1 << n)
    )


@lru_cache(maxsize=None)
def _paddings(free_by_class: tuple[int, ...], r: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Ways to pick r more elements from free_by_class[j] elements of class
    j, grouped by how many come from each class."""
    if not free_by_class:
        return (((), 1),) if r == 0 else ()
    head, rest = free_by_class[0], free_by_class[1:]
    out = []
    for take in range(min(head, r) + 1):
        for tail, ways in _paddings(rest, r - take):
            out.append(((take,) + tail, math.comb(head, take) * ways))
    return tuple(out)


def count_by_signature(n: int, size: int) -> dict[tuple[int, ...], int]:
    """Histogram {signature: number of adequate sets of exactly ``size``
    elements with that signature}; a signature counts elements by their
    number of white hats."""
    h = 1 << n
    full = (1 << h) - 1
    nbhd = neighbourhoods(n)
    klass = [whites(c, n) for c in range(h)]
    hist: dict[tuple[int, ...], int] = {}

    def rec(covered: int, used: int, forbidden: int, sig: list[int], k: int) -> None:
        if covered == full:
            free = [0] * (n + 1)
            for e in range(h):
                if not ((used | forbidden) >> e) & 1:
                    free[klass[e]] += 1
            for extra, ways in _paddings(tuple(free), size - k):
                key = tuple(a + b for a, b in zip(sig, extra))
                hist[key] = hist.get(key, 0) + ways
            return
        if k == size:
            return
        uncovered = full & ~covered
        if bin(uncovered).count("1") > (size - k) * (n + 1):
            return
        c = (uncovered & -uncovered).bit_length() - 1
        earlier = 0
        for e in range(h):
            if not (nbhd[c] >> e) & 1 or (forbidden >> e) & 1:
                continue
            # e is the first element of the set, in index order, that
            # covers c: every earlier candidate is left out
            sig[klass[e]] += 1
            rec(covered | nbhd[e], used | (1 << e), forbidden | earlier, sig, k + 1)
            sig[klass[e]] -= 1
            earlier |= 1 << e

    rec(0, 0, 0, [0] * (n + 1), 0)
    return dict(sorted(hist.items()))


def sizes_for(n: int) -> range:
    """Sizes recorded for n: K(n, 1) - 1 through K(n, 1) + 2."""
    k = PUBLISHED_K[n]
    return range(max(1, k - 1), k + 3)


def build_reference() -> dict:
    ref = {}
    for n in sorted(PUBLISHED_K):
        rows = {}
        for size in sizes_for(n):
            hist = count_by_signature(n, size)
            rows[str(size)] = {
                "count": sum(hist.values()),
                "signatures": {"-".join(map(str, s)): c for s, c in hist.items()},
            }
            print("n=%d size=%d count=%d" % (n, size, rows[str(size)]["count"]), file=sys.stderr)
        ref[str(n)] = rows
    return ref


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def main() -> int:
    ref = build_reference()
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
