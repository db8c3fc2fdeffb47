"""Adequate sets: the loss sets of hat-game strategies.

A nonempty set A of configurations is *adequate* when every configuration
shares at least one score coordinate with some member of A.  Adequate sets
are exactly the possible sets of losing configurations of deterministic
strategies, so maximizing the team's win probability is the same as finding
an adequate set of minimum total probability.

Sharing a score coordinate with a member of A means agreeing with it on all
bits but (at most) one, i.e. lying within Hamming distance 1 of it.  An
adequate set is therefore precisely a binary covering code of radius one on
the N-cube.  We exploit that: the production adequacy test ORs precomputed
radius-1 ball bitmasks, while the direct score-comparison definition is
kept as an independently-coded oracle for cross-checking.

The weight (probability) of an element depends only on its number of white
bits, so each set is summarized by its *signature*: the histogram
(c_0, ..., c_N) counting elements by white-bit count.  A set's probability
is then sum_j c_j p^j q^(N-j), computed as the integer sum of the counts
times :attr:`GameParams.weights`.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .core import (
    GameParams,
    HatGameError,
    ResourceLimitError,
    _Frozen,
    _check_config,
    _check_limit,
    _check_n,
    _check_params,
    _setattr,
    score_table,
)


class NoAdequateSetError(HatGameError, ValueError):
    """No adequate set of the requested size exists."""


# ---------------------------------------------------------------------------
# Coverage masks
# ---------------------------------------------------------------------------


def ball_mask(code: int, n: int) -> int:
    """Bitmask over all 2^n configurations of the radius-1 ball around
    ``code``: the configuration itself plus its n single-bit flips."""
    _check_config(code, n)
    mask = 1 << code
    for k in range(n):
        mask |= 1 << (code ^ (1 << k))
    return mask


@lru_cache(maxsize=32)
def _balls(n: int) -> tuple[int, ...]:
    return tuple(ball_mask(code, n) for code in range(1 << n))


@lru_cache(maxsize=32)
def _popcount_masks(n: int) -> tuple[int, ...]:
    """Bitmask of the configurations of each popcount 0..n."""
    masks = [0] * (n + 1)
    for code in range(1 << n):
        masks[code.bit_count()] |= 1 << code
    return tuple(masks)


def _full_mask(n: int) -> int:
    return (1 << (1 << n)) - 1


def _validate_elements(elements: Sequence[int], n: int) -> tuple[int, ...]:
    elems = tuple(elements)
    if not elems:
        raise ValueError("an adequate set must be nonempty")
    if len(set(elems)) != len(elems):
        raise ValueError("elements must be distinct")
    for e in elems:
        if not 0 <= e < (1 << n):
            raise ValueError("element %r out of range for n=%d" % (e, n))
    return elems


# ---------------------------------------------------------------------------
# Adequacy oracles
# ---------------------------------------------------------------------------


def is_adequate(elements: Sequence[int], n: int) -> bool:
    """Definition-based adequacy test via score comparison.

    True iff every configuration has some score coordinate equal to the
    same coordinate of some element.  Kept independent of the ball-cover
    implementation on purpose; the two are cross-checked in the test suite.
    """
    elems = _validate_elements(elements, n)
    table = score_table(n)
    # per player, the set of scores displayed by the chosen elements
    seen = [set() for _ in range(n)]
    for e in elems:
        vec = table[e]
        for i in range(n):
            seen[i].add(vec[i])
    for code in range(1 << n):
        vec = table[code]
        if not any(vec[i] in seen[i] for i in range(n)):
            return False
    return True


def is_adequate_hamming(elements: Sequence[int], n: int) -> bool:
    """Radius-1 covering-code test: do the balls around the elements cover
    the whole n-cube?  Must agree with :func:`is_adequate` everywhere."""
    elems = _validate_elements(elements, n)
    balls = _balls(n)
    covered = 0
    for e in elems:
        covered |= balls[e]
    return covered == _full_mask(n)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


class AdequateSet(_Frozen):
    """A validated adequate set: sorted distinct configurations covering
    the whole cube within Hamming distance one."""

    __slots__ = _fields = ("elements", "n_players")

    def __init__(self, elements: tuple[int, ...], n_players: int):
        elems = tuple(elements)
        # is_adequate_hamming validates the elements before testing them
        if not is_adequate_hamming(elems, n_players):
            raise ValueError(
                "%r is not adequate for n=%d" % (tuple(sorted(elems)), n_players)
            )
        _setattr(self, "elements", tuple(sorted(elems)))
        _setattr(self, "n_players", n_players)

    @property
    def size(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


class Signature(_Frozen):
    """Histogram (c_0, ..., c_N): c_j elements have exactly j white bits.

    Two sets with the same signature have the same probability for every p,
    namely sum_j c_j p^j q^(N-j).
    """

    __slots__ = _fields = ("counts",)

    def __init__(self, counts: tuple[int, ...]):
        counts = tuple(map(operator.index, counts))
        if len(counts) < 3 or any(c < 0 for c in counts):
            raise ValueError("invalid signature counts %r" % (counts,))
        _setattr(self, "counts", counts)

    @property
    def n_players(self) -> int:
        return len(self.counts) - 1

    @property
    def size(self) -> int:
        return sum(self.counts)

    def compact(self) -> str:
        """Digit-string form like "01210"; dash-separated if any count
        exceeds 9."""
        if all(c <= 9 for c in self.counts):
            return "".join(str(c) for c in self.counts)
        return "-".join(str(c) for c in self.counts)

    @classmethod
    def from_compact(cls, text: str) -> "Signature":
        if "-" in text:
            return cls(tuple(int(t) for t in text.split("-")))
        return cls(tuple(int(ch) for ch in text))

    def reversed(self) -> "Signature":
        """Signature of the bitwise-complemented set (colors swapped)."""
        return Signature(tuple(reversed(self.counts)))

    def probability(self, params: GameParams) -> Fraction:
        """sum_j c_j p^j q^(N-j): the counts dotted with the integer
        :attr:`GameParams.weights`, one Fraction at the end."""
        if params.n_players != self.n_players:
            raise ValueError("signature length does not match params")
        total = sum(c * w for c, w in zip(self.counts, params.weights))
        return Fraction(total, params.total_weight)

    def __str__(self):
        return self.compact()


def _zero_counts(elements: Iterable[int], n: int) -> tuple[int, ...]:
    counts = [0] * (n + 1)
    for e in elements:
        counts[n - e.bit_count()] += 1
    return tuple(counts)


def signature(aset: AdequateSet) -> Signature:
    """Zero-count histogram of the set's elements."""
    return Signature(_zero_counts(aset.elements, aset.n_players))


def set_probability(aset: AdequateSet, params: GameParams) -> Fraction:
    """Total probability of the set's configurations (the strategy's loss),
    which its signature fixes."""
    if params.n_players != aset.n_players:
        raise ValueError("params are for %d players, set is for %d"
                         % (params.n_players, aset.n_players))
    return signature(aset).probability(params)


# ---------------------------------------------------------------------------
# Listing every cover of one size
# ---------------------------------------------------------------------------


def _cover_tuples(n: int, size: int) -> list[tuple[int, ...]]:
    """All size-``size`` adequate subsets of [0, 2^n), lexicographically.

    Branches, as :func:`_cover_search` does, on the coverers (in index
    order) of the lowest uncovered configuration, each coverer tried being
    banned in the branches after it, so every cover is reached exactly
    once.  A child is settled in its parent's loop: a finished cover is
    padded there with every combination of the unbanned, unchosen
    elements, and a child is called only when its uncovered configurations
    fit in its elements left (n+1 each).  With one element left no call is
    made: that element's ball holds every uncovered configuration, so it
    covers the lowest two, and two distinct configurations share at most
    two coverers; each unbanned one whose ball holds the rest ends a set.
    The listing is built in memory and sorted once.  Refused beyond the
    two listing rows of ``core._LIMITS``: up front by n, and as soon as
    the sets built plus the paddings of the next finished cover (one per
    one-left set) would pass the listed-sets row; that count is a lower
    bound on the listing's size, and the refusal says so.  An n outside
    [2, MAX_PLAYERS] is a ``ValueError`` before either.
    """
    _check_n(n)
    _check_limit("adequate-set listing at n", n)
    h = 1 << n
    if not 1 <= size <= h:
        raise ValueError("size must be in [1, %d], got %r" % (h, size))
    full = _full_mask(n)
    balls = _balls(n)
    coverers = _search_tables(n, True)[1]  # in index order
    per_ball = n + 1
    found: list[tuple[int, ...]] = []

    def rec(uncovered: int, chosen: tuple[int, ...], banned: int, left: int):
        low = (uncovered & -uncovered).bit_length() - 1
        for e in coverers[low]:
            # chosen elements never cover `low`, so only bans filter here
            if (banned >> e) & 1:
                continue
            rest = uncovered & ~balls[e]
            if not rest:
                taken = banned | 1 << e
                for x in chosen:
                    taken |= 1 << x
                free = [x for x in range(h) if not (taken >> x) & 1]
                _check_limit("sets in one adequate-set listing",
                             len(found) + math.comb(len(free), left - 1),
                             at_least=True)
                for extra in itertools.combinations(free, left - 1):
                    found.append(tuple(sorted(chosen + (e,) + extra)))
            elif rest.bit_count() > (left - 1) * per_ball:
                pass  # more uncovered than the elements left can cover
            elif left > 2:
                rec(rest, chosen + (e,), banned, left - 1)
            else:
                # the last element covers rest's lowest two configurations;
                # e and the chosen elements cover none, so only bans filter
                a = rest & -rest
                cand = balls[a.bit_length() - 1] & ~banned
                if rest != a:
                    b = rest ^ a
                    cand &= balls[(b & -b).bit_length() - 1]
                while cand:
                    f = (cand & -cand).bit_length() - 1
                    cand &= cand - 1
                    if not rest & ~balls[f]:
                        _check_limit("sets in one adequate-set listing",
                                     len(found) + 1, at_least=True)
                        found.append(tuple(sorted(chosen + (e, f))))
            banned |= 1 << e

    if h <= size * per_ball:
        rec(full, (), 0, size)
    found.sort()
    return found


def enumerate_adequate(n: int, size: int) -> Iterator[AdequateSet]:
    """Stream every adequate set of exactly ``size`` elements, in
    lexicographic order of element tuples, each validated once as an
    :class:`AdequateSet`.  May be empty.  Refused where
    :func:`_cover_tuples` is.

    The listing of :func:`_cover_tuples` is built in full before the first
    set is yielded, so memory grows with the count: streaming all of n=5,
    size=9 (410 400 sets) peaks near 64 MB."""
    for elems in _cover_tuples(n, size):
        yield AdequateSet(elems, n)


@lru_cache(maxsize=8)
def adequate_sets_cached(n: int, size: int) -> tuple[AdequateSet, ...]:
    """Materialized :func:`enumerate_adequate`, cached for callers that
    read the same listing more than once.  The package itself reads the
    listing through :func:`_signature_groups`."""
    return tuple(enumerate_adequate(n, size))


@lru_cache(maxsize=8)
def _signature_groups(
    n: int, size: int
) -> tuple[tuple[Signature, tuple[tuple[int, ...], ...]], ...]:
    """The listing of :func:`_cover_tuples` grouped by signature: one
    (signature, element tuples) pair per class, classes in order of first
    appearance in the lexicographic listing, tuples lexicographic within
    each.  This is the one place where a listed set's class is computed."""
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for elems in _cover_tuples(n, size):
        groups.setdefault(_zero_counts(elems, n), []).append(elems)
    return tuple((Signature(counts), tuple(sets)) for counts, sets in groups.items())


def optimal_sets(
    n: int, params: GameParams, size: int
) -> tuple[list[AdequateSet], Fraction]:
    """All minimum-probability adequate sets of exactly ``size`` elements
    (lexicographic order) together with the minimum value.

    Each signature class of :func:`_signature_groups` is evaluated once;
    the winners are the sets of the classes that attain the minimum."""
    _check_params(n, params)
    groups = _signature_groups(n, size)
    if not groups:
        raise NoAdequateSetError(
            "no adequate set of size %d exists for n=%d" % (size, n)
        )
    values = [sig.probability(params) for sig, _ in groups]
    best = min(values)
    winners = sorted(
        elems
        for (_, sets), value in zip(groups, values) if value == best
        for elems in sets
    )
    return [AdequateSet(elems, n) for elems in winners], best


# ---------------------------------------------------------------------------
# Minimum-weight cover branch and bound
# ---------------------------------------------------------------------------


def _layer_prices(n: int, weights: Sequence[int]) -> list[int]:
    """Dual prices of the cover LP, scaled by n+1, one per layer: the
    configurations with z white hats, which weigh ``weights[z]``.

    An element of layer j covers one configuration of layer j, j of layer
    j-1 and n-j of layer j+1; its dual constraint bounds its ball's prices
    by n+1 times its weight.  Each layer starts at its cheapest coverer's
    weight, which is feasible, and is then raised, lightest layer first,
    as far as the slack of the layers covering it allows.
    """
    # the 0 appended prices the layers -1 and n+1, which hold nothing
    prices = [min(weights[max(k - 1, 0):k + 2]) for k in range(n + 1)] + [0]
    slack = [(n + 1) * weights[j] - j * prices[j - 1] - prices[j]
             - (n - j) * prices[j + 1] for j in range(n + 1)]
    for k in sorted(range(n + 1), key=weights.__getitem__):
        # layer k holds n-k+1 configurations of a ball of layer k-1, one of
        # a ball of its own and k+1 of a ball of layer k+1
        step = slack[k]
        if k > 0:
            step = min(step, slack[k - 1] // (n - k + 1))
        if k < n:
            step = min(step, slack[k + 1] // (k + 1))
        prices[k] += step
        slack[k] -= step
        if k > 0:
            slack[k - 1] -= (n - k + 1) * step
        if k < n:
            slack[k + 1] -= (k + 1) * step
    return prices[:-1]


@lru_cache(maxsize=64)
def _search_tables(n: int, half: bool) -> tuple:
    """The element order of :func:`_cover_search` (by weight, then index),
    each configuration's coverers in that order, and the order's runs of
    equal weight as (first element, count, mask).  At the heavier color
    the weight falls as the popcount grows, unless p = 1/2 ties them all."""
    h = 1 << n
    key = (lambda e: e) if half else (lambda e: (-e.bit_count(), e))
    order = tuple(sorted(range(h), key=key))
    coverers = tuple(tuple(sorted([c] + [c ^ 1 << k for k in range(n)], key=key))
                     for c in range(h))
    if half:
        return order, coverers, ((0, h, _full_mask(n)),)
    masks = _popcount_masks(n)
    return order, coverers, tuple(((1 << k) - 1, math.comb(n, k), masks[k])
                                  for k in range(n, -1, -1))


def _greedy_cover(n: int, weights: Sequence[int]) -> tuple[int, ...]:
    """Repeatedly the element of least weight per newly covered
    configuration (scaled by lcm(1..n+1) to stay integral), lowest first."""
    full, balls = _full_mask(n), _balls(n)
    scale = math.lcm(*range(1, n + 2))
    cover, covered = (), 0
    while covered != full:
        free = full & ~covered
        _, _, e = min([(w * scale // g, w, e)
                       for e, (w, ball) in enumerate(zip(weights, balls))
                       if (g := (ball & free).bit_count())])
        covered |= balls[e]
        cover += (e,)
    return cover


@lru_cache(maxsize=32)
def _plain_greedy(n: int) -> tuple[int, ...]:
    """The greedy cover with equal weights, as at p = 1/2."""
    return _greedy_cover(n, [1] * (1 << n))


def _cover_search(
    n: int,
    params: GameParams,
    size: int | None = None,
    node_budget: int | None = None,
) -> tuple[AdequateSet, Fraction] | None:
    """Minimum-probability adequate set, over all sizes or of exactly
    ``size`` elements (``None`` when no set of that size exists).

    Branch and bound on the integer :attr:`GameParams.weights`, at the
    heavier color: for p < 1/2 it searches at 1 - p and returns the
    complement (e XOR (2^n - 1)) of that witness.  A node branches on the
    coverers of its lowest uncovered configuration ``low`` in the order of
    :func:`_search_tables`, each banned in the branches after it.  A child
    is built, counted and cut in its parent's loop; only children passing
    every cut are called.

    Coordinate symmetry: a node keeps one column per coordinate, the bits
    of its chosen elements there.  Coverers flipping ``low`` along i and k
    are one orbit when columns i and k and the bits of ``low`` at i and k
    are equal; only the first is branched on.  The swap (i k) fixes the
    chosen elements and ``low`` and keeps weights, so it maps a cover of a
    skipped branch onto one of equal weight reached earlier.

    Over all sizes the incumbent is the greedy cover, and the search
    starts from one more than the lighter of its irredundant part and the
    lightest translate (XOR by any v) of the p = 1/2 greedy cover.  A
    child is cut when its weight plus the cheapest coverer of its ``low``
    reaches the incumbent.

    At a fixed size a finished cover is padded with the lightest unchosen
    elements.  If the p = 1/2 greedy cover has at most ``size`` elements,
    the search starts from one more than the lightest of its translates,
    each padded with the lightest elements outside it; otherwise it
    starts with no incumbent.  A child is cut when more configurations
    are uncovered than its elements left cover (n+1 each), or when its
    weight plus its lightest unchosen elements reaches the incumbent.

    In both modes a child is cut when its weight, or its weight plus its
    dual bound, reaches the incumbent.  The dual is the uncovered
    configurations' prices (:func:`_layer_prices`) over n+1, rounded up,
    carried down the tree: an element of popcount k covers only the
    layers k-1, k and k+1.  Padding weighs at least 0, so the dual bounds
    a sized cover too.  A start of W + 1 with W at least the optimum cuts
    no node whose bound is at most the optimum, and only a strictly
    lighter leaf replaces the incumbent.  So the witness is the greedy
    cover if it ties the optimum over all sizes, else the first optimum
    in search order.  Exceeding ``node_budget`` raises
    :class:`ResourceLimitError`.
    """
    h = 1 << n
    full = _full_mask(n)
    balls = _balls(n)
    half = 2 * params.p_white == 1
    # searching at 1 - p weighs each element as its complement does at p
    flip = h - 1 if 2 * params.p_white < 1 else 0
    weights = [params.weights[n - (c ^ flip).bit_count()] for c in range(h)]
    order, coverers, runs = _search_tables(n, half)
    runs = [(weights[e], count, mask) for e, count, mask in runs]
    cheap = [weights[cov[0]] for cov in coverers]
    per_ball = n + 1

    # layer prices by popcount (layer z is popcount n - z, or z once the
    # colors are flipped), and per element the prices and ball parts of its
    # three layers; index -1 and n+1 hold nothing
    layer = _layer_prices(n, params.weights)
    price = [layer[c if flip else n - c] for c in range(n + 1)] + [0]
    masks = _popcount_masks(n) + (0,)
    parts = []
    dual = 0
    for e in range(h):
        c = e.bit_count()
        parts.append((price[c - 1], balls[e] & masks[c - 1], price[c],
                      price[c + 1], balls[e] & masks[c + 1]))
        dual += price[c]

    def lightest(taken: int, count: int) -> int:
        # weight of the `count` lightest elements outside `taken`
        total = 0
        for w, run, mask in runs:
            free = run - (taken & mask).bit_count()
            if free >= count:
                return total + count * w
            total += free * w
            count -= free

    best = params.total_weight + 1  # heavier than any cover
    best_set: tuple[int, ...] = ()
    base = _plain_greedy(n)
    if size is None:
        best_set = base if half else _greedy_cover(n, weights)
        best = sum(weights[e] for e in best_set)
        # its irredundant part, dropping heaviest first, bounds the optimum
        # too; that weight + 1 still lets the search reach its first optimum
        kept = list(best_set)
        for e in sorted(best_set, key=lambda e: (-weights[e], e)):
            rest = 0
            for f in kept:
                if f != e:
                    rest |= balls[f]
            if rest == full:
                kept.remove(e)
        best = min(best, sum(weights[e] for e in kept) + 1)
    pad = 0 if size is None else size - len(base)
    if pad >= 0:
        # each translate (XOR by v) of `base`, padded to the size with the
        # lightest elements outside it, is a cover: its weight + 1 too
        best = min(best, min(sum([weights[e ^ v] for e in base])
                             + (lightest(sum([1 << (e ^ v) for e in base]), pad)
                                if pad else 0)
                             for v in range(h)) + 1)

    def rec(uncovered: int, low: int, chosen: tuple[int, ...], weight: int,
            banned: int, cols: tuple[int, ...] | None, dual: int, taken: int):
        nonlocal best, best_set, nodes
        if cols is not None and chosen:
            # `cols` are the parent's columns: append the last element's bits
            last = chosen[-1]
            cols = tuple([c << 1 | (last >> i) & 1 for i, c in enumerate(cols)])
            if len(set(cols)) == n:
                cols = None
        tried = 0
        orbits = set()
        for e in coverers[low]:
            w = weight + weights[e]
            if w >= best:
                break  # coverers are in weight order: the rest weigh no less
            if cols is not None and e != low:
                # e flips `low` along k; a swap of two coordinates with equal
                # columns and equal bits of `low` maps one such flip to another
                k = (e ^ low).bit_length() - 1
                orbit = (cols[k], (low >> k) & 1)
                if orbit in orbits:
                    tried |= 1 << e
                    continue
                orbits.add(orbit)
            # chosen elements never cover `low`, so only bans filter here
            if (banned >> e) & 1:
                continue
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise ResourceLimitError(
                    "cover search exceeded the node budget (%d)" % node_budget
                )
            rest = uncovered & ~balls[e]
            if not rest:
                child = chosen + (e,)
                if size is not None:
                    extras = tuple(itertools.islice(
                        (x for x in order if x not in child), size - len(child)))
                    child += extras
                    w += sum(weights[x] for x in extras)
                if w < best:
                    best, best_set = w, child
            else:
                at = (rest & -rest).bit_length() - 1
                if size is None:
                    mask = 0
                    cut = w + cheap[at] >= best
                else:
                    left = size - len(chosen) - 1
                    mask = taken | 1 << e
                    cut = (rest.bit_count() > left * per_ball
                           or w + lightest(mask, left) >= best)
                if not cut:
                    lo_price, lo, own, hi_price, hi = parts[e]
                    d = (dual - lo_price * (uncovered & lo).bit_count()
                         - own * (uncovered >> e & 1)
                         - hi_price * (uncovered & hi).bit_count())
                    if w - (-d // per_ball) < best:
                        rec(rest, at, chosen + (e,), w, banned | tried, cols,
                            d, mask)
            tried |= 1 << e

    nodes = 1  # the root, which has its own cuts and is never a cover
    if node_budget is not None and node_budget < 1:
        raise ResourceLimitError(
            "cover search exceeded the node budget (%d)" % node_budget
        )
    if (h <= size * per_ball if size is not None
            else cheap[0] < best and -(-dual // per_ball) < best):
        rec(full, 0, (), 0, 0, (0,) * n, dual, 0)
    if not best_set:
        return None
    value = Fraction(best, params.total_weight)
    return AdequateSet(tuple(sorted(e ^ flip for e in best_set)), n), value


def min_cover_optimize(
    n: int, params: GameParams, node_budget: int | None = None
) -> tuple[AdequateSet, Fraction]:
    """Adequate set of globally minimum probability, over all sizes, by
    the exact branch and bound of :func:`_cover_search`, which says which
    optimum is the witness; it is irredundant.  n = 7 takes at most 85
    nodes at every p = k/20.

    ``node_budget`` bounds the search-tree size for best-effort runs on
    larger n; exceeding it raises :class:`ResourceLimitError`.  n is
    refused up front beyond its row of ``core._LIMITS``, with a budget or
    without: the tables the search builds before its first node grow with
    2^n either way.
    """
    _check_params(n, params)
    if node_budget is None:
        _check_limit("cover search without a node budget at n", n)
    else:
        _check_limit("cover search with a node budget at n", n)
    return _cover_search(n, params, node_budget=node_budget)


@lru_cache(maxsize=32)
def min_cover_size(n: int) -> int:
    """Smallest size of an adequate set for n players: the minimum size
    K(n,1) of a binary covering code of radius 1.

    At p = 1/2 every configuration has the same probability, so the
    cheapest cover found by :func:`min_cover_optimize` is a smallest one.
    Refused beyond its row of ``core._LIMITS``.
    """
    params = GameParams(n, Fraction(1, 2))
    _check_limit("minimum cover size at n", n)
    return min_cover_optimize(n, params)[0].size


# ---------------------------------------------------------------------------
# Size sweeps
# ---------------------------------------------------------------------------


class SweepRow(_Frozen):
    """One row of a size sweep: ``size``, then the ``signature``,
    ``min_sum`` and ``witness`` of the best adequate set of that size from
    :func:`_cover_search` (all None when there is none)."""

    __slots__ = _fields = ("size", "signature", "min_sum", "witness")


def size_sweep(
    n: int,
    sizes: Iterable[int],
    params: GameParams,
) -> list[SweepRow]:
    """Minimum probability and its signature for each requested set size,
    each row from the exact-size branch and bound of :func:`_cover_search`,
    which runs at the heavier color: the rows at p and 1 - p have equal
    sums, reversed signatures and complementary witnesses.  Each witness
    is the first optimum in search order; :func:`_cover_search` says why
    its padded-translate start and layer dual keep that one.

    Rows whose size admits no adequate set carry ``None`` entries.
    Refused beyond its row of ``core._LIMITS``.
    """
    _check_params(n, params)
    _check_limit("size sweep at n", n)
    rows: list[SweepRow] = []
    for size in sizes:
        if not 1 <= size <= (1 << n):
            raise ValueError("size %r out of range for n=%d" % (size, n))
        found = _cover_search(n, params, size=size)
        if found is None:
            rows.append(SweepRow(size, None, None, None))
        else:
            witness, best = found
            rows.append(SweepRow(size, signature(witness), best, witness))
    return rows
