"""Decision-matrix synthesis and brute-force strategy search.

Every computation here walks the cells of the matrix and their two
counterpart configurations (see :mod:`hatgame.core`), and asks the one
guess rule of ``core._outcome`` which counterpart a decision wins or
loses.

An adequate set A induces a strategy that loses exactly on A: each cell
with one counterpart in A guesses wrong there, a cell with both in A is
provably unconstrained and marked FREE, and every other cell passes.

The other direction is brute force: for two and three players the full
strategy space (3^4 resp. 3^12 matrices) is searched outright, giving an
oracle completely independent of the covering-set machinery.  The search
runs on integer configuration masks, and all probability comparisons stay
exact: the rows of all players but the last fall into mask groups, each
win mask is evaluated once as an integer weight sum, and the last
player's rows run once per group.  The same masks drive the backtracking
of :func:`all_matrices_for_set`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .core import (
    CONCRETE_DECISIONS,
    FREE,
    GUESS_BLACK,
    GUESS_WHITE,
    PASS,
    DecisionMatrix,
    GameParams,
    _cells,
    _check_limit,
    _check_params,
    _guess_masks,
    _outcome,
    evaluate_matrix,
    score_table,
)
from .adequate import AdequateSet


def matrix_from_set(aset: AdequateSet) -> DecisionMatrix:
    """Decision matrix that loses exactly on the given adequate set.

    A cell with one counterpart in the set receives the guess that is
    wrong on that counterpart; a cell with both counterparts in the set
    receives FREE (either guess, or a pass, turns out not to matter); every
    other cell passes.
    """
    lose = frozenset(aset.elements)
    rows = []
    for row_cells in _cells(aset.n_players):
        row = []
        for white, black in row_cells:
            d = PASS
            if white in lose or black in lose:
                for guess in (GUESS_BLACK, GUESS_WHITE):
                    if _outcome(guess, white, black)[0] in lose:
                        d = guess if d == PASS else FREE
            row.append(d)
        rows.append(tuple(row))
    return DecisionMatrix(tuple(rows))


# ---------------------------------------------------------------------------
# Brute force over the full strategy space (n <= 3)
# ---------------------------------------------------------------------------


def _matrix_from_ternary_index(index: int, n: int) -> DecisionMatrix:
    """Decode a matrix from its ternary code.

    Cells are ordered player-major, score-minor, with player 1 / score 0
    the most significant digit; each digit d in {0, 1, 2} encodes the
    decision d - 1.
    """
    width = 1 << (n - 1)
    cells = n * width
    digits = []
    for _ in range(cells):
        digits.append(index % 3 - 1)
        index //= 3
    digits.reverse()
    rows = tuple(
        tuple(digits[i * width : (i + 1) * width]) for i in range(n)
    )
    return DecisionMatrix(rows)


def brute_force_optimal(
    n: int, params: GameParams
) -> tuple[Fraction, list[DecisionMatrix]]:
    """Exact maximum win probability over *all* FREE-less matrices,
    together with every maximizer, in ascending ternary-code order.

    Only n = 2 (81 strategies) and n = 3 (531441 strategies) are accepted;
    the space grows as 3^(n 2^(n-1)).

    A matrix wins where some guess is right and none is wrong.  With w and
    r the wrong and right masks of its first n - 1 rows, that set depends
    on them only through the pair (w, r & ~w), so those partial matrices
    fall into mask groups (at n = 3, 6 561 partials into 1 296 groups)
    and the last row is tried once per group: 104 976 win masks in place
    of 531 441.  Every matrix is in exactly one group, so the search stays
    exhaustive; the maximizers are the codes of the groups and last rows
    that reach the best value, sorted.
    """
    if n not in (2, 3):
        raise ValueError("brute force is supported for n in {2, 3} only")
    _check_params(n, params)
    # every row of each player's decisions, in ternary-code order, as the
    # masks of the configurations where it guesses wrong and where it
    # guesses right
    choices = list(itertools.product(CONCRETE_DECISIONS, repeat=1 << (n - 1)))
    rows = [[_guess_masks((row,), (row_cells,)) for row in choices]
            for row_cells in _cells(n)]
    # product over all players but the last, player 1 outermost: position
    # = ternary code of those rows; the last factor is streamed
    partial = [(0, 0)]
    for outcomes in rows[:-2]:
        partial = [(w | rw, r | rr) for w, r in partial for rw, rr in outcomes]
    partial = ((w | rw, r | rr) for w, r in partial for rw, rr in rows[-2])
    # a full matrix wins on (r | rr) & ~(w | rw), which sees its partial
    # (w, r) only through (w, r & ~w): group the partials by that pair
    groups: dict[tuple[int, int], list[int]] = {}
    for code, (w, r) in enumerate(partial):
        groups.setdefault((w, r & ~w), []).append(code)
    # each of the 2^(2^n) win masks is priced once, exactly, not per matrix
    weights = params.weights
    values = [
        sum(weights[n - c.bit_count()] for c in range(1 << n) if (m >> c) & 1)
        for m in range(1 << (1 << n))
    ]
    # the last player's rows run once per group
    last = rows[-1]
    best, codes = -1, []
    for (w, r), partials in groups.items():
        row_values = [values[(r | rr) & ~(w | rw)] for rw, rr in last]
        top = max(row_values)
        if top >= best:
            if top > best:
                best, codes = top, []
            codes += [code * len(last) + j
                      for j, v in enumerate(row_values) if v == top
                      for code in partials]
    codes.sort()
    matrices = [_matrix_from_ternary_index(i, n) for i in codes]
    return Fraction(best, params.total_weight), matrices


# ---------------------------------------------------------------------------
# All matrices realizing a given loss set
# ---------------------------------------------------------------------------


def all_matrices_for_set(aset: AdequateSet) -> list[DecisionMatrix]:
    """Every FREE-less matrix whose winning configurations are exactly the
    complement of the set, in ascending ternary-code order.

    Backtracking over the cells, player-major and score-minor, trying
    black, pass, white in each.  The state is three configuration masks:
    where some assigned guess is wrong, where one is right, and which
    configurations have all their cells assigned (those whose last
    player's cell is).  A branch is cut as soon as a winning configuration
    holds a wrong guess, a complete winning configuration holds no right
    one, or a complete losing configuration is won.  Refused up front
    beyond its rows of ``core._LIMITS``: one bounds n, the other n times
    the set's size, the number of cell counterparts in the set, which is
    what the listing grows with (at n = 4: 729 matrices for a 5-element
    set, 18 954 for a 6-element one, 374 706 for a 7-element one).
    """
    n = aset.n_players
    _check_limit("all matrices of a set at n", n)
    _check_limit("all matrices of a set at n * size", n * aset.size)
    lose = sum(1 << code for code in aset.elements)
    win = (1 << (1 << n)) - 1 & ~lose
    # per cell: the configurations it completes, and each decision with
    # its wrong and right masks
    cells = [
        (1 << white | 1 << black if i == n - 1 else 0,
         [(d, *_guess_masks([[d]], [[(white, black)]])) for d in CONCRETE_DECISIONS])
        for i, row_cells in enumerate(_cells(n))
        for white, black in row_cells
    ]
    values: list[int] = []
    out: list[DecisionMatrix] = []

    def backtrack(wrong: int, right: int, complete: int) -> None:
        if len(values) == len(cells):
            width = len(cells) // n
            out.append(DecisionMatrix(tuple(
                tuple(values[i * width : (i + 1) * width]) for i in range(n)
            )))
            return
        completed, options = cells[len(values)]
        complete |= completed
        for d, w, r in options:
            w, r = w | wrong, r | right
            if w & win or complete & (win & ~r | lose & r & ~w):
                continue
            values.append(d)
            backtrack(w, r, complete)
            values.pop()

    backtrack(0, 0, 0)
    return out


# ---------------------------------------------------------------------------
# Player-permutation symmetry
# ---------------------------------------------------------------------------


def permute_config(code: int, n: int, perm: tuple[int, ...]) -> int:
    """Relabel hat bits: player perm[i] in the image wears player i's hat
    (0-based permutation)."""
    out = 0
    for i in range(n):
        bit = (code >> (n - 1 - i)) & 1
        out |= bit << (n - 1 - perm[i])
    return out


def permute_matrix(
    matrix: DecisionMatrix, perm: tuple[int, ...]
) -> DecisionMatrix:
    """Image of a strategy under a relabeling of the players.

    ``perm`` must be a permutation of range(N) (``ValueError`` otherwise).
    Player perm[i] of the image copies player i's behavior: each cell of
    player i goes to the cell of player perm[i] whose counterparts are the
    relabeled counterparts, so every cell of the image is written once.
    """
    n = matrix.n_players
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of range(%d), got %r" % (n, perm))
    table = score_table(n)
    rows = [[None] * (1 << (n - 1)) for _ in range(n)]
    for i, (row, row_cells) in enumerate(zip(matrix.rows, _cells(n))):
        j = perm[i]
        for d, (white, _) in zip(row, row_cells):
            rows[j][table[permute_config(white, n, perm)][j]] = d
    return DecisionMatrix(tuple(tuple(row) for row in rows))


def dedupe_player_permutation(
    matrices: list[DecisionMatrix], n: int
) -> list[DecisionMatrix]:
    """One representative per orbit under player relabeling.

    The representative is the lexicographically smallest matrix in the
    orbit (comparing row tuples, FREE sorting last); representatives are
    returned in order of first appearance of their orbit in the input.
    """
    perms = list(itertools.permutations(range(n)))
    seen: set[tuple] = set()
    out: list[DecisionMatrix] = []
    for m in matrices:
        if m.n_players != n:
            raise ValueError("all matrices must have %d rows" % n)
        orbit = [permute_matrix(m, perm) for perm in perms]
        canon = min(o.rows for o in orbit)
        if canon not in seen:
            seen.add(canon)
            out.append(DecisionMatrix(canon))
    return out


# ---------------------------------------------------------------------------
# FREE-cell invariance
# ---------------------------------------------------------------------------


def free_invariance_check(matrix: DecisionMatrix, params: GameParams) -> bool:
    """Is the matrix value independent of how FREE cells are resolved?

    Exhaustive over all 3^k substitutions; refused up front when the
    matrix has more FREE cells than its row of ``core._LIMITS`` allows (the
    synthesizer produces at most 8 at supported n, so only hand-built
    inputs get there).
    """
    cells = matrix.free_cells()
    _check_limit("FREE cells in an invariance check", len(cells))
    if not cells:
        return True
    reference = evaluate_matrix(matrix.substitute_free(PASS), params)
    choices = (GUESS_BLACK, PASS, GUESS_WHITE)
    for combo in itertools.product(choices, repeat=len(cells)):
        fill = dict(zip(cells, combo))
        if evaluate_matrix(matrix.substitute_free(fill), params) != reference:
            return False
    return True
