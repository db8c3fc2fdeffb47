"""Decision-matrix synthesis and brute-force strategy search.

An adequate set A induces a strategy that loses exactly on A: start from
the all-pass matrix and, for every element, make each player's entry at
the score they see in that configuration the *wrong* guess for their hat
there (bit b maps to guess 2b - 1).  Two elements write the same cell only
when they are counterparts (they differ in that player's bit alone), and
then they write opposite guesses; such cells are provably unconstrained
and are marked FREE.

The other direction is brute force: for two and three players the full
strategy space (3^4 resp. 3^12 matrices) is searched outright, giving an
oracle completely independent of the covering-set machinery.  The search
runs on integer configuration masks, and all probability comparisons stay
exact: matrices are bucketed by their win masks first, and each distinct
win mask is evaluated once as an integer weight sum.
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
    ResourceLimitError,
    evaluate_matrix,
    score_table,
)
from .adequate import AdequateSet


def matrix_from_set(aset: AdequateSet) -> DecisionMatrix:
    """Decision matrix that loses exactly on the given adequate set.

    For every element with bits b and scores s, cell (i, s_i) receives the
    guess 2 b_i - 1; a cell written twice receives FREE (the two writers
    are counterparts and demand opposite guesses, and either choice - or a
    pass - turns out not to matter).
    """
    n = aset.n_players
    table = score_table(n)
    rows = [[PASS] * (1 << (n - 1)) for _ in range(n)]
    for code in aset.elements:
        scores = table[code]
        for i in range(n):
            b = (code >> (n - 1 - i)) & 1
            cell = rows[i]
            if cell[scores[i]] == PASS:
                cell[scores[i]] = 2 * b - 1
            else:
                cell[scores[i]] = FREE
    return DecisionMatrix(tuple(tuple(r) for r in rows))


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
    """
    if n not in (2, 3):
        raise ValueError("brute force is supported for n in {2, 3} only")
    if params.n_players != n:
        raise ValueError("params are for %d players, requested n=%d"
                         % (params.n_players, n))
    table = score_table(n)
    # every row of each player's decisions, in ternary-code order, as the
    # masks of the configurations where it guesses wrong and where it
    # guesses right
    rows = []
    for i in range(n):
        outcomes = []
        for row in itertools.product(CONCRETE_DECISIONS, repeat=1 << (n - 1)):
            wrong = right = 0
            for code in range(1 << n):
                d = row[table[code][i]]
                if d == 1 - 2 * ((code >> (n - 1 - i)) & 1):
                    right |= 1 << code
                elif d != PASS:
                    wrong |= 1 << code
            outcomes.append((wrong, right))
        rows.append(outcomes)
    # product over players, player 1 outermost: list index = ternary code
    partial = [(0, 0)]
    for outcomes in rows[:-1]:
        partial = [(w | rw, r | rr) for w, r in partial for rw, rr in outcomes]
    win_masks = [(r | rr) & ~(w | rw) for w, r in partial for rw, rr in rows[-1]]
    # exact evaluation happens once per distinct win mask, not per matrix
    weights = params.weights
    values = {
        m: sum(weights[n - c.bit_count()] for c in range(1 << n) if (m >> c) & 1)
        for m in set(win_masks)
    }
    best = max(values.values())
    best_masks = {m for m, v in values.items() if v == best}
    matrices = [
        _matrix_from_ternary_index(i, n)
        for i, m in enumerate(win_masks)
        if m in best_masks
    ]
    return Fraction(best, params.total_weight), matrices


# ---------------------------------------------------------------------------
# All matrices realizing a given loss set
# ---------------------------------------------------------------------------


def all_matrices_for_set(aset: AdequateSet) -> list[DecisionMatrix]:
    """Every FREE-less matrix whose winning configurations are exactly the
    complement of the set, in ascending ternary-code order.

    Backtracking over cells with constraint checks per configuration:
    winning configurations may contain no wrong guess and need at least
    one correct one; losing configurations must contain a wrong guess or
    be all-pass.
    """
    n = aset.n_players
    width = 1 << (n - 1)
    table = score_table(n)
    lose = frozenset(aset.elements)
    # cell index (player-major, score-minor) -> configurations touching it
    touching: list[list[int]] = [[] for _ in range(n * width)]
    cfg_cells: list[list[int]] = []
    cfg_allowed: list[list[int]] = []
    for code in range(1 << n):
        scores = table[code]
        cls = [i * width + scores[i] for i in range(n)]
        cfg_cells.append(cls)
        cfg_allowed.append([1 - 2 * ((code >> (n - 1 - i)) & 1) for i in range(n)])
        for cell in cls:
            touching[cell].append(code)

    values: list[int | None] = [None] * (n * width)
    out: list[DecisionMatrix] = []

    def config_ok(code: int) -> bool:
        """Feasibility of a configuration under the partial assignment."""
        assigned = []
        complete = True
        has_wrong = False
        has_right = False
        for cell, allowed in zip(cfg_cells[code], cfg_allowed[code]):
            v = values[cell]
            if v is None:
                complete = False
                continue
            if v == allowed:
                has_right = True
            elif v != PASS:
                has_wrong = True
        if code in lose:
            # must NOT win: needs a wrong guess or all-pass in the end
            if complete and not has_wrong and has_right:
                return False
            return True
        # must win: wrong guesses are forbidden outright, and once complete
        # someone must have guessed
        if has_wrong:
            return False
        if complete and not has_right:
            return False
        return True

    def backtrack(cell: int) -> None:
        if cell == n * width:
            rows = tuple(
                tuple(values[i * width : (i + 1) * width]) for i in range(n)
            )
            out.append(DecisionMatrix(rows))  # type: ignore[arg-type]
            return
        for v in (GUESS_BLACK, PASS, GUESS_WHITE):
            values[cell] = v
            if all(config_ok(code) for code in touching[cell]):
                backtrack(cell + 1)
        values[cell] = None

    backtrack(0)
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

    Player perm[i] of the image copies player i's behavior: on the score
    they see in the relabeled configuration, they take the decision player
    i took on the original.  Counterpart configurations agree on the
    copied cell, so the image is well defined.
    """
    n = matrix.n_players
    width = 1 << (n - 1)
    table = score_table(n)
    rows = [[None] * width for _ in range(n)]
    for code in range(1 << n):
        scores = table[code]
        image = permute_config(code, n, perm)
        image_scores = table[image]
        for i in range(n):
            rows[perm[i]][image_scores[perm[i]]] = matrix.rows[i][scores[i]]
    assert all(v is not None for row in rows for v in row)
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

_EXHAUSTIVE_FREE_LIMIT = 12


def free_invariance_check(matrix: DecisionMatrix, params: GameParams) -> bool:
    """Is the matrix value independent of how FREE cells are resolved?

    Exhaustive over all 3^k substitutions; refused up front when the
    matrix has more than 12 FREE cells (the synthesizer produces at most 8
    at supported n, so only hand-built inputs get there).
    """
    cells = matrix.free_cells()
    if len(cells) > _EXHAUSTIVE_FREE_LIMIT:
        raise ResourceLimitError(
            "FREE-cell invariance is checked for at most %d FREE cells, got %d"
            % (_EXHAUSTIVE_FREE_LIMIT, len(cells))
        )
    if not cells:
        return True
    reference = evaluate_matrix(matrix.substitute_free(PASS), params)
    choices = (GUESS_BLACK, PASS, GUESS_WHITE)
    for combo in itertools.product(choices, repeat=len(cells)):
        fill = dict(zip(cells, combo))
        if evaluate_matrix(matrix.substitute_free(fill), params) != reference:
            return False
    return True
