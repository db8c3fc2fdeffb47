"""Exact core model of the N-player, two-color hat guessing game.

N players each receive a white (0) or black (1) hat, independently, with
white probability p and black probability q = 1 - p.  Every player sees the
other N-1 hats and must simultaneously guess their own color or pass.  The
team wins when at least one guess is correct and no guess is wrong.

A full hat assignment is a *configuration*: an N-bit integer whose most
significant bit is player 1's hat.  What player i actually observes is the
configuration with bit i deleted, read as an (N-1)-bit integer in
[0, 2^(N-1) - 1]; we call that the player's *score*.  A deterministic team
strategy is therefore an N x 2^(N-1) *decision matrix* whose entries say,
per player and observed score, whether to guess black (-1), pass (0) or
guess white (+1).  A fourth marker (``FREE``, printed ``*``, numeric 3)
denotes matrix cells whose value provably cannot matter; it appears only in
synthesized matrices, never in hand-written strategies.

A *cell* is one (player, score) position of the matrix.  Exactly two
configurations show that player that score, one where the player's own hat
is white and one where it is black; they are the cell's *counterparts*.  A
guess in the cell is right on one counterpart and wrong on the other, and
that rule (:func:`_outcome`) is all a strategy computation needs to know
of the game: who wins where follows from it cell by cell.

All probabilities are exact.  For p = a/b a configuration with z white
hats weighs the integer a^z (b-a)^(N-z), its probability times b^N, so
every loss is an integer sum and becomes a `fractions.Fraction` only on
return.  Optimality boundaries in this problem sit on knife edges
(including quadratic irrationals), so nothing in this package evaluates
probabilities in floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

#: Hard cap on the number of players.  Score tables hold N * 2^(N-1)
#: entries and coverage bitmasks span 2^N configurations; beyond 16 players
#: the exact method stops being a desk-scale computation.
MAX_PLAYERS = 16

# Decision values (numeric interchange form; FREE prints as "*").
GUESS_BLACK = -1
PASS = 0
GUESS_WHITE = 1
FREE = 3

CONCRETE_DECISIONS = (GUESS_BLACK, PASS, GUESS_WHITE)
_VALID_ENTRIES = frozenset((GUESS_BLACK, PASS, GUESS_WHITE, FREE))


class HatGameError(Exception):
    """Base class for errors raised by this package."""


class ResourceLimitError(HatGameError):
    """A computation was refused or aborted because it exceeds the
    supported problem size."""


#: The largest size at which each operation is known to finish at desk
#: scale.  Every size refusal in the package reads this one table through
#: :func:`_check_limit`, before the operation builds anything.
_LIMITS = {
    "adequate-set listing at n": 5,
    "sets in one adequate-set listing": 500_000,
    "size sweep at n": 5,
    "minimum cover size at n": 5,
    "cover search without a node budget at n": 6,
    "all matrices of a set at n": 4,
    "all matrices of a set at n * size": 24,
    "FREE cells in an invariance check": 12,
    "psi curve grid steps": 100_000,
}


def _check_limit(operation: str, size: int, at_least: bool = False) -> None:
    """Refuse ``operation`` at ``size`` beyond its row of the table;
    ``at_least`` words ``size`` as a lower bound on the operation's size."""
    limit = _LIMITS[operation]
    if size > limit:
        raise ResourceLimitError(
            "%s is supported up to %d, got %s%d"
            % (operation, limit, "at least " if at_least else "", size)
        )


def exact_fraction(value) -> Fraction:
    """Convert ``value`` to an exact Fraction, rejecting floats.

    Floats are refused on purpose: Fraction(0.9) is the binary value
    0.90000000000000002220446..., which silently breaks every knife-edge
    comparison downstream.  Pass strings like "9/10" or "0.9" instead.
    A Fraction (not a subclass) is immutable and returned as it is.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            "refusing inexact float %r; pass a Fraction, int or string "
            "like '9/10' or '0.9'" % (value,)
        )
    return Fraction(value)


# bound once: every record's __init__ sets its fields through it, past
# _Frozen.__setattr__
_setattr = object.__setattr__


class _Frozen:
    """Immutable value with the equality, hash and repr of a frozen
    dataclass over the attributes named in ``_fields``; pickle and copy
    call the class again on those values.  Each subclass sets its
    attributes in its own ``__init__`` through ``_setattr``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (
            self.__class__.__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return self.__class__, self._key()


class GameParams(_Frozen):
    """Number of players plus the exact hat-color distribution; the black
    probability ``q_black`` is always 1 - p_white.  ``weights`` and
    ``total_weight`` hold the integer arithmetic every loss runs on."""

    # no __slots__: the cached properties below live in the instance dict
    _fields = ("n_players", "p_white")

    def __init__(self, n_players: int, p_white: Fraction):
        if not isinstance(n_players, int):
            raise TypeError("n_players must be an int")
        if not 2 <= n_players <= MAX_PLAYERS:
            raise ValueError(
                "n_players must be in [2, %d], got %r" % (MAX_PLAYERS, n_players)
            )
        p = exact_fraction(p_white)
        if not 0 < p < 1:
            raise ValueError("p_white must satisfy 0 < p < 1, got %s" % (p,))
        _setattr(self, "n_players", n_players)
        _setattr(self, "p_white", p)

    @cached_property
    def q_black(self) -> Fraction:
        return 1 - self.p_white

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """Integer weight a^z (b-a)^(N-z) of a configuration with z white
        hats, indexed by z, for p = a/b: its probability times
        :attr:`total_weight`."""
        a, b = self.p_white.numerator, self.p_white.denominator
        n = self.n_players
        return tuple(a**z * (b - a) ** (n - z) for z in range(n + 1))

    @cached_property
    def total_weight(self) -> int:
        """b^N, the weight of all configurations together."""
        return self.p_white.denominator**self.n_players


def _check_n(n: int) -> None:
    if not 2 <= n <= MAX_PLAYERS:
        raise ValueError("n must be in [2, %d], got %r" % (MAX_PLAYERS, n))


def _check_config(code: int, n: int) -> None:
    _check_n(n)
    if not 0 <= code < (1 << n):
        raise ValueError("configuration %r out of range for n=%d" % (code, n))


def bits(code: int, n: int) -> tuple[int, ...]:
    """Hat bits (b_1, ..., b_N) of a configuration; b_1 is the MSB."""
    _check_config(code, n)
    return tuple((code >> (n - k)) & 1 for k in range(1, n + 1))


def code_from_bits(hat_bits: Sequence[int]) -> int:
    """Inverse of :func:`bits`."""
    code = 0
    for b in hat_bits:
        if b not in (0, 1):
            raise ValueError("hat bits must be 0 or 1")
        code = (code << 1) | b
    return code


def count_whites(code: int, n: int) -> int:
    """Number of white hats (zero bits) in the configuration."""
    _check_config(code, n)
    return n - code.bit_count()


def flip(code: int, n: int, player: int) -> int:
    """Flip player ``player``'s hat bit (players are 1-based).

    The result is the *counterpart* configuration: the unique other
    configuration in which that player observes the same score.
    """
    _check_config(code, n)
    if not 1 <= player <= n:
        raise ValueError("player must be in [1, %d], got %r" % (n, player))
    return code ^ (1 << (n - player))


def score(code: int, n: int, player: int) -> int:
    """What ``player`` sees: the other N-1 bits read MSB-first.

    s_i = sum_{k<i} b_k 2^(N-k-1) + sum_{k>i} b_k 2^(N-k)
    """
    _check_config(code, n)
    if not 1 <= player <= n:
        raise ValueError("player must be in [1, %d], got %r" % (n, player))
    return _drop_bit(code, n - player)


def _drop_bit(code: int, k: int) -> int:
    """code with bit k deleted: the bits above k move one place down."""
    return code >> (k + 1) << k | code & ((1 << k) - 1)


def score_vector(code: int, n: int) -> tuple[int, ...]:
    """All N scores (s_1, ..., s_N) of a configuration."""
    _check_config(code, n)
    return tuple(_drop_bit(code, k) for k in range(n - 1, -1, -1))


@lru_cache(maxsize=32)
def score_table(n: int) -> tuple[tuple[int, ...], ...]:
    """score_table(n)[code][i-1] == score(code, n, i), cached per n."""
    return tuple(score_vector(code, n) for code in range(1 << n))


@lru_cache(maxsize=32)
def _cells(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The counterparts of every cell: ``_cells(n)[i][s]`` is the pair
    (white, black) of configurations in which player i+1 sees score s,
    built by inserting the player's hat bit into s.  Cached per n."""
    out = []
    for k in range(n - 1, -1, -1):  # bit k is player n-k's hat
        # the bits of s from k up move one place up; bit k is left white
        whites = [s + (s >> k << k) for s in range(1 << (n - 1))]
        out.append(tuple((w, w | 1 << k) for w in whites))
    return tuple(out)


def _outcome(d: int, white: int, black: int) -> tuple[int, int] | None:
    """The configurations (wrong, right) of decision ``d`` in the cell with
    counterparts ``white`` and ``black``; None for a pass or FREE."""
    if d == GUESS_WHITE:
        return black, white
    if d == GUESS_BLACK:
        return white, black
    return None


def _guess_masks(rows, cells) -> tuple[int, int]:
    """Bit masks of the configurations where some guess of ``rows`` is
    wrong and where some guess is right, ``cells`` holding each row's
    counterparts (rows of :func:`_cells`)."""
    wrong = right = 0
    for row, row_cells in zip(rows, cells):
        for d, (white, black) in zip(row, row_cells):
            outcome = _outcome(d, white, black)
            if outcome is not None:
                wrong |= 1 << outcome[0]
                right |= 1 << outcome[1]
    return wrong, right


def config_probability(code: int, params: GameParams) -> Fraction:
    """Probability p^z q^(N-z) of a configuration with z white hats."""
    z = count_whites(code, params.n_players)
    return Fraction(params.weights[z], params.total_weight)


# ---------------------------------------------------------------------------
# Decision matrices
# ---------------------------------------------------------------------------


class DecisionMatrix(_Frozen):
    """N x 2^(N-1) grid of decisions, one row per player.

    ``rows[i-1][s]`` is player i's decision upon observing score s.
    """

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if not 2 <= n <= MAX_PLAYERS:
            raise ValueError("matrix must have between 2 and %d rows" % MAX_PLAYERS)
        width = 1 << (n - 1)
        for row in rows:
            if len(row) != width:
                raise ValueError(
                    "each of the %d rows must have 2^(N-1)=%d entries" % (n, width)
                )
            for v in row:
                if v not in _VALID_ENTRIES:
                    raise ValueError("invalid decision value %r" % (v,))
        _setattr(self, "rows", rows)

    @property
    def n_players(self) -> int:
        return len(self.rows)

    def free_cells(self) -> tuple[tuple[int, int], ...]:
        """(player, score) positions holding FREE, row-major order."""
        return tuple(
            (i + 1, j)
            for i, row in enumerate(self.rows)
            for j, v in enumerate(row)
            if v == FREE
        )

    def substitute_free(self, fill) -> "DecisionMatrix":
        """Replace FREE cells; ``fill`` is a decision value or a
        {(player, score): decision} mapping."""
        if isinstance(fill, int):
            mapping = {cell: fill for cell in self.free_cells()}
        else:
            mapping = dict(fill)
        rows = []
        for i, row in enumerate(self.rows):
            rows.append(
                tuple(
                    mapping.get((i + 1, j), v) if v == FREE else v
                    for j, v in enumerate(row)
                )
            )
        out = DecisionMatrix(tuple(rows))
        leftover = out.free_cells()
        if leftover:
            raise ValueError("substitution left FREE cells at %r" % (leftover,))
        return out

    # -- text format -------------------------------------------------------
    #
    # One row per player, whitespace-separated tokens from {-1, 0, 1, *},
    # exactly 2^(N-1) tokens per row; '#' starts a comment line.

    _TOKENS = {GUESS_BLACK: "-1", PASS: "0", GUESS_WHITE: "1", FREE: "*"}
    _VALUES = {"-1": GUESS_BLACK, "0": PASS, "1": GUESS_WHITE, "*": FREE}

    def to_text(self) -> str:
        return "\n".join(
            " ".join(self._TOKENS[v] for v in row) for row in self.rows
        )

    @classmethod
    def from_text(cls, text: str) -> "DecisionMatrix":
        rows = []
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                rows.append(tuple(cls._VALUES[tok] for tok in stripped.split()))
            except KeyError as exc:
                raise ValueError(
                    "line %d: invalid token %s (expected -1, 0, 1 or *)"
                    % (lineno, exc)
                ) from None
        if not rows:
            raise ValueError("no matrix rows found")
        return cls(tuple(rows))

    def to_json_rows(self) -> dict[str, list[int]]:
        """JSON interchange form: rows keyed by 1-based player index,
        FREE encoded as 3."""
        return {str(i + 1): list(row) for i, row in enumerate(self.rows)}


def all_pass_matrix(n: int) -> DecisionMatrix:
    """The everyone-always-passes matrix (wins nothing)."""
    return DecisionMatrix(tuple(tuple([PASS] * (1 << (n - 1))) for _ in range(n)))


def wins(matrix: DecisionMatrix, code: int) -> bool:
    """Does the team win on configuration ``code``?

    The team wins iff every player's decision is either a pass or the
    correct guess for their own hat, and not everyone passes.  A FREE cell
    always reads as a pass; to try another fill, evaluate
    :meth:`DecisionMatrix.substitute_free` of it.
    """
    n = matrix.n_players
    _check_config(code, n)
    someone_guessed = False
    for i, (row, row_cells) in enumerate(zip(matrix.rows, _cells(n))):
        s = _drop_bit(code, n - 1 - i)  # what player i+1 sees
        outcome = _outcome(row[s], *row_cells[s])
        if outcome is None:
            continue
        if outcome[0] == code:
            return False
        someone_guessed = True
    return someone_guessed


def losing_configs(matrix: DecisionMatrix) -> tuple[int, ...]:
    """All configurations the matrix loses on, ascending."""
    n = matrix.n_players
    wrong, right = _guess_masks(matrix.rows, _cells(n))
    return tuple(c for c in range(1 << n) if wrong >> c & 1 or not right >> c & 1)


def evaluate_matrix(matrix: DecisionMatrix, params: GameParams) -> Fraction:
    """Exact win probability of the strategy encoded by ``matrix``."""
    if params.n_players != matrix.n_players:
        raise ValueError(
            "matrix is for %d players but params specify %d"
            % (matrix.n_players, params.n_players)
        )
    n, weights = params.n_players, params.weights
    wrong, right = _guess_masks(matrix.rows, _cells(n))
    won = right & ~wrong
    total = sum(
        weights[n - code.bit_count()]
        for code in range(1 << n)
        if won >> code & 1
    )
    return Fraction(total, params.total_weight)
