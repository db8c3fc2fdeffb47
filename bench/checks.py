"""Checks of the program's answers, each against a value the benchmark
computes itself or a property the method must have.

Every check raises :class:`CheckError` with a message on a wrong answer
and returns nothing otherwise.  The exact probabilities here are computed
from hat counts and signature histograms with ``Fraction``; the adequacy
oracle is the package's ``is_adequate`` (score comparison, independent of
ball masks) or ``refcount.covers``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from refcount import PUBLISHED_K, covers, whites


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's reference."""


def require(condition: bool, message: str, *args) -> None:
    if not condition:
        raise CheckError(message % args if args else message)


# ---------------------------------------------------------------------------
# Exact probabilities, computed apart from the package
# ---------------------------------------------------------------------------


def loss(elements, n: int, p: Fraction) -> Fraction:
    """Sum of p^z q^(n-z) over the elements, z = number of white hats."""
    return signature_loss(signature_of(elements, n), p)


def signature_of(elements, n: int) -> tuple[int, ...]:
    counts = [0] * (n + 1)
    for e in elements:
        counts[whites(e, n)] += 1
    return tuple(counts)


def signature_loss(sig, p: Fraction) -> Fraction:
    """sum_j c_j p^j q^(n-j), in integers over the denominator b^n of
    p = a/b."""
    n = len(sig) - 1
    p = Fraction(p)
    a, b = p.numerator, p.denominator
    return Fraction(sum(c * a**j * (b - a) ** (n - j) for j, c in enumerate(sig)), b**n)


def parse_signature(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split("-")) if "-" in text else tuple(int(c) for c in text)


def close_decimal(text: str, exact: Fraction, significant: int = 12) -> bool:
    """Does a decimal printed with ``significant`` digits round ``exact``?"""
    value = Fraction(text)
    if exact == 0:
        return value == 0
    scale = Fraction(10) ** (math.floor(math.log10(abs(exact))) - significant + 1)
    return abs(value - exact) <= scale / 2


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def check_witness(elements, n: int, is_adequate) -> None:
    """Adequate and irredundant: dropping any element breaks adequacy."""
    elems = tuple(elements)
    require(is_adequate(elems, n), "witness %r is not adequate for n=%d", elems, n)
    for e in elems:
        rest = tuple(x for x in elems if x != e)
        require(
            not rest or not is_adequate(rest, n),
            "witness %r is redundant: %d can be dropped", elems, e,
        )


def check_optimum(elements, n: int, p: Fraction, value: Fraction, lost_on, win: Fraction, is_adequate) -> None:
    """One global optimum: witness, its loss, and the synthesized matrix
    (``lost_on`` = its losing configurations, ``win`` = its value)."""
    check_witness(elements, n, is_adequate)
    expect = loss(elements, n, p)
    require(value == expect, "n=%d p=%s: reported loss %s, witness loses %s", n, p, value, expect)
    require(
        tuple(lost_on) == tuple(sorted(elements)),
        "n=%d p=%s: matrix loses on %r, witness is %r", n, p, tuple(lost_on), tuple(elements),
    )
    require(win == 1 - value, "n=%d p=%s: matrix wins %s, expected %s", n, p, win, 1 - value)


def check_mirror(n: int, p: Fraction, value_p: Fraction, witness_p, value_q: Fraction, is_adequate) -> None:
    """Swapping colors maps optima at p to optima at 1 - p."""
    require(value_p == value_q, "n=%d: loss %s at p=%s but %s at 1-p", n, value_p, p, value_q)
    full = (1 << n) - 1
    flipped = tuple(sorted(e ^ full for e in witness_p))
    require(is_adequate(flipped, n), "complement of %r is not adequate", tuple(witness_p))
    require(
        loss(flipped, n, 1 - p) == value_p,
        "complement of %r loses %s at 1-p, not %s", tuple(witness_p), loss(flipped, n, 1 - p), value_p,
    )


def check_closed_form(value: Fraction, psi_value) -> None:
    require(value == 1 - psi_value, "loss %s disagrees with the closed form 1 - %s", value, psi_value)


def check_size_row(size: int, n: int, p: Fraction, row_sum: Fraction, witness, signature, global_best: Fraction, is_adequate) -> None:
    """An exact-size row: an adequate witness of that size whose loss and
    signature are the reported ones, never below the global optimum."""
    elems = tuple(witness)
    require(len(elems) == size, "row %d: witness has %d elements", size, len(elems))
    require(is_adequate(elems, n), "row %d: witness %r is not adequate", size, elems)
    require(loss(elems, n, p) == row_sum, "row %d: witness loses %s, row says %s", size, loss(elems, n, p), row_sum)
    require(
        tuple(signature) == signature_of(elems, n),
        "row %d: signature %r, witness has %r", size, tuple(signature), signature_of(elems, n),
    )
    require(row_sum >= global_best, "row %d: %s is below the global optimum %s", size, row_sum, global_best)


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def check_count(what: str, got: int, expect: int) -> None:
    require(got == expect, "%s: %d sets, the independent counter finds %d", what, got, expect)


def check_min_cover_size(n: int, got: int) -> None:
    require(got == PUBLISHED_K[n], "min_cover_size(%d) = %d, K(%d, 1) = %d", n, got, n, PUBLISHED_K[n])


def check_sweep_row(n: int, size: int, p: Fraction, row_sum: Fraction, witness, signature, reference_sigs, is_adequate) -> None:
    """Exhaustive row: adequate witness with the reported signature, and
    the row minimum equals the minimum over every signature of that size."""
    elems = tuple(witness)
    require(is_adequate(elems, n), "size %d: witness %r is not adequate", size, elems)
    require(
        tuple(signature) == signature_of(elems, n),
        "size %d: signature %r, witness has %r", size, tuple(signature), signature_of(elems, n),
    )
    best = min(signature_loss(s, p) for s in reference_sigs)
    require(row_sum == best, "size %d at p=%s: row sum %s, minimum over all sets %s", size, p, row_sum, best)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def interior_points(lo: Fraction, hi: Fraction, k: int = 3) -> list[Fraction]:
    return [lo + (hi - lo) * i / (k + 1) for i in range(1, k + 1)]


def check_edges(edges, lo: Fraction, hi: Fraction) -> None:
    """Each edge (cheaper, dearer) holds at rational points inside."""
    for a, b in edges:
        for x in interior_points(lo, hi):
            require(
                signature_loss(a, x) < signature_loss(b, x),
                "edge %r -> %r fails at p=%s", a, b, x,
            )


def sign_changes(a, b, lo: Fraction, hi: Fraction) -> bool:
    """Does loss(a) - loss(b) change sign across [lo, hi] (or vanish at
    lo when lo == hi)?"""
    d_lo = signature_loss(a, lo) - signature_loss(b, lo)
    if lo == hi:
        return d_lo == 0
    return d_lo * (signature_loss(a, hi) - signature_loss(b, hi)) < 0


def check_crossing(a, b, roots) -> None:
    """The loss difference changes sign across every isolating interval."""
    require(len(roots) > 0, "crossing %r / %r has no root", a, b)
    for lo, hi in roots:
        require(sign_changes(a, b, lo, hi), "no sign change of %r - %r on [%s, %s]", a, b, lo, hi)


def _coeffs(sig) -> list[Fraction]:
    """Coefficients, lowest first, of sum_j c_j p^j (1 - p)^(n - j)."""
    n = len(sig) - 1
    out = [Fraction(0)] * (n + 1)
    for j, c in enumerate(sig):
        for k in range(n - j + 1):
            out[j + k] += c * math.comb(n - j, k) * (-1) ** k
    return out


def _trim(f: list) -> list:
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _poly_gcd(f: list, g: list) -> list:
    f, g = _trim(f), _trim(g)
    while g:
        r = list(f)
        while len(r) >= len(g):
            factor = r[-1] / g[-1]
            shift = len(r) - len(g)
            for i, gc in enumerate(g):
                r[shift + i] -= factor * gc
            r = _trim(r[:-1])
        f, g = g, r
    return f


def _value(f: list, x: Fraction) -> Fraction:
    return sum((c * x**i for i, c in enumerate(f)), Fraction(0))


def double_root_in(a, b, lo: Fraction, hi: Fraction) -> bool:
    """Does loss(a) - loss(b) have a root of multiplicity >= 2 strictly
    inside [lo, hi]?  (A root of gcd(d, d') changes that gcd's sign.)"""
    d = [x - y for x, y in zip(_coeffs(a), _coeffs(b))]
    g = _poly_gcd(d, [i * c for i, c in enumerate(d)][1:])
    return len(g) > 1 and _value(g, lo) * _value(g, hi) < 0


def optimal_count(reference_sigs: dict, p: Fraction) -> int:
    """How many sets of the recorded histogram attain the minimum at p."""
    values = {s: signature_loss(s, p) for s in reference_sigs}
    best = min(values.values())
    return sum(c for s, c in reference_sigs.items() if values[s] == best)


def check_optimal_count(p, got: int, expect: int) -> None:
    require(got == expect, "count_optimal_sets at p=%s: %d, expected %d", p, got, expect)


def check_psi_row(p: Fraction, psi, reference_sigs) -> None:
    expect = 1 - min(signature_loss(s, p) for s in reference_sigs)
    require(psi == expect, "psi(%s) = %s, expected %s", p, psi, expect)


def check_psi_symmetry(values: dict) -> None:
    """Psi(p) = Psi(1 - p) wherever both are listed."""
    for p, v in values.items():
        if 1 - p in values:
            require(v == values[1 - p], "psi(%s) = %s but psi(%s) = %s", p, v, 1 - p, values[1 - p])


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def check_exit(argv, code: int) -> None:
    require(code == 0, "%s exited %d", " ".join(argv), code)


def check_solve(text: str, payload: dict, p: Fraction) -> Fraction:
    """Text and json forms of ``solve`` agree; returns psi."""
    lines = text.splitlines()
    fields = dict(line.split(" = ", 1) for line in lines[:5])
    psi = Fraction(fields["psi"].split(" = ")[-1])
    require(psi == Fraction(payload["psi"]), "solve text psi %s, json psi %s", psi, payload["psi"])
    require(Fraction(payload["p"]) == p, "solve json p %s, asked %s", payload["p"], p)
    require(int(fields["nasopt"]) == payload["nasopt"] == len(payload["sets"]), "solve text and json disagree on nasopt")
    text_sets = [line.split("   ")[0][len("set: "):] for line in lines if line.startswith("set: ")]
    json_sets = [" ".join(map(str, s["elements"])) for s in payload["sets"]]
    require(text_sets == json_sets, "solve text sets %r, json sets %r", text_sets, json_sets)
    return psi


def check_psi_agrees(p: Fraction, solve_psi: Fraction, evaluate_psi: Fraction, closed_form) -> None:
    require(solve_psi == evaluate_psi, "solve psi %s, evaluate gives %s at p=%s", solve_psi, evaluate_psi, p)
    require(solve_psi == closed_form, "solve psi %s, closed form %s at p=%s", solve_psi, closed_form, p)


def check_psi_csv(rows, reference_sigs, solve_p: Fraction, solve_psi: Fraction) -> None:
    """Grid rows of ``psi`` round the exact optimum, are symmetric, and
    agree with ``solve`` at its p."""
    values = {}
    for p_text, psi_text, piece in rows:
        if "|" in piece:
            continue  # irrational breakpoint, printed rounded
        p = Fraction(p_text)
        exact = 1 - min(signature_loss(s, p) for s in reference_sigs)
        require(close_decimal(psi_text, exact), "psi csv at p=%s prints %s, exact %s", p, psi_text, exact)
        values[p] = psi_text
    check_psi_symmetry(values)
    require(solve_p in values, "psi grid misses the solve p %s", solve_p)
    require(close_decimal(values[solve_p], solve_psi), "psi csv %s at p=%s, solve gives %s", values[solve_p], solve_p, solve_psi)


def check_dominance(dot: str, payload: dict) -> tuple[list, list]:
    """Dot and json forms agree; returns (edges, crossings) as signatures."""
    dot_edges = []
    dot_cross = []
    for line in dot.splitlines():
        if "->" not in line:
            continue
        a, b = (part.strip().split('"')[1] for part in line.split("->"))
        (dot_cross if "crossing" in line else dot_edges).append([a, b])
    require(dot_edges == payload["edges"], "dot edges %r, json edges %r", dot_edges, payload["edges"])
    json_cross = [c["pair"] for c in payload["flagged_crossings"]]
    require(dot_cross == json_cross, "dot crossings %r, json crossings %r", dot_cross, json_cross)
    edges = [(parse_signature(a), parse_signature(b)) for a, b in payload["edges"]]
    crossings = [
        (parse_signature(c["pair"][0]), parse_signature(c["pair"][1]),
         [(Fraction(lo), Fraction(hi)) for lo, hi in c["roots"]])
        for c in payload["flagged_crossings"]
    ]
    return edges, crossings


def check_covering(rows) -> None:
    """``covering`` csv rows: computed sizes agree with K(n, 1) for n <= 5."""
    seen = set()
    for row in rows:
        n = int(row["n"])
        if n in PUBLISHED_K:
            require(row["agrees"] == "true", "covering reports no agreement for n=%d", n)
            require(int(row["computed_min_das"]) == PUBLISHED_K[n], "covering n=%d computes %s", n, row["computed_min_das"])
            seen.add(n)
    require(seen == set(PUBLISHED_K), "covering lists n=%r", sorted(seen))


def check_complexity(rows) -> None:
    """``complexity`` csv rows: strategy-space sizes recomputed here."""
    require(len(rows) > 0, "complexity printed no rows")
    for row in rows:
        n, das = int(row["n"]), int(row["das"])
        width = 1 << (n - 1)
        require(int(row["full"]) == 3 ** (n * width), "complexity n=%d: full %s", n, row["full"])
        require(int(row["reduced"]) == 3 ** ((width - 2) * n), "complexity n=%d: reduced %s", n, row["reduced"])
        require(int(row["subsets"]) == math.comb(1 << n, das), "complexity n=%d: subsets %s", n, row["subsets"])
        if n in PUBLISHED_K:
            require(das == PUBLISHED_K[n], "complexity n=%d: das %d", n, das)


def check_brute(text: str, p: Fraction) -> None:
    """``brute --n 3``: the maximum is 1 - pq."""
    first = text.splitlines()[0]
    require(first.startswith("max = "), "brute prints %r", first)
    got = Fraction(first.split(" = ")[-1])
    require(got == 1 - p * (1 - p), "brute --n 3 at p=%s gives %s, expected %s", p, got, 1 - p * (1 - p))


def check_sweep_csv(rows, n: int, p: Fraction, reference: dict) -> None:
    """``sweep`` csv rows: each sum is its signature's loss, and recorded
    sizes reach the minimum over every set of that size."""
    require(len(rows) > 0, "sweep printed no rows")
    for row in rows:
        size = int(row["das"])
        sig = parse_signature(row["signature"])
        require(sum(sig) == size, "sweep row %d has signature %s", size, row["signature"])
        value = Fraction(row["sum_exact"])
        require(value == signature_loss(sig, p), "sweep row %d: sum %s, signature gives %s", size, value, signature_loss(sig, p))
        if str(size) in reference:
            sigs = [parse_signature(s) for s in reference[str(size)]["signatures"]]
            require(value == min(signature_loss(s, p) for s in sigs), "sweep row %d is not the minimum", size)


def check_enumerate_csv(rows, n: int, size: int, p: Fraction, expect_count: int) -> None:
    """``enumerate`` csv rows: the count, adequacy and each row's sum."""
    check_count("enumerate --n %d --das %d" % (n, size), len(rows), expect_count)
    for row in rows:
        elems = [int(row["i%d" % (k + 1)]) for k in range(size)]
        require(covers(elems, n), "enumerate lists %r, not adequate", elems)
        require(Fraction(row["sum_exact"]) == loss(elems, n, p), "enumerate row %r: sum %s", elems, row["sum_exact"])
