"""The four workloads: their inputs, operation lists and checks.

A workload's ``setup`` builds what the timed pass reuses (the session
tables of the package); ``operations`` is the fixed list one pass runs,
each an argument-free callable whose result is kept; ``check`` verifies
those results after the pass, outside the timed region.  ``check`` raises
:class:`checks.CheckError` on a wrong answer and returns the labels of the
operations that failed through a known fault of the program, which the
run counts in ``failed`` (see README.md).

The seed picks each rational p from a fixed band as k / 10000 with k prime
to 10, so every p has the same denominator and the exact arithmetic costs
the same whatever the seed.  The bands are narrow where the search cost
moves with p (see README.md).
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import checks
import refcount

DENOMINATOR = 10_000

#: Bands of p, as [lo, hi) in units of 1/DENOMINATOR.
BANDS = {
    "optimize.low": (2450, 2500),  # p <= 1/4: the slow color of the n = 5 search
    "optimize.mid": (3990, 4010),  # near 2/5: pair solves plus the size-10 rows
    "optimize.n6": (8700, 8900),  # n = 6 at p > 1/2; node count flat here
    "enumerate": (1000, 9000),  # listing and sweeps do not depend on p
    "analysis": (500, 9500),
    "cli": (5500, 9500),  # solve at p > 1/2
}


def pick(rng: random.Random, band: str) -> Fraction:
    lo, hi = BANDS[band]
    while True:
        k = rng.randrange(lo, hi)
        if k % 2 and k % 5:
            return Fraction(k, DENOMINATOR)


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self) -> None:
        """Build the session tables the timed pass reuses."""

    def operations(self) -> list:
        raise NotImplementedError

    def check(self, results: dict) -> list:
        raise NotImplementedError


def _session_tables(*ns: int) -> None:
    """Score tables and radius-1 ball masks, which the package builds once
    per n and caches for the process."""
    import hatgame.adequate
    import hatgame.core

    for n in ns:
        hatgame.core.score_table(n)
        hatgame.adequate._balls(n)


# ---------------------------------------------------------------------------
# optimize: weighted branch and bound over covers
# ---------------------------------------------------------------------------


class Optimize(Workload):
    """Global optima at n = 5 on mirrored pairs and at 1/2, one n = 6 solve
    at p > 1/2, and the exact-size row n = 5, size 10 on a mirrored pair.

    An operation solves a mirrored pair (p, 1 - p) together, since the
    checks compare the two; a pass has five operations, so the median
    latency is one whole operation."""

    name = "optimize"
    ROW_SIZE = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        low = pick(self.rng, "optimize.low")
        mid = pick(self.rng, "optimize.mid")
        self.pairs = [(low, 1 - low), (mid, 1 - mid)]
        self.p6 = pick(self.rng, "optimize.n6")
        self.row_pair = (mid, 1 - mid)

    def setup(self) -> None:
        _session_tables(5, 6)

    @staticmethod
    def _solve(n: int, p: Fraction):
        import hatgame

        params = hatgame.GameParams(n, p)
        aset, value = hatgame.adequate.min_cover_optimize(n, params)
        matrix = hatgame.strategy.matrix_from_set(aset)
        win = hatgame.core.evaluate_matrix(matrix, params)
        return aset.elements, value, matrix, win

    @staticmethod
    def _row(p: Fraction, size: int):
        import hatgame

        (row,) = hatgame.adequate.size_sweep(5, [size], hatgame.GameParams(5, p))
        return row

    def operations(self) -> list:
        ops = [("solve n=5 p=%s,%s" % pair, lambda pair=pair: [self._solve(5, p) for p in pair]) for pair in self.pairs]
        ops.append(("solve n=5 p=1/2", lambda: [self._solve(5, Fraction(1, 2))]))
        ops.append(("solve n=6 p=%s" % self.p6, lambda: [self._solve(6, self.p6)]))
        ops.append(("row n=5 size=%d p=%s,%s" % ((self.ROW_SIZE,) + self.row_pair), lambda: [self._row(p, self.ROW_SIZE) for p in self.row_pair]))
        return ops

    def check(self, results: dict) -> list:
        import hatgame

        best = {}
        solved = [(5, pair) for pair in self.pairs] + [(5, (Fraction(1, 2),)), (6, (self.p6,))]
        for (n, ps), (label, _op) in zip(solved, self.operations()):
            for p, (elements, value, matrix, win) in zip(ps, results[label]):
                checks.check_optimum(elements, n, p, value, hatgame.losing_configs(matrix), win, hatgame.is_adequate)
                if n == 5:
                    checks.check_closed_form(value, hatgame.psi_closed_form(5)(p))
                best[n, p] = (elements, value)
        for p, q in self.pairs:
            checks.check_mirror(5, p, best[5, p][1], best[5, p][0], best[5, q][1], hatgame.is_adequate)
        rows = results["row n=5 size=%d p=%s,%s" % ((self.ROW_SIZE,) + self.row_pair)]
        for p, row in zip(self.row_pair, rows):
            checks.require(row.witness is not None, "row %d at p=%s is empty", self.ROW_SIZE, p)
            checks.check_size_row(
                self.ROW_SIZE, 5, p, row.min_sum, row.witness.elements, row.signature.counts,
                best[5, p][1], hatgame.is_adequate,
            )
        checks.require(rows[0].min_sum == rows[1].min_sum, "size-%d rows differ between p=%s and 1-p", self.ROW_SIZE, self.row_pair[0])
        return []


# ---------------------------------------------------------------------------
# enumerate: the cover layer asked for every set
# ---------------------------------------------------------------------------


class Enumerate(Workload):
    """The full listing of adequate sets at n = 5, size 7, exhaustive
    sweeps of sizes 7..9 at two p, and min_cover_size for n = 2..5."""

    name = "enumerate"
    SWEEP_SIZES = (7, 8, 9)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sweep_ps = [pick(self.rng, "enumerate"), pick(self.rng, "enumerate")]
        self.reference = refcount.load_reference()

    def setup(self) -> None:
        _session_tables(2, 3, 4, 5)

    @staticmethod
    def _min_cover_size(n: int) -> int:
        import hatgame.adequate

        # the result is cached per process; every pass asks afresh
        hatgame.adequate.min_cover_size.cache_clear()
        return hatgame.adequate.min_cover_size(n)

    def operations(self) -> list:
        import hatgame

        ops = [("list n=5 size=7", lambda: [a.elements for a in hatgame.adequate.enumerate_adequate(5, 7)])]
        ops += [
            ("sweep n=5 p=%s" % p, lambda p=p: hatgame.adequate.size_sweep(5, self.SWEEP_SIZES, hatgame.GameParams(5, p)))
            for p in self.sweep_ps
        ]
        ops.append(("min_cover_size n=2..5", lambda: [self._min_cover_size(n) for n in (2, 3, 4, 5)]))
        return ops

    def check(self, results: dict) -> list:
        import hatgame

        ref5 = self.reference["5"]
        listing = results["list n=5 size=7"]
        checks.check_count("enumerate_adequate(5, 7)", len(listing), ref5["7"]["count"])
        checks.require(listing == sorted(set(listing)), "the listing is not sorted or repeats a set")
        listed_sigs = {checks.signature_of(s, 5) for s in listing}
        recorded = {checks.parse_signature(s) for s in ref5["7"]["signatures"]}
        checks.require(listed_sigs == recorded, "listed signatures %r, recorded %r", listed_sigs, recorded)
        for p in self.sweep_ps:
            rows = results["sweep n=5 p=%s" % p]
            checks.require([r.size for r in rows] == list(self.SWEEP_SIZES), "sweep rows %r", [r.size for r in rows])
            for row in rows:
                sigs = [checks.parse_signature(s) for s in ref5[str(row.size)]["signatures"]]
                if row.size == 7:
                    sigs = sorted(listed_sigs)  # the sets listed in this pass
                checks.check_sweep_row(5, row.size, p, row.min_sum, row.witness.elements, row.signature.counts, sigs, hatgame.is_adequate)
        for n, size in zip((2, 3, 4, 5), results["min_cover_size n=2..5"]):
            checks.check_min_cover_size(n, size)
        return []


# ---------------------------------------------------------------------------
# analysis: Sturm chains, root isolation and Q(sqrt 2) arithmetic
# ---------------------------------------------------------------------------


class Analysis(Workload):
    """Dominance graphs on three intervals, optimal-set counts and classes
    at a rational grid and at the two quadratic thresholds, and a fine
    psi curve.

    Four operations: the three graphs, the grid, the thresholds and the
    curve.  Single calls at a grid point take milliseconds; grouped, most
    operations take seconds, so each latency spans more than a moment of
    the machine's speed (see README.md)."""

    name = "analysis"
    INTERVALS = ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)), (Fraction(0), Fraction(1)))
    GRID_POINTS = 79
    CURVE = (Fraction(1, 12000), Fraction(11999, 12000), 11998)  # step 1/12000

    def __init__(self, seed: int):
        super().__init__(seed)
        import hatgame.polys

        grid = {Fraction(1, 2)}
        while len(grid) <= self.GRID_POINTS:
            grid.add(pick(self.rng, "analysis"))
        self.grid = sorted(grid)
        self.thresholds = [hatgame.polys.SQRT2_MINUS_1, hatgame.polys.TWO_MINUS_SQRT2]
        self.reference = refcount.load_reference()
        sigs = self.reference["5"]["7"]["signatures"]
        self.classes = {checks.parse_signature(s): c for s, c in sigs.items()}

    def setup(self) -> None:
        import hatgame

        _session_tables(5)
        # the cached minimum-size enumeration every analysis call reuses
        size = hatgame.adequate.min_cover_size(5)
        hatgame.adequate.adequate_sets_cached(5, size)
        hatgame.analysis.psi_closed_form(5)

    def operations(self) -> list:
        import hatgame

        an = hatgame.analysis
        return [
            ("dominance graphs", lambda: [an.dominance_graph(5, iv) for iv in self.INTERVALS]),
            ("grid", lambda: [(an.count_optimal_sets(5, p), an.optimal_signature_classes(5, p)) for p in self.grid]),
            ("thresholds", lambda: [(an.count_optimal_sets(5, x), an.optimal_signature_classes(5, x)) for x in self.thresholds]),
            ("psi_curve", lambda: an.psi_curve(5, *self.CURVE)),
        ]

    def check(self, results: dict) -> list:
        from hatgame.polys import Sqrt2Num

        failed = []
        for iv, graph in zip(self.INTERVALS, results["dominance graphs"]):
            nodes = [s.counts for s in graph.nodes]
            checks.require(set(nodes) == set(self.classes), "graph nodes %r, recorded classes %r", nodes, sorted(self.classes))
            checks.check_edges([(nodes[i], nodes[j]) for i, j in graph.edges], *iv)
            related = {frozenset(e) for e in graph.edges} | {frozenset((i, j)) for i, j, _ in graph.crossings}
            pairs = len(nodes) * (len(nodes) - 1) // 2
            checks.require(len(related) == pairs, "graph on %s..%s relates %d of %d pairs", iv[0], iv[1], len(related), pairs)
            touching = []
            for i, j, roots in graph.crossings:
                checks.require(len(roots) > 0, "crossing %r / %r has no root", nodes[i], nodes[j])
                for lo, hi in roots:
                    if not checks.sign_changes(nodes[i], nodes[j], lo, hi):
                        touching.append((nodes[i], nodes[j], lo, hi))
            if touching:
                # known fault: where two classes touch without swapping
                # order (a double root of their loss difference), the graph
                # reports a crossing; any other crossing without a sign
                # change is a wrong answer
                for a, b, lo, hi in touching:
                    checks.require(checks.double_root_in(a, b, lo, hi), "no sign change of %r - %r on [%s, %s]", a, b, lo, hi)
                failed = ["dominance graphs"]
        for p, (count, classes) in zip(self.grid, results["grid"]):
            checks.check_optimal_count(p, count, checks.optimal_count(self.classes, p))
            best = min(checks.signature_loss(s, p) for s in self.classes)
            expect = sorted(s for s in self.classes if checks.signature_loss(s, p) == best)
            got = sorted(s.counts for s in classes)
            checks.require(got == expect, "classes at p=%s: %r, expected %r", p, got, expect)
        # at p = 1/2 every set of the minimum size loses the same
        half = results["grid"][self.grid.index(Fraction(1, 2))][0]
        checks.check_optimal_count(Fraction(1, 2), half, sum(self.classes.values()))
        for x, (count, classes) in zip(self.thresholds, results["thresholds"]):
            checks.require(len(classes) == 2, "%d classes meet at %s, expected 2", len(classes), x)
            checks.check_optimal_count(x, count, sum(self.classes[s.counts] for s in classes))
        values = {}
        for row in results["psi_curve"]:
            p, psi = row.p, row.psi
            if isinstance(p, Sqrt2Num):
                if not p.is_rational:
                    continue  # the breakpoints sqrt(2) - 1 and 2 - sqrt(2)
                p, psi = p.as_fraction(), psi.as_fraction()
            checks.check_psi_row(p, psi, self.classes)
            values[p] = psi
        checks.require(len(values) == self.CURVE[2] + 1, "psi curve has %d grid rows", len(values))
        checks.check_psi_symmetry(values)
        return failed


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per invocation
# ---------------------------------------------------------------------------


class Cli(Workload):
    """A fixed list of ``python -m hatgame`` invocations, run one at a time."""

    name = "cli"
    PSI = ("--pmin", "0.05", "--pmax", "0.95", "--steps", "90")  # grid of 1/100

    def __init__(self, seed: int, root: str, out_dir: str, child=None):
        super().__init__(seed)
        self.root = root
        self.out_dir = out_dir
        self.child = child or [sys.executable, "-m", "hatgame"]
        self.p_solve = Fraction(self.rng.randrange(56, 95), 100)  # on the psi grid
        self.p_sweep = pick(self.rng, "cli")
        self.p_brute = pick(self.rng, "cli")
        self.reference = refcount.load_reference()
        self.matrix_path = os.path.join(out_dir, "solve_matrix.txt")
        self.timings: dict[str, float] = {}
        self.stdout_bytes = 0
        self.child_traces: list[dict] = []

    def setup(self) -> None:
        import hatgame.cli

        hatgame.cli.build_parser()
        os.makedirs(self.out_dir, exist_ok=True)

    def invocations(self) -> list:
        ps, p = str(self.p_solve), str(self.p_sweep)
        return [
            ("solve", ["solve", "--n", "5", "--p", ps]),
            ("solve-json", ["solve", "--n", "5", "--p", ps, "--format", "json"]),
            ("evaluate", ["evaluate", "--p", ps, "--matrix", self.matrix_path]),
            ("sweep", ["sweep", "--n", "4", "--p", p]),
            ("enumerate", ["enumerate", "--n", "4", "--das", "5", "--p", p]),
            ("psi", ["psi", "--n", "5", *self.PSI]),
            ("dominance", ["dominance", "--n", "5"]),
            ("dominance-json", ["dominance", "--n", "5", "--format", "json"]),
            ("covering", ["covering"]),
            ("complexity", ["complexity"]),
            ("brute", ["brute", "--n", "3", "--p", str(self.p_brute)]),
        ]

    def _run(self, label: str, argv: list):
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        start = time.perf_counter()
        proc = subprocess.run(self.child + argv, cwd=self.root, env=env, capture_output=True, text=True)
        self.timings[label] = time.perf_counter() - start
        self.stdout_bytes += len(proc.stdout.encode())
        if label == "solve" and proc.returncode == 0:
            # the next invocation evaluates the matrix this one printed
            with open(self.matrix_path, "w") as fh:
                fh.write(_first_matrix(proc.stdout))
        trace_line = [ln for ln in proc.stderr.splitlines() if ln.startswith(TRACE_PREFIX)]
        if trace_line:
            self.child_traces.append(json.loads(trace_line[-1][len(TRACE_PREFIX):]))
        return argv, proc.returncode, proc.stdout

    def operations(self) -> list:
        return [(label, lambda label=label, argv=argv: self._run(label, argv)) for label, argv in self.invocations()]

    def check(self, results: dict) -> list:
        import hatgame

        for label, (argv, code, _out) in results.items():
            checks.check_exit(argv, code)
        out = {label: r[2] for label, r in results.items()}
        psi = checks.check_solve(out["solve"], json.loads(out["solve-json"]), self.p_solve)
        evaluated = Fraction(out["evaluate"].strip().split(" = ")[-1])
        checks.check_psi_agrees(self.p_solve, psi, evaluated, hatgame.psi_closed_form(5)(self.p_solve))
        sigs5 = [checks.parse_signature(s) for s in self.reference["5"]["7"]["signatures"]]
        psi_rows = [tuple(r) for r in csv.reader(io.StringIO(out["psi"]))][1:]
        checks.check_psi_csv(psi_rows, sigs5, self.p_solve, psi)
        edges, crossings = checks.check_dominance(out["dominance"], json.loads(out["dominance-json"]))
        checks.check_edges(edges, Fraction(1, 2), Fraction(1))
        for a, b, roots in crossings:
            checks.check_crossing(a, b, roots)
        checks.check_covering(_dict_rows(out["covering"]))
        checks.check_complexity(_dict_rows(out["complexity"]))
        checks.check_brute(out["brute"], self.p_brute)
        checks.check_sweep_csv(_dict_rows(out["sweep"]), 4, self.p_sweep, self.reference["4"])
        checks.check_enumerate_csv(_dict_rows(out["enumerate"]), 4, 5, self.p_sweep, self.reference["4"]["5"]["count"])
        return []


TRACE_PREFIX = "bench-trace "


def _first_matrix(text: str) -> str:
    lines = text.splitlines()
    n = int(lines[0].split(" = ")[1])
    start = lines.index("matrix:") + 1
    return "\n".join(lines[start:start + n]) + "\n"


def _dict_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


WORKLOADS = {w.name: w for w in (Optimize, Enumerate, Analysis, Cli)}
