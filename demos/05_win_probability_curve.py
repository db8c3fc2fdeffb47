"""The five-player win probability and its algebraic threshold.

For five players the optimal loss class depends on p: the (0,2,2,2,1,0)
family wins for p above 2 - sqrt(2) ~ 0.5858 and the (0,2,4,0,0,1) family
below it (mirrored on the other side of 1/2).  Everything here is exact:
the threshold is isolated as a root of the class-difference polynomial and
the counts at the threshold are decided in Q(sqrt 2).

Run:  python demos/05_win_probability_curve.py
"""

from fractions import Fraction
from itertools import zip_longest

from hatgame import (
    SQRT2_MINUS_1,
    Signature,
    TWO_MINUS_SQRT2,
    count_optimal_sets,
    dominance,
    dominance_graph,
    psi_closed_form,
    psi_curve,
    signature_poly,
)
from hatgame.polys import Poly, decimal_str

print("The twelve loss classes of the 320 minimum-size sets, and their")
print("dominance structure on (1/2, 1):")
graph = dominance_graph(5)
for k, node in enumerate(graph.nodes):
    tag = "  <- candidate optimum" if k in graph.undominated() else ""
    print("  %s%s" % (node.compact(), tag))
print()

a, b = Signature.from_compact("022210"), Signature.from_compact("024001")
result = dominance(a, b)
lo, hi = result.roots[0]
pa, pb = signature_poly(a), signature_poly(b)
print("022210 vs 024001: %s" % result.relation)
print("  difference polynomial: %s"
      % Poly([x - y for x, y in zip_longest(pa.coeffs, pb.coeffs, fillvalue=0)]))
print("  root isolated in [%s, %s]" % (lo, hi))
print("  interval width: %s" % decimal_str(hi - lo, 3))
print("  2 - sqrt(2) lies inside:", lo < TWO_MINUS_SQRT2 < hi)
print()

print("Optimal-set counts by regime:")
for label, p in [
    ("p = 2/5        (below sqrt2 - 1)", Fraction(2, 5)),
    ("p = sqrt2 - 1  (threshold)      ", SQRT2_MINUS_1),
    ("p = 9/20       (middle regime)  ", Fraction(9, 20)),
    ("p = 1/2        (symmetric)      ", Fraction(1, 2)),
    ("p = 11/20      (middle regime)  ", Fraction(11, 20)),
    ("p = 2 - sqrt2  (threshold)      ", TWO_MINUS_SQRT2),
    ("p = 9/10       (above 2 - sqrt2)", Fraction(9, 10)),
]:
    print("  %s -> %3d optimal sets" % (label, count_optimal_sets(5, p)))
print()

print("The closed-form curve (four polynomial pieces, exact):")
psi = psi_closed_form(5)
for k, piece in enumerate(psi.pieces):
    print("  piece %d on [%s, %s]: %s"
          % (k + 1, psi.breakpoints[k], psi.breakpoints[k + 1], piece))
print()

print("Sampled curve (CSV-shaped), minimum at the symmetric point:")
rows = psi_curve(5, Fraction(1, 10), Fraction(9, 10), 16)
print("  p,psi,piece")
for r in rows:
    print("  %s,%s,%s" % (decimal_str(r.p, 6), decimal_str(r.psi, 6), r.piece))
