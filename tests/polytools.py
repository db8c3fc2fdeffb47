"""Test polynomials built from coefficient lists, without Poly arithmetic."""

from itertools import zip_longest

from hatgame.polys import Poly


def poly(*factors):
    """The product of coefficient lists (ascending powers) as a Poly:
    poly([-1, 1], [-2, 1]) is (x - 1)(x - 2)."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return Poly(out)


def difference(a, b):
    """The Poly a - b, coefficient by coefficient."""
    return Poly([x - y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0)])
