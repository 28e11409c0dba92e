"""Univariate polynomials over the rationals and exact real-root counting.

A polynomial is a list of coefficients in ascending order of degree; the zero
polynomial is the empty list.  Root counts use Sturm's theorem on a primitive
integer remainder sequence; multiplicities come from repeating the count on
gcd(q, q'), so no numerical root finding is involved.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ZeroPolynomialError

Poly = list[Fraction]


def trim(p) -> Poly:
    out = [Fraction(x) for x in p]
    while out and out[-1] == 0:
        out.pop()
    return out


def degree(p: Poly) -> int:
    """Degree, with the zero polynomial mapped to -1.  Trailing zeros are
    ignored, so untrimmed lists are handled correctly."""
    for k in range(len(p) - 1, -1, -1):
        if p[k] != 0:
            return k
    return -1


def _primitive(p: list[int]) -> list[int]:
    g = gcd(*p)
    return [x // g for x in p]


def sturm_chain(q: list[int]) -> list[list[int]]:
    """Sturm chain of a nonconstant trimmed integer polynomial q.

    After q and the primitive part of q', each term is minus the
    pseudo-remainder of the two before it, scaled by a power of |lc| (never
    a signed lc) and reduced to its primitive part; so every term is a
    positive multiple of the classical Sturm term, and the last one is
    gcd(q, q') up to a constant.
    """
    chain = [q, _primitive([k * x for k, x in enumerate(q)][1:])]
    while len(chain[-1]) > 1:
        r, b = chain[-2], chain[-1]
        mag, lead = abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(r) >= len(b):
            c, shift = lead * r[-1], len(r) - len(b)
            r = [mag * x for x in r[:-1]]
            for i, y in enumerate(b[:-1]):
                r[i + shift] -= c * y
            while r and r[-1] == 0:
                r.pop()
        if not r:
            break
        chain.append(_primitive([-x for x in r]))
    return chain


def _variations(values) -> int:
    seq = [x > 0 for x in values if x != 0]
    return sum(a != b for a, b in zip(seq, seq[1:]))


def count_roots(p) -> tuple[int, int]:
    """(real roots, real roots <= 0), both counted with multiplicity.

    Raises ZeroPolynomialError on the zero polynomial; a nonzero constant has
    no roots.  The factor t^z gives z roots at 0; on the rest q, each round
    counts the distinct roots of q from the signs of its Sturm chain at -inf,
    0 and +inf, then moves on to gcd(q, q'), so a root of multiplicity m is
    counted in m rounds.
    """
    p = trim(p)
    if not p:
        raise ZeroPolynomialError("root count of the zero polynomial")
    den = lcm(*(x.denominator for x in p))
    q = [x.numerator * (den // x.denominator) for x in p]
    z = next(k for k, x in enumerate(q) if x != 0)
    q = _primitive(q[z:])
    total = nonpos = z
    while len(q) > 1:
        chain = sturm_chain(q)
        at_neg = _variations(s[-1] if len(s) % 2 else -s[-1] for s in chain)
        total += at_neg - _variations(s[-1] for s in chain)
        nonpos += at_neg - _variations(s[0] for s in chain)
        q = chain[-1]
    return total, nonpos
