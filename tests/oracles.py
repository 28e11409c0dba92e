"""Brute-force reference implementations the fast kernels are checked against."""

from fractions import Fraction

from bilor import from_monomial_coeffs


def _conv(u, v):
    out = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def substitute_by_convolution(form, change):
    """F(p*X + r*Y, q*X + s*Y) in Fraction arithmetic: a power table of each
    linear factor, then one full convolution per monomial (O(d^3))."""
    d = form.degree
    first = [change.r, change.p]  # p*X + r*Y, indexed by X-power
    second = [change.s, change.q]
    powers1 = [[Fraction(1)]]
    powers2 = [[Fraction(1)]]
    for _ in range(d):
        powers1.append(_conv(powers1[-1], first))
        powers2.append(_conv(powers2[-1], second))
    out = [Fraction(0)] * (d + 1)
    for k, rk in enumerate(form.monomial_coeffs()):
        if rk == 0:
            continue
        for j, v in enumerate(_conv(powers1[k], powers2[d - k])):
            out[j] += rk * v
    return from_monomial_coeffs(out)
