"""Stability of bivariate forms, read homogeneously.

A form passes when it vanishes identically or when its monomial coefficients
are nonnegative and the dehomogenization f(t) = F(1, t) is real-rooted with
every root at most zero — powers of X dropped at homogenization (the degree
drop) count as admissible roots at infinity.  The *normally stable* variant
runs the same test on the form whose monomial coefficients are the normalized
ones.
"""

from __future__ import annotations

from fractions import Fraction

from . import realpoly, toeplitz
from .forms import BivariateForm, from_monomial_coeffs
from .verdict import Frozen, MinorWitness, Verdict


class RootCount(Frozen):
    __slots__ = ("total_real", "nonpositive_real", "degree_drop")

    def __init__(self, total_real: int, nonpositive_real: int, degree_drop: int):
        object.__setattr__(self, "total_real", total_real)
        object.__setattr__(self, "nonpositive_real", nonpositive_real)
        object.__setattr__(self, "degree_drop", degree_drop)

    def to_json(self) -> dict:
        return {
            "total_real": self.total_real,
            "nonpositive_real": self.nonpositive_real,
            "degree_drop": self.degree_drop,
        }


def count_roots(poly, expected_degree: int | None = None) -> RootCount:
    """Real roots (with multiplicity) of a rational polynomial, total and in
    (-inf, 0]; the degree drop against `expected_degree` is reported too."""
    total, nonpos = realpoly.count_roots(poly)
    drop = 0
    if expected_degree is not None:
        drop = expected_degree - realpoly.degree(poly)
    return RootCount(total, nonpos, drop)


def dehomogenize(form: BivariateForm) -> list[Fraction]:
    """Coefficients of F(1, t), ascending in t."""
    return realpoly.trim(list(reversed(form.monomial_coeffs())))


def _stable(form: BivariateForm, prop: str = "stable") -> tuple[Verdict, RootCount | None]:
    """The stability verdict, named `prop`, with the root count it was read
    off; the count is None when the zero form or a negative coefficient
    decides first."""
    if form.is_zero:
        return Verdict(prop, True, detail="zero form"), None
    raw = form.monomial_coeffs()
    for k, x in enumerate(raw):
        if x < 0:
            witness = MinorWitness((0,), (k,), x)
            return Verdict(prop, False, witness, "negative monomial coefficient"), None
    rc = count_roots(dehomogenize(form), form.degree)
    if rc.total_real < form.degree - rc.degree_drop:
        return Verdict(prop, False, detail="dehomogenization is not real-rooted"), rc
    if rc.nonpositive_real < rc.total_real:
        return Verdict(prop, False, detail="positive real root present"), rc
    return Verdict(prop, True), rc


def is_stable(form: BivariateForm) -> Verdict:
    return _stable(form)[0]


def is_normally_stable(form: BivariateForm) -> Verdict:
    """Stability of the companion form whose monomial coefficients are the
    normalized coefficients of the input."""
    return _stable(from_monomial_coeffs(form.coeffs), "normally-stable")[0]


def pf_window_check(form: BivariateForm, up_to: int, cap: int | None = None) -> Verdict:
    """Total nonnegativity of every coefficient window of order <= up_to."""
    top = min(up_to, form.degree // 2)
    for i in range(top + 1):
        tn = toeplitz.is_totally_nonnegative(toeplitz.from_form(form, i), cap)
        if not tn.passed:
            return Verdict("pf-window", False, tn.witness, f"order {i}")
    return Verdict("pf-window", True)
