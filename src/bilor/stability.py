"""Stability of bivariate forms, read homogeneously.

A form passes when it vanishes identically or when its monomial coefficients
are nonnegative and the dehomogenization f(t) = F(1, t) is real-rooted with
every root at most zero — powers of X dropped at homogenization (the degree
drop) count as admissible roots at infinity.  The *normally stable* variant
runs the same test on the form whose monomial coefficients are the normalized
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import realpoly, toeplitz
from .forms import BivariateForm, from_monomial_coeffs
from .verdict import MinorWitness, Verdict


@dataclass(frozen=True)
class RootCount:
    total_real: int
    nonpositive_real: int
    degree_drop: int

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


def is_stable(form: BivariateForm) -> Verdict:
    if form.is_zero:
        return Verdict("stable", True, detail="zero form")
    raw = form.monomial_coeffs()
    for k, x in enumerate(raw):
        if x < 0:
            return Verdict(
                "stable",
                False,
                MinorWitness((0,), (k,), x),
                "negative monomial coefficient",
            )
    rc = count_roots(dehomogenize(form), form.degree)
    f_degree = form.degree - rc.degree_drop
    if rc.total_real < f_degree:
        return Verdict("stable", False, detail="dehomogenization is not real-rooted")
    if rc.nonpositive_real < rc.total_real:
        return Verdict("stable", False, detail="positive real root present")
    return Verdict("stable", True)


def is_normally_stable(form: BivariateForm) -> Verdict:
    """Stability of the companion form whose monomial coefficients are the
    normalized coefficients of the input."""
    inner = is_stable(from_monomial_coeffs(form.coeffs))
    return Verdict("normally-stable", inner.passed, inner.witness, inner.detail)


def pf_window_check(form: BivariateForm, up_to: int, cap: int | None = None) -> Verdict:
    """Total nonnegativity of every coefficient window of order <= up_to."""
    top = min(up_to, form.degree // 2)
    for i in range(top + 1):
        tn = toeplitz.is_totally_nonnegative(toeplitz.from_form(form, i), cap)
        if not tn.passed:
            return Verdict("pf-window", False, tn.witness, f"order {i}")
    return Verdict("pf-window", True)
