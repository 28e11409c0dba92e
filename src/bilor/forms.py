"""Bivariate homogeneous forms in exact rational arithmetic.

A form of degree d is stored through its normalized coefficients
``c_0, ..., c_d``: the monomial ``X^k Y^(d-k)`` carries the coefficient
``C(d,k) * c_k``.  The normalized convention makes the differential action of
the polynomial ring on forms, and the banded matrices built elsewhere in the
package, take their simplest shape.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, lcm, perm

from .errors import DegreeError, FormatError, PreconditionError, ShapeError
from .verdict import Frozen, fmt_rat, parse_rational


class BivariateForm(Frozen):
    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: tuple[Fraction, ...]):
        if degree < 0:
            raise DegreeError("form degree must be nonnegative")
        coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(coeffs) != degree + 1:
            raise ShapeError(
                f"degree {degree} form needs {degree + 1} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def monomial_coeffs(self) -> tuple[Fraction, ...]:
        d = self.degree
        return tuple(comb(d, k) * c for k, c in enumerate(self.coeffs))

    def evaluate(self, a, b) -> Fraction:
        a, b = Fraction(a), Fraction(b)
        d = self.degree
        return sum(
            (raw * a**k * b ** (d - k) for k, raw in enumerate(self.monomial_coeffs())),
            Fraction(0),
        )

    def __add__(self, other: "BivariateForm") -> "BivariateForm":
        if not isinstance(other, BivariateForm):
            return NotImplemented
        if other.degree != self.degree:
            raise DegreeError("cannot add forms of different degrees")
        return BivariateForm(self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "BivariateForm") -> "BivariateForm":
        if not isinstance(other, BivariateForm):
            return NotImplemented
        return self + (-1) * other

    def __rmul__(self, c) -> "BivariateForm":
        c = Fraction(c)
        return BivariateForm(self.degree, tuple(c * x for x in self.coeffs))

    def __neg__(self) -> "BivariateForm":
        return (-1) * self

    def __str__(self) -> str:
        return format_form(self)


def from_monomial_coeffs(raw) -> BivariateForm:
    raw = list(raw)
    d = len(raw) - 1
    if d < 0:
        raise ShapeError("a form needs at least one coefficient")
    return BivariateForm(d, tuple(Fraction(r) / comb(d, k) for k, r in enumerate(raw)))


def monomial(degree: int, xpower: int) -> BivariateForm:
    """The single monomial X^xpower * Y^(degree - xpower)."""
    if not 0 <= xpower <= degree:
        raise DegreeError("monomial exponent out of range")
    raw = [Fraction(0)] * (degree + 1)
    raw[xpower] = Fraction(1)
    return from_monomial_coeffs(raw)


class LinearForm(Frozen):
    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def point(self) -> tuple[Fraction, Fraction]:
        return (self.a, self.b)


class CoordChange(Frozen):
    """Linear substitution sending F to F(p*X + r*Y, q*X + s*Y).

    The matrix of the change is ((p, r), (q, s)); composition matches matrix
    product, i.e. substitute(substitute(F, sigma), tau) equals
    substitute(F, sigma.compose(tau)).
    """

    __slots__ = ("p", "q", "r", "s")

    def __init__(self, p: Fraction, q: Fraction, r: Fraction, s: Fraction):
        object.__setattr__(self, "p", Fraction(p))
        object.__setattr__(self, "q", Fraction(q))
        object.__setattr__(self, "r", Fraction(r))
        object.__setattr__(self, "s", Fraction(s))

    @classmethod
    def identity(cls) -> "CoordChange":
        return cls(1, 0, 0, 1)

    @classmethod
    def from_generators(cls, ell1: LinearForm, ell2: LinearForm) -> "CoordChange":
        """Change of coordinates whose dual sends the standard pair of
        coordinate forms to (ell1, ell2): the matrix is the transpose of the
        row stack (ell1; ell2).  Requires independent generators."""
        if ell1.a * ell2.b - ell1.b * ell2.a == 0:
            raise PreconditionError("cone generators are linearly dependent")
        return cls(p=ell1.a, q=ell1.b, r=ell2.a, s=ell2.b)

    def matrix(self) -> list[list[Fraction]]:
        return [[self.p, self.r], [self.q, self.s]]

    def det(self) -> Fraction:
        return self.p * self.s - self.q * self.r

    def compose(self, other: "CoordChange") -> "CoordChange":
        a, b = self.matrix(), other.matrix()
        return CoordChange(
            p=a[0][0] * b[0][0] + a[0][1] * b[1][0],
            r=a[0][0] * b[0][1] + a[0][1] * b[1][1],
            q=a[1][0] * b[0][0] + a[1][1] * b[1][0],
            s=a[1][0] * b[0][1] + a[1][1] * b[1][1],
        )


def derive(form: BivariateForm, terms) -> BivariateForm:
    """Apply the differential operator sum(coef * d_x^j d_y^k) to the form.

    `terms` is an iterable of (j, k, coef) triples, all with the same total
    degree e = j + k; the result is the honest derivative of degree d - e,
    polynomial-ring factorials included.  e > d is a degree underflow.
    """
    terms = [(int(j), int(k), Fraction(coef)) for j, k, coef in terms]
    if not terms:
        raise PreconditionError("empty differential operator")
    if any(j < 0 or k < 0 for j, k, _ in terms):
        raise DegreeError("negative exponent in differential operator")
    e = terms[0][0] + terms[0][1]
    if any(j + k != e for j, k, _ in terms):
        raise DegreeError("differential operator is not homogeneous")
    d = form.degree
    if e > d:
        raise DegreeError(f"operator degree {e} exceeds form degree {d}")
    # d_x^j d_y^k sends the normalized c_m to perm(d, e) * c_(m+j)
    c, scale = form.coeffs, perm(d, e)
    shifts = [(j, coef) for j, _, coef in terms if coef != 0]
    out = tuple(
        scale * sum((coef * c[m + j] for j, coef in shifts), Fraction(0)) for m in range(d - e + 1)
    )
    return BivariateForm(d - e, out)


def substitute(form: BivariateForm, change: CoordChange) -> BivariateForm:
    """The form F(p*X + r*Y, q*X + s*Y).

    Fraction-free: D clears the denominators of the coefficients and E those
    of the change, so sum_k R_k (P*X + R*Y)^k (Q*X + S*Y)^(d-k), with
    R_k = D * C(d, k) * c_k, is built over integers by homogeneous Horner in
    O(d^2) multiply-adds; each output coefficient is then one Fraction over
    D * E^d * C(d, j).
    """
    d = form.degree
    den = lcm(*(c.denominator for c in form.coeffs))
    raw = [comb(d, k) * c.numerator * (den // c.denominator) for k, c in enumerate(form.coeffs)]
    entries = (change.p, change.q, change.r, change.s)
    e = lcm(*(x.denominator for x in entries))
    p, q, r, s = (x.numerator * (e // x.denominator) for x in entries)
    acc, pw = [raw[d]], [1]  # polynomials indexed by X-power
    for rk in reversed(raw[:d]):
        pw = [s * a + q * b for a, b in zip(pw + [0], [0] + pw)]
        acc = [r * a + p * b + rk * w for a, b, w in zip(acc + [0], [0] + acc, pw)]
    scale = den * e**d
    return BivariateForm(d, tuple(Fraction(a, scale * comb(d, j)) for j, a in enumerate(acc)))


def symmetric_mix(form: BivariateForm, t) -> BivariateForm:
    """The form F(X + t*Y, t*X + Y)."""
    t = Fraction(t)
    return substitute(form, CoordChange(1, t, t, 1))


_DEGREE_PREFIX = re.compile(r"^\s*(\d+)\s*:(.*)$", re.S)


def _parse_coeff_list(body: str) -> list[Fraction]:
    parts = [p for p in body.split(",")]
    if not parts or all(not p.strip() for p in parts):
        raise FormatError("empty coefficient list")
    return [parse_rational(p) for p in parts]


def parse_form(text: str) -> tuple[BivariateForm, str]:
    """Parse form text; returns (form, convention).

    Accepted shapes: `monomial: r_0, ..., r_d`, `c: c_0, ..., c_d`,
    `d: c_0, ..., c_d` (degree echoed and checked), or a bare comma list of
    normalized coefficients.
    """
    t = text.strip()
    if t.startswith("monomial:"):
        return from_monomial_coeffs(_parse_coeff_list(t[len("monomial:") :])), "monomial"
    if t.startswith("c:"):
        coeffs = _parse_coeff_list(t[len("c:") :])
        return BivariateForm(len(coeffs) - 1, tuple(coeffs)), "normalized"
    m = _DEGREE_PREFIX.match(t)
    if m:
        d = int(m.group(1))
        coeffs = _parse_coeff_list(m.group(2))
        if len(coeffs) != d + 1:
            raise FormatError(
                f"declared degree {d} but got {len(coeffs)} coefficients"
            )
        return BivariateForm(d, tuple(coeffs)), "normalized"
    coeffs = _parse_coeff_list(t)
    return BivariateForm(len(coeffs) - 1, tuple(coeffs)), "normalized"


def format_form(form: BivariateForm, monomial_style: bool = False) -> str:
    if monomial_style:
        return "monomial: " + ", ".join(fmt_rat(r) for r in form.monomial_coeffs())
    return f"{form.degree}: " + ", ".join(fmt_rat(c) for c in form.coeffs)
