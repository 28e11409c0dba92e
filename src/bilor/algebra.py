"""The Artinian Gorenstein quotient attached to a form, and its sign checks.

A nonzero bivariate form F of degree d determines the quotient of the dual
polynomial ring by the ideal of differential operators annihilating F.  This
module computes its numerical profile (Hilbert function via the ranks of the
coefficient windows), the two generators of the annihilator (the quotient is a
codimension-two complete intersection), primitive subspaces, and the strong
Lefschetz / Hodge-Riemann style determinant checks, ordinary and mixed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import linalg, toeplitz
from .errors import (
    DegreeError,
    PreconditionError,
    ShapeError,
    ZeroFormError,
)
from .forms import BivariateForm, CoordChange, LinearForm, derive, substitute
from .hessians import (
    evaluate_hessian,
    evaluate_mixed_hessian,
    hessian_family,
    reversal_det,
)
from .verdict import Frozen, HrrFailure, HrrVerdict, fmt_rat


class AlgebraProfile(Frozen):
    __slots__ = ("degree", "hilbert", "sperner", "socle_degree")

    def __init__(self, degree: int, hilbert: tuple[int, ...], sperner: int, socle_degree: int):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "hilbert", hilbert)
        object.__setattr__(self, "sperner", sperner)
        object.__setattr__(self, "socle_degree", socle_degree)


def profile(form: BivariateForm) -> AlgebraProfile:
    """Hilbert function, Sperner number and socle degree of the quotient.

    h_i is the rank of the i-th coefficient window; the vector is symmetric,
    so only orders up to d//2 are computed.
    """
    if form.is_zero:
        raise ZeroFormError("the zero form has no associated quotient")
    d = form.degree
    half = [toeplitz.rank(toeplitz.from_form(form, i)) for i in range(d // 2 + 1)]
    hilbert = [0] * (d + 1)
    for i, h in enumerate(half):
        hilbert[i] = h
        hilbert[d - i] = h
    return AlgebraProfile(d, tuple(hilbert), max(half), d)


class XYPoly(Frozen):
    """Homogeneous polynomial in the dual (differentiation) variables x, y.

    coeffs[p] multiplies x^p * y^(degree-p).
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: tuple[Fraction, ...]):
        coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(coeffs) != degree + 1:
            raise ShapeError("coefficient count does not match degree")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def terms(self):
        e = self.degree
        return [(p, e - p, c) for p, c in enumerate(self.coeffs) if c != 0]

    def times(self, other: "XYPoly") -> "XYPoly":
        out = [Fraction(0)] * (self.degree + other.degree + 1)
        for p, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for q, e in enumerate(other.coeffs):
                out[p + q] += c * e
        return XYPoly(self.degree + other.degree, tuple(out))

    def text(self) -> str:
        parts = []
        e = self.degree
        for p in range(e, -1, -1):  # lex order, x before y
            c = self.coeffs[p]
            if c == 0:
                continue
            mono = []
            if p > 0:
                mono.append("x" if p == 1 else f"x^{p}")
            if e - p > 0:
                mono.append("y" if e - p == 1 else f"y^{e - p}")
            body = "*".join(mono)
            mag = abs(c)
            if not body:
                term = fmt_rat(mag)
            elif mag == 1:
                term = body
            else:
                term = f"{fmt_rat(mag)}*{body}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"


def linear_poly(ell: LinearForm) -> XYPoly:
    return XYPoly(1, (ell.b, ell.a))


def _primitive_normal(vec) -> tuple[Fraction, ...]:
    """Scale a rational vector to coprime integers, lex-leading entry positive."""
    (ints,), _ = linalg.integer_rows([vec])
    g = gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    lead = next((v for v in reversed(ints) if v != 0), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)


def _catalecticant_kernel(form: BivariateForm, e: int) -> list[list[Fraction]]:
    """Kernel of g -> g applied to the form, over degree-e operators.

    Basis of the domain: x^p y^(e-p), p ascending.  Operators of degree above
    the form's degree annihilate everything.
    """
    d = form.degree
    if e > d:
        return linalg.identity(e + 1)
    cols = [derive(form, [(p, e - p, 1)]).coeffs for p in range(e + 1)]
    return linalg.kernel_basis(linalg.transpose(cols))


def annihilator_generators(form: BivariateForm) -> tuple[XYPoly, XYPoly]:
    """The two generators of the annihilator ideal, degrees s and d+2-s.

    Normalized to coprime integer coefficients with the lexicographically
    first monomial carrying a positive coefficient.  The pair is a complete
    intersection: the generator degrees sum to d+2.
    """
    prof = profile(form)
    d, s = form.degree, prof.sperner
    k1 = _catalecticant_kernel(form, s)
    if not k1:
        raise ShapeError("empty kernel where a generator was expected")
    f1 = XYPoly(s, _primitive_normal(k1[0]))

    e2 = d + 2 - s
    k2 = _catalecticant_kernel(form, e2)
    # reduce away the multiples of f1 of degree e2
    zeros = [Fraction(0)] * (e2 - s)
    shifts = [zeros[:a] + list(f1.coeffs) + zeros[a:] for a in range(e2 - s + 1)]
    red, pivots = linalg.rref(shifts)
    f2 = None
    for vec in k2:
        v = list(vec)
        for r, pc in enumerate(pivots):
            if v[pc] != 0:
                f = v[pc]
                v = [a - f * b for a, b in zip(v, red[r])]
        if any(x != 0 for x in v):
            f2 = XYPoly(e2, _primitive_normal(v))
            break
    if f2 is None:
        raise ShapeError("annihilator is not a complete intersection (unexpected)")
    for gen in (f1, f2):
        if gen.degree <= d and not derive(form, gen.terms()).is_zero:
            raise ShapeError("computed generator does not annihilate the form")
    return f1, f2


class PrimitiveBasis(Frozen):
    __slots__ = ("degree", "vectors", "expected_dim")

    def __init__(self, degree: int, vectors: tuple[tuple[Fraction, ...], ...], expected_dim: int):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "expected_dim", expected_dim)

    @property
    def matches(self) -> bool:
        return len(self.vectors) == self.expected_dim


def primitive_subspace(form, j: int, ell0: LinearForm, ells) -> PrimitiveBasis:
    """Kernel of multiplication by ell0 * prod(ells) from degree j into degree
    d-j+1, on the monomial coordinates x^p y^(j-p).

    `ells` must hold exactly d-2j linear forms.  The dimension equals
    h_j - h_{j-1} when the data is generic enough; a mismatch is reported via
    `expected_dim`, not silently accepted.
    """
    prof = profile(form)
    d, s = form.degree, prof.sperner
    if not 0 <= j <= d // 2:
        raise DegreeError(f"degree {j} out of range for degree {d}")
    if j > s - 1:
        raise DegreeError(f"degree {j} exceeds sperner-1 = {s - 1}")
    ells = list(ells)
    if len(ells) != d - 2 * j:
        raise ShapeError(f"need {d - 2 * j} linear forms, got {len(ells)}")
    if ell0.is_zero or any(l.is_zero for l in ells):
        raise PreconditionError("zero linear form in primitive-subspace data")
    expected = prof.hilbert[j] - (prof.hilbert[j - 1] if j >= 1 else 0)
    if j == 0:
        return PrimitiveBasis(0, ((Fraction(1),),), expected)
    g = linear_poly(ell0)
    for l in ells:
        g = g.times(linear_poly(l))
    units = linalg.identity(j + 1)
    cols = [derive(form, g.times(XYPoly(j, tuple(u))).terms()).coeffs for u in units]
    kernel = linalg.kernel_basis(linalg.transpose(cols))
    return PrimitiveBasis(j, tuple(tuple(v) for v in kernel), expected)


def _lefschetz_scan(form, i: int, ell: LinearForm, prop: str, want_positive: bool):
    if ell.is_zero:
        raise PreconditionError("zero linear form")
    d = form.degree
    if not 0 <= i <= d // 2:
        raise DegreeError(f"order {i} out of range for degree {d}")
    if form.is_zero:
        return HrrVerdict(prop, i, False, detail="zero form")
    s = profile(form).sperner
    a, b = ell.point()
    for j in range(min(i, s - 1) + 1):
        m = evaluate_hessian(hessian_family(form, j), a, b)
        v = reversal_det(m) if want_positive else linalg.det(m)
        ok = v > 0 if want_positive else v != 0
        if not ok:
            return HrrVerdict(
                prop, i, False, HrrFailure(degree=j, points=((a, b),), value=v)
            )
    return HrrVerdict(prop, i, True)


def check_sl(form, i: int, ell: LinearForm) -> HrrVerdict:
    """Strong Lefschetz at ell up to order i: nonzero Hessian determinants in
    every degree j <= min(i, sperner-1); degrees past sperner-1 are vacuous."""
    return _lefschetz_scan(form, i, ell, "SL", want_positive=False)


def check_hrr(form, i: int, ell: LinearForm) -> HrrVerdict:
    """Hodge-Riemann at ell up to order i: row-reversed Hessian determinants
    strictly positive in every degree j <= min(i, sperner-1)."""
    return _lefschetz_scan(form, i, ell, "HRR", want_positive=True)


def check_mixed_hrr_at(form, i: int, pointsets) -> HrrVerdict:
    """Mixed Hodge-Riemann determinants at explicitly supplied point tuples.

    `pointsets` maps degrees j <= i to a tuple of exactly d-2j points (pairs).
    Only the supplied degrees are checked; degrees above sperner-1 are
    vacuously true and skipped.
    """
    d = form.degree
    if not 0 <= i <= d // 2:
        raise DegreeError(f"order {i} out of range for degree {d}")
    if form.is_zero:
        return HrrVerdict("mixedHRR", i, False, detail="zero form")
    sets = dict(pointsets)
    s = profile(form).sperner
    for j in sorted(sets):
        if not 0 <= j <= i:
            raise DegreeError(f"degree {j} outside 0..{i}")
        pts = tuple((Fraction(a), Fraction(b)) for a, b in sets[j])
        if len(pts) != d - 2 * j:
            raise ShapeError(f"degree {j} needs {d - 2 * j} points, got {len(pts)}")
        if j > s - 1:
            continue
        m = evaluate_mixed_hessian(hessian_family(form, j), pts)
        v = reversal_det(m)
        if v <= 0:
            return HrrVerdict(
                "mixedHRR", i, False, HrrFailure(degree=j, points=pts, value=v)
            )
    return HrrVerdict("mixedHRR", i, True)


def check_mixed_hrr_cone(
    form,
    i: int,
    cone: str = "open",
    generators: tuple[LinearForm, LinearForm] | None = None,
    cap: int | None = None,
) -> HrrVerdict:
    """Mixed Hodge-Riemann up to order i over a whole cone of linear forms.

    For the standard cone (spanned by the coordinate forms), the closed-cone
    condition is decided by total positivity of the order-i coefficient
    window and the open-cone condition by its total nonnegativity.  A custom
    cone is handled by substituting its two generators and deciding over the
    standard cone.  Note the closed-cone check also fails whenever i exceeds
    sperner-1, since the window is then rank-deficient.
    """
    if cone not in ("open", "closed"):
        raise PreconditionError(f"unknown cone flavour {cone!r}")
    d = form.degree
    if not 0 <= i <= d // 2:
        raise DegreeError(f"order {i} out of range for degree {d}")
    if form.is_zero:
        return HrrVerdict("mixedHRR", i, cone == "open", detail="zero form")
    g = form
    if generators is not None:
        g = substitute(form, CoordChange.from_generators(*generators))
    window = toeplitz.from_form(g, i)
    if cone == "closed":
        ver = toeplitz.is_totally_positive_graded(window, cap)
    else:
        ver = toeplitz.is_totally_nonnegative(window, cap)
    failure = None if ver.passed else HrrFailure(minor=ver.witness)
    return HrrVerdict("mixedHRR", i, ver.passed, failure)


def quotient_by_colon(form, ell: LinearForm) -> BivariateForm:
    """The form representing the quotient by the colon ideal of ell: the
    derivative of the form along ell.  Errors when ell annihilates the form."""
    if ell.is_zero:
        raise PreconditionError("zero linear form")
    if form.degree == 0:
        raise PreconditionError("the linear form annihilates a constant form")
    out = derive(form, [(1, 0, ell.a), (0, 1, ell.b)])
    if out.is_zero:
        raise PreconditionError("the linear form annihilates the form")
    return out
