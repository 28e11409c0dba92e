"""Lorentzian order of a form: exact classification and constructive
approximation.

A degree-d form is *strictly i-Lorentzian* when every square window of its
normalized coefficient sequence up to size i+1 has positive determinant, and
*i-Lorentzian* when it lies in the closure of that set — equivalently, when
the order-i coefficient window is totally nonnegative.  The closure statement
is made effective here: `approximate_tp` turns any i-Lorentzian form into an
explicit sequence of certified strictly i-Lorentzian forms converging to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import toeplitz
from .errors import BudgetError, PreconditionError
from .forms import (
    BivariateForm,
    CoordChange,
    LinearForm,
    symmetric_mix,
    substitute,
)
from .verdict import MinorWitness, Verdict

DEFAULT_BUDGET = 64


def is_strictly_lorentzian(form: BivariateForm, i: int) -> Verdict:
    """Positivity of every window determinant of size up to i+1.

    Determinants are scanned by size then by offset; a failing verdict
    carries the first non-positive one, located inside the order-i window.
    """
    found = toeplitz.consecutive_witness(toeplitz.from_form(form, i), by_offset=True)
    detail = "zero form" if form.is_zero else None  # the zero form always fails
    return Verdict("strictly-lorentzian", found is None, found, detail)


def is_lorentzian(form: BivariateForm, i: int, cap: int | None = None) -> Verdict:
    """Membership in the closed Lorentzian set: total nonnegativity of the
    order-i coefficient window."""
    tn = toeplitz.is_totally_nonnegative(toeplitz.from_form(form, i), cap)
    detail = "zero form" if form.is_zero else None
    return Verdict("lorentzian", tn.passed, tn.witness, detail)


def newton_ulc_check(form: BivariateForm) -> Verdict:
    """Necessary conditions at order 1: nonnegative normalized coefficients
    with contiguous support, ultra-log-concave in the normalized sense."""
    c = form.coeffs
    d = form.degree
    if form.is_zero:
        return Verdict("ulc", True, detail="zero form")
    for k, x in enumerate(c):
        if x < 0:
            return Verdict(
                "ulc", False, MinorWitness((0,), (k,), x), "negative coefficient"
            )
    support = [k for k, x in enumerate(c) if x != 0]
    for k in range(support[0], support[-1] + 1):
        if c[k] == 0:
            return Verdict(
                "ulc", False, MinorWitness((0,), (k,), Fraction(0)), "internal zero"
            )
    for k in range(1, d):
        v = c[k] * c[k] - c[k - 1] * c[k + 1]
        if v < 0:
            return Verdict(
                "ulc",
                False,
                MinorWitness((0, 1), (k - 1, k), v),
                "log-concavity failure",
            )
    return Verdict("ulc", True)


@dataclass(frozen=True)
class LorentzClass:
    degree: int
    order_strict: int
    order: int
    per_order: tuple[tuple[Verdict, Verdict], ...]


def classify(form: BivariateForm, max_order: int | None = None, cap: int | None = None) -> LorentzClass:
    """Strict and non-strict verdicts for every order up to d//2 (or
    max_order), plus the largest passing order of each kind (-1 when none)."""
    d = form.degree
    top = d // 2 if max_order is None else min(max_order, d // 2)
    per = []
    order_strict = order = -1
    for i in range(top + 1):
        strict = is_strictly_lorentzian(form, i)
        loose = is_lorentzian(form, i, cap)
        per.append((strict, loose))
        if strict.passed:
            order_strict = i
        if loose.passed:
            order = i
    return LorentzClass(d, order_strict, order, tuple(per))


@dataclass(frozen=True)
class ApproxStep:
    """One certified output of the approximation scheme.

    `rank_steps` records the (t, u) parameters of each rank-raising move,
    `final_mix` the parameter of the closing substitution (None when the
    input was returned unchanged), `distance` the sup-norm coefficient
    distance to the target form.
    """

    form: BivariateForm
    rank_steps: tuple[tuple[Fraction, Fraction], ...]
    final_mix: Fraction | None
    distance: Fraction


def _distance(a: BivariateForm, b: BivariateForm) -> Fraction:
    return max(abs(x - y) for x, y in zip(a.coeffs, b.coeffs))


def _certified_approximant(form, i, scale, budget, cap):
    """One strictly i-Lorentzian form with all parameters at most `scale`.

    Raise the window rank one step at a time (substitution mixing the two
    variables, plus a nudge of the pure-Y coefficient whose sign depends on
    the current rank parity), then close with one more mixing substitution.
    Every step is certified: nonnegativity plus the rank increment for the
    raising steps, the full strict verdict at the end.
    """
    d = form.degree
    cur = form
    trail: list[tuple[Fraction, Fraction]] = []
    while True:
        s = toeplitz.rank(toeplitz.from_form(cur, i))
        if s >= i + 1:
            break
        sign = 1 if s % 2 == 0 else -1
        t = Fraction(scale)
        u = Fraction(scale)
        for _ in range(budget):
            mixed = symmetric_mix(cur, t).coeffs  # the nudge adds sign*u*Y^d: c_0 only
            cand = BivariateForm(d, (mixed[0] + sign * u, *mixed[1:]))
            window = toeplitz.from_form(cand, i)
            if (
                toeplitz.is_totally_nonnegative(window, cap).passed
                and toeplitz.rank(window) == s + 1
            ):
                break
            # the admissible nudges form an interval (0, u*], so shrinking by
            # the scale factor (plain halving when scale = 1/2) cannot skip it
            u *= t
        else:
            raise BudgetError("rank-raising step exhausted its halving budget")
        trail.append((t, u))
        cur = cand
    t = Fraction(scale)
    for _ in range(budget):
        out = symmetric_mix(cur, t)
        if is_strictly_lorentzian(out, i).passed:
            return out, tuple(trail), t
        t /= 2
    raise BudgetError("final mixing step exhausted its halving budget")


def approximate_tp(
    form: BivariateForm,
    i: int,
    steps: int | None = None,
    epsilon=None,
    budget: int = DEFAULT_BUDGET,
    cap: int | None = None,
) -> list[ApproxStep]:
    """Certified strictly i-Lorentzian approximants of an i-Lorentzian form.

    Emits successive approximants with geometrically shrinking parameters
    until `steps` forms are produced and/or the coefficient distance drops
    below `epsilon` (default: 8 steps).  `steps` must be at least 1, and at
    most `budget` unless the input is strict.  The input must be i-Lorentzian
    and nonzero; a strictly i-Lorentzian input is returned as its own
    (distance zero) approximation.
    """
    if steps is not None and steps < 1:
        raise PreconditionError(f"steps must be at least 1, got {steps}")
    epsilon = None if epsilon is None else Fraction(epsilon)
    if epsilon is not None and epsilon < 0:
        raise PreconditionError(f"epsilon must be at least 0, got {epsilon}")
    if form.is_zero:
        raise PreconditionError("cannot approximate the zero form")
    if not is_lorentzian(form, i, cap).passed:
        raise PreconditionError("input form is not i-Lorentzian at this order")
    if is_strictly_lorentzian(form, i).passed:
        step = ApproxStep(form, (), None, Fraction(0))
        return [step] * (steps or 1)
    if epsilon == 0:
        raise PreconditionError(f"epsilon 0 needs a strictly {i}-Lorentzian input")
    if steps is None and epsilon is None:
        steps = 8
    if steps is not None and steps > budget:  # the loop below builds at most `budget`
        raise BudgetError(f"steps {steps} exceeds the halving budget {budget} of approximants")
    out: list[ApproxStep] = []
    scale = Fraction(1, 2)
    for _ in range(budget):
        g, trail, tfin = _certified_approximant(form, i, scale, budget, cap)
        out.append(ApproxStep(g, trail, tfin, _distance(g, form)))
        got_steps = steps is None or len(out) >= steps
        if got_steps and (epsilon is None or out[-1].distance <= epsilon):
            return out
        scale /= 2
    raise BudgetError("approximation did not reach the target within budget")


def straighten_from_hrr(
    form: BivariateForm,
    ell: LinearForm,
    i: int,
    budget: int = DEFAULT_BUDGET,
) -> CoordChange:
    """A change of coordinates making the form strictly i-Lorentzian, built
    from a single Hodge-Riemann witness ell.

    Pairs ell with a nearby second generator ell + eps*z (z a coordinate
    form independent of ell) and halves eps until the substituted form
    passes the strict verdict.  Requires the ordinary checks at ell to hold
    up to order i and the order to stay below the Sperner number.
    """
    from .algebra import check_hrr, profile  # local import to avoid a cycle

    if form.is_zero:
        raise PreconditionError("cannot straighten the zero form")
    if ell.is_zero:
        raise PreconditionError("zero linear form")
    s = profile(form).sperner
    if i > s - 1:
        raise PreconditionError(f"order {i} exceeds sperner-1 = {s - 1}")
    if not check_hrr(form, i, ell).passed:
        raise PreconditionError("the supplied linear form is not a Hodge-Riemann witness")
    if is_strictly_lorentzian(form, i).passed:
        return CoordChange.identity()
    z = LinearForm(0, 1) if ell.a != 0 else LinearForm(1, 0)
    eps = Fraction(1)
    for _ in range(budget):
        ell2 = LinearForm(ell.a + eps * z.a, ell.b + eps * z.b)
        if ell.a * ell2.b - ell.b * ell2.a != 0:
            change = CoordChange.from_generators(ell, ell2)
            if is_strictly_lorentzian(substitute(form, change), i).passed:
                return change
        eps /= 2
    raise BudgetError("straightening exhausted its halving budget")
