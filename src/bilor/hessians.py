"""Higher Hessian matrices of a bivariate form, exact evaluation, and inertia.

For a degree-d form with normalized coefficients c and an order i <= d/2, the
order-i Hessian pencil is spanned by the constant matrices
``H_m = (c_{m+p+q})_{0<=p,q<=i}``; evaluating the pencil at a point (a, b) or
at a tuple of d-2i points gives the matrices whose determinant signs drive the
Lefschetz and Hodge-Riemann checks in :mod:`bilor.algebra`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm

from . import linalg, realpoly
from .errors import DegreeError, NotSymmetricError, ShapeError
from .verdict import Frozen

Matrix = list[list[Fraction]]


class HessianFamily(Frozen):
    __slots__ = ("degree", "order", "base")

    def __init__(
        self, degree: int, order: int, base: tuple[tuple[tuple[Fraction, ...], ...], ...]
    ):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "base", base)


class SignatureReport(Frozen):
    __slots__ = ("positive", "zero", "negative")

    def __init__(self, positive: int, zero: int, negative: int):
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "negative", negative)

    def to_json(self) -> dict:
        return {
            "positive": self.positive,
            "zero": self.zero,
            "negative": self.negative,
        }


def hessian_family(form, order: int) -> HessianFamily:
    d = form.degree
    if not 0 <= order <= d // 2:
        raise DegreeError(f"order {order} out of range for degree {d}")
    c = form.coeffs
    base = tuple(
        tuple(tuple(c[m + p + q] for q in range(order + 1)) for p in range(order + 1))
        for m in range(d - 2 * order + 1)
    )
    return HessianFamily(d, order, base)


def _combine(family: HessianFamily, weights, scale) -> Matrix:
    """scale * sum_m weights[m] * H_m over the base matrices of the family."""
    size = family.order + 1
    out = [[Fraction(0)] * size for _ in range(size)]
    for w, hm in zip(weights, family.base):
        if w != 0:
            sw = scale * w
            for p in range(size):
                for q in range(size):
                    out[p][q] += sw * hm[p][q]
    return out


def evaluate_hessian(family: HessianFamily, a, b) -> Matrix:
    """Order-i Hessian of the form at the single point (a, b)."""
    a, b = Fraction(a), Fraction(b)
    d, i = family.degree, family.order
    e = d - 2 * i
    weights = [comb(e, m) * a**m * b ** (e - m) for m in range(e + 1)]
    return _combine(family, weights, perm(d, 2 * i))


def mixture_weights(points) -> list[Fraction]:
    """Coefficients of prod_k (a_k z + b_k), ascending in z."""
    w = [Fraction(1)]
    for a, b in points:
        w = realpoly.mul(w, [Fraction(b), Fraction(a)]) or [Fraction(0)]
    return w


def evaluate_mixed_hessian(family: HessianFamily, points) -> Matrix:
    """Mixed order-i Hessian at a tuple of exactly d-2i points.

    Using the same point d-2i times reproduces evaluate_hessian up to the
    factor (d-2i)!: mixed = (d-2i)! * ordinary.
    """
    d, i = family.degree, family.order
    e = d - 2 * i
    pts = [(Fraction(a), Fraction(b)) for a, b in points]
    if len(pts) != e:
        raise ShapeError(f"order {i} of degree {d} needs {e} points, got {len(pts)}")
    return _combine(family, mixture_weights(pts), factorial(d))


def reversal_det(matrix) -> Fraction:
    """Determinant after reversing the row order.

    Equals (-1)^floor(n/2) times the plain determinant; this is the sign
    convention under which the Hodge-Riemann determinants of a suitable form
    are positive.
    """
    return linalg.det(list(reversed(matrix)))


def signature(matrix) -> SignatureReport:
    """Inertia (n_+, n_0, n_-) of a symmetric rational matrix.

    Symmetric congruence elimination: use the first nonzero diagonal entry as a
    pivot; if the whole diagonal vanishes, split off the first nonzero
    off-diagonal pair as a hyperbolic block contributing one positive and one
    negative index.  Sylvester's law makes the count basis-independent.
    """
    m = linalg.copy_rows(matrix)
    rows, cols = linalg.dims(m)
    if rows != cols or not linalg.is_symmetric(m):
        raise NotSymmetricError("signature needs a symmetric square matrix")
    pos = zero = neg = 0
    while m:
        n = len(m)
        j = next((k for k in range(n) if m[k][k] != 0), None)
        if j is not None:
            d = m[j][j]
            if d > 0:
                pos += 1
            else:
                neg += 1
            idx = [k for k in range(n) if k != j]
            m = [[m[r][s] - m[r][j] * m[s][j] / d for s in idx] for r in idx]
            continue
        pair = next(
            ((r, s) for r in range(n) for s in range(r + 1, n) if m[r][s] != 0),
            None,
        )
        if pair is None:
            zero += n
            break
        r0, s0 = pair
        b = m[r0][s0]
        pos += 1
        neg += 1
        idx = [k for k in range(n) if k not in (r0, s0)]
        m = [
            [
                m[p][q] - (m[p][r0] * m[q][s0] + m[p][s0] * m[q][r0]) / b
                for q in idx
            ]
            for p in idx
        ]
    return SignatureReport(pos, zero, neg)
