"""Weighted lattice-path matrices and the Lindstrom-Gessel-Viennot oracle.

The band matrix of a tuple of s weighted levels has (r, c) entry w_{r-c},
where w_m is the degree-m coefficient of prod_k (a_k z + b_k) — the total
weight of all paths descending s levels with exactly r - c sideways steps.
The LGV lemma identifies minors of that matrix with signed sums over
vertex-disjoint path systems; `lgv_minor_oracle` evaluates the right-hand
side by brute-force enumeration, and `verify_factorization` checks the
band-matrix factorization of the row-reversed mixed Hessian.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from . import linalg
from .errors import BudgetError, ShapeError
from .forms import BivariateForm
from .hessians import evaluate_mixed_hessian, hessian_family, mixture_weights
from .verdict import Frozen, MinorWitness, Verdict

DEFAULT_PATH_BUDGET = 1_000_000


def _check_weights(band: int, weights) -> list[tuple[Fraction, Fraction]]:
    pts = [(Fraction(a), Fraction(b)) for a, b in weights]
    if len(pts) != band:
        raise ShapeError(f"band {band} needs {band} weight pairs, got {len(pts)}")
    return pts


def path_matrix(band: int, weights, rows, cols) -> list[list[Fraction]]:
    """The window of the band matrix on the given row and column indices."""
    pts = _check_weights(band, weights)
    w = mixture_weights(pts)
    w += [Fraction(0)] * (band + 1 - len(w))
    out = []
    for r in rows:
        line = []
        for c in cols:
            m = r - c
            line.append(w[m] if 0 <= m <= band else Fraction(0))
        out.append(line)
    return out


class PathMatrixWindow(Frozen):
    __slots__ = ("band", "weights", "rows", "cols")

    def __init__(
        self,
        band: int,
        weights: tuple[tuple[Fraction, Fraction], ...],
        rows: tuple[int, ...],
        cols: tuple[int, ...],
    ):
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    def to_dense(self) -> list[list[Fraction]]:
        return path_matrix(self.band, self.weights, self.rows, self.cols)


def _perm_sign(perm) -> int:
    return -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1


def _path_positions(start: int, kset, band: int) -> tuple[int, ...]:
    pos = [start]
    for level in range(1, band + 1):
        pos.append(pos[-1] + (1 if level in kset else 0))
    return tuple(pos)


def lgv_minor_oracle(
    band: int,
    weights,
    rows,
    cols,
    budget: int = DEFAULT_PATH_BUDGET,
    collect_signs: list | None = None,
) -> Fraction:
    """Signed enumeration of vertex-disjoint path systems.

    Sources sit at (-r, 0) for r in `rows`, sinks at (-c, band) for c in
    `cols`; a path spends its sideways steps at some subset of the band
    levels.  Returns sum over vertex-disjoint systems of sign(pairing) times
    the product of step weights — by the LGV lemma this equals the
    corresponding minor of the band matrix.  `collect_signs`, when given,
    receives the sign of every disjoint system found.
    """
    rows = list(rows)
    cols = list(cols)
    if len(rows) != len(cols):
        raise ShapeError("need as many sources as sinks")
    pts = _check_weights(band, weights)
    n = len(rows)
    total = Fraction(0)
    examined = 0
    for perm in permutations(range(n)):
        sgn = _perm_sign(perm)
        step_counts = [rows[r] - cols[perm[r]] for r in range(n)]
        if any(not 0 <= e <= band for e in step_counts):
            continue
        ksets = [list(combinations(range(1, band + 1), e)) for e in step_counts]

        def weight_of(kset) -> Fraction:
            out = Fraction(1)
            for level in range(1, band + 1):
                a, b = pts[level - 1]
                out *= a if level in kset else b
            return out

        def dfs(r, positions, acc):
            nonlocal total, examined
            if r == n:
                total += sgn * acc
                if collect_signs is not None:
                    collect_signs.append(sgn)
                return
            for kset in ksets[r]:
                examined += 1
                if examined > budget:
                    raise BudgetError("path enumeration exceeded its budget")
                pos = _path_positions(-rows[r], set(kset), band)
                if any(
                    any(p == q for p, q in zip(pos, other)) for other in positions
                ):
                    continue
                dfs(r + 1, positions + [pos], acc * weight_of(kset))

        dfs(0, [], Fraction(1))
    return total


def verify_factorization(form: BivariateForm, i: int, points) -> Verdict:
    """Entrywise check that the row-reversed mixed Hessian of order i equals
    d! times the product of the coefficient band with the path-weight band
    on the window rows 0..i, columns i..2i."""
    d = form.degree
    band = d - 2 * i
    pts = [(Fraction(a), Fraction(b)) for a, b in points]
    lhs = list(reversed(evaluate_mixed_hessian(hessian_family(form, i), pts)))
    c = form.coeffs
    coeff_band = [
        [c[r - p] if r >= p else Fraction(0) for r in range(d + 1)]
        for p in range(i + 1)
    ]
    weight_band = path_matrix(band, pts, range(d + 1), range(i, 2 * i + 1))
    rhs = linalg.mat_mul(coeff_band, weight_band)
    scale = factorial(d)
    for p in range(i + 1):
        for q in range(i + 1):
            if lhs[p][q] != scale * rhs[p][q]:
                return Verdict(
                    "factorization",
                    False,
                    MinorWitness((p,), (q,), lhs[p][q] - scale * rhs[p][q]),
                    "entry mismatch",
                )
    return Verdict("factorization", True)
