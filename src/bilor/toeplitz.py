"""Banded Toeplitz windows of a form and their positivity properties.

``from_form(F, i)`` lays the normalized coefficients of a degree-d form into
the (i+1) x (d-i+1) Toeplitz matrix whose (p, q) entry is ``c_{i+q-p}``.
Every positivity check runs on one minor scanner, `_Minors`.  The
consecutive-minor test (Fekete's criterion for *strict* total positivity)
visits contiguous minors only; in a Toeplitz matrix those depend on the size
k and the diagonal offset alone, so an m x n window costs
O(sum_k (m+n-2k+1)) determinants.  Total nonnegativity stays exhaustive, all
C(m+n, m) - 1 minors: nonnegative consecutive minors do not certify it
(Cryer's counterexample).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, takewhile
from math import prod

from . import linalg
from .errors import DegreeError, FormatError, MinorCapError, ShapeError
from .forms import BivariateForm
from .verdict import Frozen, MinorWitness, Verdict, fmt_rat, parse_rational

DEFAULT_MINOR_CAP = 8


class ToeplitzMatrix(Frozen):
    __slots__ = ("rows", "cols", "diag")

    def __init__(self, rows: int, cols: int, diag: tuple[Fraction, ...]):
        if rows < 1 or cols < 1:
            raise ShapeError("empty Toeplitz matrix")
        diag = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in diag)
        if len(diag) != rows + cols - 1:
            raise ShapeError(
                f"{rows}x{cols} Toeplitz matrix needs "
                f"{rows + cols - 1} diagonal values, got {len(diag)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "diag", diag)

    def entry(self, p: int, q: int) -> Fraction:
        if not (0 <= p < self.rows and 0 <= q < self.cols):
            raise ShapeError("Toeplitz index out of range")
        return self.diag[q - p + self.rows - 1]

    def to_dense(self) -> list[list[Fraction]]:
        return [
            [self.diag[q - p + self.rows - 1] for q in range(self.cols)]
            for p in range(self.rows)
        ]


def from_dense(rows) -> ToeplitzMatrix:
    m, n = linalg.dims(rows)
    if m < 1 or n < 1:
        raise ShapeError("empty matrix")
    for p in range(m):
        for q in range(n):
            if p and q and rows[p][q] != rows[p - 1][q - 1]:
                raise ShapeError(f"entry ({p},{q}) breaks the Toeplitz diagonals")
    diag = [rows[p][0] for p in range(m - 1, 0, -1)] + [rows[0][q] for q in range(n)]
    return ToeplitzMatrix(m, n, tuple(Fraction(x) for x in diag))


def from_form(form: BivariateForm, order: int) -> ToeplitzMatrix:
    """The order-th coefficient window: (order+1) x (d-order+1), diagonals c_k."""
    d = form.degree
    if not 0 <= order <= d // 2:
        raise DegreeError(f"order {order} out of range for degree {d}")
    return ToeplitzMatrix(order + 1, d - order + 1, form.coeffs)


def to_form(matrix: ToeplitzMatrix) -> BivariateForm:
    """Inverse of from_form; the matrix must be at least as wide as tall."""
    d = matrix.rows + matrix.cols - 2
    if matrix.rows - 1 > d // 2:
        raise ShapeError("matrix is taller than any coefficient window")
    return BivariateForm(d, matrix.diag)


def _cleared(matrix: ToeplitzMatrix) -> tuple[list[list[int]], int]:
    """Integer rows of the window over one common denominator, and that scale."""
    m, n = matrix.rows, matrix.cols
    (diag,), (scale,) = linalg.integer_rows([matrix.diag])
    return [diag[m - 1 - p : m - 1 - p + n] for p in range(m)], scale


class _Minors:
    """The minor scanner behind every positivity check.

    Denominators are cleared once: with one common scale for a Toeplitz
    matrix, row by row otherwise.  Each visited minor is one `linalg.int_det`
    call whose sign is exact, since the scales are positive; only a witness
    is turned back into a Fraction.
    """

    def __init__(self, matrix, cap=None, enumerate_all=False):
        self.toeplitz = isinstance(matrix, ToeplitzMatrix)
        if self.toeplitz:
            self.m, self.n = matrix.rows, matrix.cols
            self.rows, scale = _cleared(matrix)
            self.scales = [scale] * self.m
        else:
            self.m, self.n = linalg.dims(matrix)
            self.rows, self.scales = linalg.integer_rows(matrix)
        self.sizes = range(1, min(self.m, self.n) + 1)
        limit = DEFAULT_MINOR_CAP if cap is None else cap
        if enumerate_all and len(self.sizes) > limit:
            shape = f"{self.m}x{self.n}"
            raise MinorCapError(f"minor enumeration over a {shape} matrix exceeds the cap {limit}")

    def every(self, sizes):
        """Every minor of the given sizes: by size, then lex rows, then lex cols."""
        for k in sizes:
            for ridx in combinations(range(self.m), k):
                for cidx in combinations(range(self.n), k):
                    yield ridx, cidx

    def contiguous(self, by_offset=False):
        """Contiguous minors as `consecutive_witness` visits them; a Toeplitz
        offset t = s - r has its lex-first corner at r = max(0, -t)."""
        m, n = self.m, self.n
        for k in self.sizes:
            if not self.toeplitz:
                corners = [(r, s) for r in range(m - k + 1) for s in range(n - k + 1)]
            else:
                ts = [*range(n - k + 1), *range(-1, k - m - 1, -1)]
                corners = [(max(0, -t), max(0, -t) + t) for t in (sorted(ts) if by_offset else ts)]
            for r, s in corners:
                yield tuple(range(r, r + k)), tuple(range(s, s + k))

    def first(self, index_sets, floor: int) -> MinorWitness | None:
        """The first listed minor whose integer determinant is below `floor`
        (1 tests positivity, 0 nonnegativity), or None."""
        rows = self.rows
        for ridx, cidx in index_sets:
            det = linalg.int_det([[rows[i][j] for j in cidx] for i in ridx])
            if det < floor:
                return MinorWitness(ridx, cidx, Fraction(det, prod(self.scales[i] for i in ridx)))
        return None


def consecutive_witness(matrix, by_offset: bool = False) -> MinorWitness | None:
    """The first non-positive contiguous square minor, or None.

    Sizes ascend.  A dense matrix is scanned by corner (r, s) in lex order.
    A Toeplitz matrix costs one determinant per size and diagonal offset
    s - r, each at its lex-first corner, taken in the lex order of those
    corners, or by ascending offset with `by_offset` (the strict-Lorentzian
    placement).
    """
    minors = _Minors(matrix)
    return minors.first(minors.contiguous(by_offset), 1)


def is_totally_positive(matrix) -> Verdict:
    """Consecutive-minor criterion: every contiguous square window has
    positive determinant.  Equivalent to all minors being positive."""
    found = consecutive_witness(matrix)
    return Verdict("totally-positive", found is None, found)


def is_totally_positive_graded(matrix, cap: int | None = None) -> Verdict:
    """Total positivity by the consecutive criterion, failing with the
    witness of full enumeration (first by size, then lex rows and cols).

    Fekete's criterion is graded: if the contiguous minors of every size
    below k are positive, so are all minors of those sizes.  The failing
    contiguous size is thus the witness size, and of its minors only the
    gapped ones lex-before the consecutive witness are still unknown.
    """
    minors = _Minors(matrix, cap, enumerate_all=True)
    found = minors.first(minors.contiguous(), 1)
    if found is not None:
        k, corner = len(found.rows), (found.rows, found.cols)
        earlier = takewhile(lambda rc: rc < corner, minors.every([k]))
        gapped = ((r, c) for r, c in earlier if r[-1] - r[0] >= k or c[-1] - c[0] >= k)
        found = minors.first(gapped, 1) or found
    return Verdict("totally-positive", found is None, found)


def is_totally_positive_full(matrix, cap: int | None = None) -> Verdict:
    """Total positivity by brute-force enumeration of every minor.

    Exponential in the smaller dimension; kept as the independent cross-check
    for the consecutive-minor test.
    """
    minors = _Minors(matrix, cap, enumerate_all=True)
    found = minors.first(minors.every(minors.sizes), 1)
    return Verdict("totally-positive", found is None, found)


def is_totally_nonnegative(matrix, cap: int | None = None) -> Verdict:
    """Total nonnegativity: every minor of every size is >= 0.

    All minors are enumerated (sizes ascending, index sets in lexicographic
    order) and the first negative one is returned as the witness.
    """
    minors = _Minors(matrix, cap, enumerate_all=True)
    found = minors.first(minors.every(minors.sizes), 0)
    return Verdict("totally-nonnegative", found is None, found)


def rank(matrix) -> int:
    """Exact rank; a Toeplitz window is cleared once, never made dense."""
    if isinstance(matrix, ToeplitzMatrix):
        return linalg.int_rank(_cleared(matrix)[0])
    return linalg.rank(matrix)


def parse_matrix(text: str) -> list[list[Fraction]]:
    rows = [r for r in text.split(";") if r.strip()]
    if not rows:
        raise FormatError("empty matrix text")
    out = [[parse_rational(x) for x in row.split(",")] for row in rows]
    n = len(out[0])
    if any(len(row) != n for row in out):
        raise FormatError("ragged matrix text")
    return out


def format_matrix(rows) -> str:
    dense = rows.to_dense() if isinstance(rows, ToeplitzMatrix) else linalg.copy_rows(rows)
    return "; ".join(", ".join(fmt_rat(x) for x in row) for row in dense)
