"""Exact dense linear algebra over the rationals.

Matrices are plain lists of row lists with ``Fraction`` (or ``int``) entries.
Determinants (`int_det`), ranks and kernels (one forward elimination,
`int_echelon`) work on an integer rescaling of the input: determinants up
to 4x4 in closed form, everything larger by fraction-free Bareiss
elimination; only the kernel back-substitution uses ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .errors import ShapeError

Matrix = list[list[Fraction]]


def copy_rows(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def dims(rows) -> tuple[int, int]:
    m = len(rows)
    n = len(rows[0]) if m else 0
    for row in rows:
        if len(row) != n:
            raise ShapeError("ragged matrix")
    return m, n


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b) -> Matrix:
    ma, na = dims(a)
    mb, nb = dims(b)
    if na != mb:
        raise ShapeError(f"cannot multiply {ma}x{na} by {mb}x{nb}")
    return [
        [sum((Fraction(a[i][k]) * b[k][j] for k in range(na)), Fraction(0)) for j in range(nb)]
        for i in range(ma)
    ]


def is_symmetric(rows) -> bool:
    m, n = dims(rows)
    if m != n:
        return False
    return all(rows[i][j] == rows[j][i] for i in range(m) for j in range(i))


def integer_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row by row.

    Returns integer rows together with the positive scale of each row, so a
    k x k minor of the original equals the integer minor divided by the
    product of the scales of the rows involved.
    """
    out, scales = [], []
    for row in rows:
        row = [Fraction(x) for x in row]
        s = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (s // x.denominator) for x in row])
        scales.append(s)
    return out, scales


def int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix; the input is never changed.

    Sizes 0-4 are closed forms read straight off the rows (tuples work as
    well as lists): 1, the entry, ad - bc, first-row cofactors, and for 4x4
    the Laplace expansion along the first two rows, six products of 2x2
    minors.  Larger sizes run Bareiss elimination on a copy.
    """
    n = len(rows)
    if n < 3:
        if n == 2:
            (a, b), (c, d) = rows
            return a * d - b * c
        return rows[0][0] if n else 1
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
        return (
            (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
        )
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for r in range(k + 1, n):
            mrk = m[r][k]
            mr, mk = m[r], m[k]
            for c in range(k + 1, n):
                mr[c] = (mr[c] * pivot - mrk * mk[c]) // prev
            mr[k] = 0
        prev = pivot
    return sign * m[-1][-1]


def int_echelon(rows: list[list[int]]) -> list[int]:
    """Fraction-free (Bareiss) forward elimination of an integer matrix, in
    place; returns the pivot columns.  A zero pivot swaps rows, a pivotless
    column is skipped, and every lower row is rescaled, even with a zero
    multiplier, so each division by the previous pivot is exact (Sylvester's
    identity).  Entries of row r left of pivots[r] are stale: never read them.
    """
    pivots, prev = [], 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        top, piv = rows[r], rows[r][c]
        for row in rows[r + 1 :]:
            f = row[c]
            for j in range(c + 1, len(top)):
                row[j] = (row[j] * piv - f * top[j]) // prev
        prev = piv
        pivots.append(c)
    return pivots


def det(rows) -> Fraction:
    m, n = dims(rows)
    if m != n:
        raise ShapeError(f"determinant of non-square {m}x{n} matrix")
    irows, scales = integer_rows(rows)
    return Fraction(int_det(irows), prod(scales))


def rank(rows) -> int:
    """Exact rank by fraction-free integer elimination, row scales cleared."""
    dims(rows)
    return len(int_echelon(integer_rows(rows)[0]))


def kernel_basis(rows) -> list[list[Fraction]]:
    """Basis of the right kernel {v : rows @ v = 0}, one vector per free column.

    Deterministic: free columns are taken in increasing order, the free
    coordinate is set to 1 and the other free ones to 0.  Row scales do not
    change the kernel, so the pivot coordinates are back-substituted through
    the `int_echelon` form of the cleared rows, from the last pivot row up.
    """
    n = dims(rows)[1]
    echelon = integer_rows(rows)[0]
    pivots = int_echelon(echelon)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for pc, row in reversed([*zip(pivots, echelon)]):
            v[pc] = -sum((row[j] * v[j] for j in range(pc + 1, n) if v[j]), Fraction(0)) / row[pc]
        basis.append(v)
    return basis
