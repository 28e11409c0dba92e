"""Exact dense linear algebra over the rationals.

Matrices are plain lists of row lists with ``Fraction`` (or ``int``) entries.
Determinants and ranks go through fraction-free Bareiss elimination on an
integer rescaling of the input, so no floating point and no ``Fraction``
arithmetic is involved; only `rref` and `kernel_basis` work over ``Fraction``.
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


def transpose(rows) -> Matrix:
    m, n = dims(rows)
    return [[Fraction(rows[i][j]) for i in range(m)] for j in range(n)]


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
    """Bareiss determinant of a square integer matrix (input is copied)."""
    n = len(rows)
    if n == 0:
        return 1
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


def int_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) forward
    elimination, in place.  A zero pivot swaps rows and a pivotless column is
    skipped; every lower row is rescaled, even with a zero multiplier, so each
    division by the previous pivot is exact by Sylvester's identity."""
    r, prev = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        top, piv = rows[r], rows[r][c]
        for row in rows[r + 1 :]:
            f = row[c]
            for j in range(c + 1, len(top)):
                row[j] = (row[j] * piv - f * top[j]) // prev
        prev, r = piv, r + 1
    return r


def det(rows) -> Fraction:
    m, n = dims(rows)
    if m != n:
        raise ShapeError(f"determinant of non-square {m}x{n} matrix")
    irows, scales = integer_rows(rows)
    return Fraction(int_det(irows), prod(scales))


def minor(rows, row_idx, col_idx) -> Fraction:
    sub = [[rows[i][j] for j in col_idx] for i in row_idx]
    return det(sub)


def rref(rows) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (reduced matrix, pivot columns)."""
    m = copy_rows(rows)
    nrows, ncols = dims(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows) -> int:
    """Exact rank by fraction-free integer elimination (`int_rank`), row scales cleared."""
    dims(rows)
    return int_rank(integer_rows(rows)[0])


def kernel_basis(rows) -> list[list[Fraction]]:
    """Basis of the right kernel {v : rows @ v = 0}, one vector per free column.

    Deterministic: free columns are taken in increasing order and the free
    coordinate is set to 1.
    """
    m, n = dims(rows)
    red, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis
