"""Exact linear algebra: determinants, rank, kernels, characteristic polynomial."""

from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from bilor import ShapeError
from bilor import linalg

from oracles import charpoly
from support import random_matrix, random_symmetric


def perm_expansion_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for a in range(n):
            for b in range(a + 1, n):
                if seen[a] > seen[b]:
                    sign = -sign
        term = Fraction(1)
        for r in range(n):
            term *= rows[r][perm[r]]
        total += sign * term
    return total


def test_det_small_frozen():
    assert linalg.det([[Fraction(5)]]) == 5
    assert linalg.det([[1, 2], [3, 4]]) == -2
    assert linalg.det([[0, 6, 4], [6, 4, 6], [4, 6, 0]]) == 224


def test_det_matches_permutation_expansion():
    rng = Random(2024)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            m = random_matrix(rng, n, n)
            assert linalg.det(m) == perm_expansion_det(m)


def test_det_exact_on_hilbert_matrix():
    n = 6
    hilbert = [[Fraction(1, p + q + 1) for q in range(n)] for p in range(n)]
    # the classical closed form: prod of factorial ratios, astronomically small
    det = linalg.det(hilbert)
    assert det > 0
    inverse_entries_integral = linalg.det([[Fraction(1)] * n] + hilbert[1:])
    assert isinstance(inverse_entries_integral, Fraction)
    assert det == Fraction(1, 186313420339200000)


def test_det_does_not_mutate_input():
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    saved = [row[:] for row in m]
    linalg.det(m)
    assert m == saved


def test_det_requires_square():
    with pytest.raises(ShapeError):
        linalg.det([[1, 2, 3], [4, 5, 6]])


def test_minor():
    m = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    assert linalg.minor(m, (0, 1), (0, 2)) == 1 * 6 - 3 * 4
    assert linalg.minor(m, (0,), (1,)) == 2


def test_rank_and_rref():
    m = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
    assert linalg.rank(m) == 2
    reduced, pivots = linalg.rref([row[:] for row in m])
    assert pivots == [0, 1]
    assert reduced[0][:2] == [1, 0] and reduced[1][:2] == [0, 1]
    assert linalg.rank([[0, 0], [0, 0]]) == 0


def _rank_cases(rng):
    """Rational matrices of every kind rank meets, with 1 x n and m x 1 shapes."""
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        yield random_matrix(rng, m, n)
        k = rng.randint(1, min(m, n))
        low = linalg.mat_mul(random_matrix(rng, m, k, -3, 3, 2), random_matrix(rng, k, n, -3, 3, 2))
        yield low  # rank at most k
        yield [[x if rng.random() < 0.35 else 0 for x in row] for row in random_matrix(rng, m, n)]
        zero_r, zero_c = rng.randrange(m), rng.randrange(n)
        yield [[0 if r == zero_r or c == zero_c else x for c, x in enumerate(row)]
               for r, row in enumerate(low)]
        yield [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]  # plain ints
        yield random_matrix(rng, 1, n)
        yield [[rng.choice([0, rand]) for rand in row] for row in random_matrix(rng, m, 1)]


def test_rank_matches_the_pivots_of_rref():
    """Fraction-free elimination must count exactly the pivots of Gauss-Jordan."""
    rng = Random(31)
    cases = ranks = deficient = 0
    for m in _rank_cases(rng):
        snapshot = [row[:] for row in m]
        r = linalg.rank(m)
        assert r == len(linalg.rref(m)[1]), m
        assert m == snapshot  # the input is not touched
        cases += 1
        deficient += r < min(len(m), len(m[0]))
        ranks |= 1 << r
    assert cases >= 2000
    assert deficient >= 500
    assert ranks == 0b11111111  # every rank 0..7 occurs


def test_int_rank_skips_pivotless_columns():
    assert linalg.int_rank([[0, 2, 4], [0, 1, 2], [0, 0, 3]]) == 2
    assert linalg.int_rank([[0, 0, 5, 1], [0, 0, 10, 2], [3, 0, 0, 7]]) == 2
    assert linalg.int_rank([[2, 3], [4, 6], [0, 0], [1, 1]]) == 2
    assert linalg.int_rank([]) == 0
    assert linalg.rank([[]]) == 0


def test_kernel_basis_annihilates():
    rng = Random(5)
    for _ in range(30):
        rows_n = rng.randint(1, 4)
        cols_n = rng.randint(1, 5)
        m = random_matrix(rng, rows_n, cols_n, lo=-4, hi=4, den=3)
        kernel = linalg.kernel_basis(m)
        assert len(kernel) == cols_n - linalg.rank(m)
        for v in kernel:
            out = [sum(m[r][c] * v[c] for c in range(cols_n)) for r in range(rows_n)]
            assert all(x == 0 for x in out)


def test_charpoly_frozen():
    # ((0,6,4),(6,4,6),(4,6,0)): trace 4, second symmetric -88, det 224
    cp = charpoly([[0, 6, 4], [6, 4, 6], [4, 6, 0]])
    assert cp == [Fraction(-224), Fraction(-88), Fraction(-4), Fraction(1)]


def test_charpoly_consistency_with_det_and_trace():
    rng = Random(99)
    for n in (1, 2, 3, 4, 5):
        m = random_symmetric(rng, n)
        cp = charpoly(m)
        assert len(cp) == n + 1 and cp[-1] == 1
        assert cp[0] == (-1) ** n * linalg.det(m)
        assert cp[-2] == -sum(m[i][i] for i in range(n))


def test_matrix_utilities():
    m = [[1, 2], [3, 4], [5, 6]]
    assert linalg.dims(m) == (3, 2)
    assert linalg.transpose(m) == [[1, 3, 5], [2, 4, 6]]
    assert linalg.mat_mul([[1, 2]], [[3], [4]]) == [[Fraction(11)]]
    assert linalg.identity(2) == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert linalg.is_symmetric([[1, 2], [2, 1]])
    assert not linalg.is_symmetric([[1, 2], [3, 1]])


def test_integer_rows_scaling():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(2), Fraction(5)]]
    int_rows, scales = linalg.integer_rows(rows)
    for r, (row, scale) in enumerate(zip(int_rows, scales)):
        assert all(isinstance(x, int) or x.denominator == 1 for x in row)
        assert [Fraction(x) / scale for x in row] == rows[r]
