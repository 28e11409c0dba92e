"""Higher Hessians, mixed versions, reversal determinants and signatures."""

from fractions import Fraction
from math import comb, factorial
from random import Random

import pytest

from bilor import (
    NotSymmetricError,
    ShapeError,
    evaluate_hessian,
    evaluate_mixed_hessian,
    from_monomial_coeffs,
    hessian_family,
    mixture_weights,
    reversal_det,
    signature,
)
from bilor import linalg

from oracles import signature_via_roots
from support import rand_fraction, random_form, random_symmetric

F4 = from_monomial_coeffs([0, 1, 1, 1, 0])


def test_family_base_matrices_are_hankel_windows():
    """H_m = (c_{m+p+q}) is the mixed Hessian at m copies of (1, 0) and e-m
    copies of (0, 1), divided by d!."""
    fam = hessian_family(F4, 1)
    c = F4.coeffs
    d, e = F4.degree, F4.degree - 2 * 1
    assert fam.coeffs == c
    for m in range(e + 1):
        mixed = evaluate_mixed_hessian(fam, [(1, 0)] * m + [(0, 1)] * (e - m))
        mat = [[x / factorial(d) for x in row] for row in mixed]
        for p in range(2):
            for q in range(2):
                assert mat[p][q] == c[m + p + q]


def test_order_two_hessian_is_constant_in_the_point():
    fam = hessian_family(F4, 2)
    expected = [[0, 6, 4], [6, 4, 6], [4, 6, 0]]
    assert evaluate_hessian(fam, 1, 1) == expected
    assert evaluate_hessian(fam, 5, Fraction(-2, 3)) == expected
    assert linalg.det(expected) == 224
    assert signature(expected).to_json() == {"positive": 1, "zero": 0, "negative": 2}


def test_order_one_hessian_at_diagonal_point():
    fam = hessian_family(F4, 1)
    mat = evaluate_hessian(fam, 1, 1)
    assert mat == [[8, 10], [10, 8]]
    assert linalg.det(mat) == -36
    assert reversal_det(mat) == 36


def test_mixture_weights_are_product_coefficients():
    w = mixture_weights([(1, 2), (3, 1)])
    assert list(w) == [2, 7, 3]  # (z + 2)(3z + 1) = 3z^2 + 7z + 2
    assert list(mixture_weights([])) == [1]
    # a factor with a = 0 drops the top coefficient; a zero product is [0]
    assert list(mixture_weights([(0, 0)])) == [0]
    assert list(mixture_weights([(0, 2), (1, 1)])) == [2, 2]
    assert all(type(x) is Fraction for x in mixture_weights([(0, 0)]) + mixture_weights([]))


def test_mixed_hessian_frozen_example():
    fam = hessian_family(F4, 1)
    assert evaluate_mixed_hessian(fam, [(1, 2), (3, 1)]) == [[54, 58], [58, 50]]


def test_mixed_hessian_needs_exactly_d_minus_2i_points():
    fam = hessian_family(F4, 1)
    with pytest.raises(ShapeError):
        evaluate_mixed_hessian(fam, [(1, 1)])
    with pytest.raises(ShapeError):
        evaluate_mixed_hessian(fam, [(1, 1)] * 3)


def test_mixed_at_repeated_point_is_scaled_ordinary():
    rng = Random(314)
    for _ in range(25):
        d = rng.randint(2, 7)
        i = rng.randint(0, d // 2)
        f = random_form(rng, d)
        fam = hessian_family(f, i)
        a, b = rand_fraction(rng), rand_fraction(rng)
        mixed = evaluate_mixed_hessian(fam, [(a, b)] * (d - 2 * i))
        plain = evaluate_hessian(fam, a, b)
        scale = factorial(d - 2 * i)
        for p in range(i + 1):
            for q in range(i + 1):
                assert mixed[p][q] == scale * plain[p][q]


def test_mixed_hessian_is_multilinear_in_each_point():
    rng = Random(1000)
    for _ in range(10):
        d = rng.randint(3, 6)
        i = rng.randint(0, (d - 1) // 2)
        f = random_form(rng, d)
        fam = hessian_family(f, i)
        rest = [(rand_fraction(rng), rand_fraction(rng)) for _ in range(d - 2 * i - 1)]
        p1 = (rand_fraction(rng), rand_fraction(rng))
        p2 = (rand_fraction(rng), rand_fraction(rng))
        both = (p1[0] + p2[0], p1[1] + p2[1])
        lhs = evaluate_mixed_hessian(fam, [both] + rest)
        m1 = evaluate_mixed_hessian(fam, [p1] + rest)
        m2 = evaluate_mixed_hessian(fam, [p2] + rest)
        for p in range(i + 1):
            for q in range(i + 1):
                assert lhs[p][q] == m1[p][q] + m2[p][q]


def test_ordinary_hessian_against_direct_differentiation():
    """Entry (p, q), times (d-2i)!, must equal the honest differentiation
    pairing: apply x^p y^(i-p) x^q y^(i-q) ell^(d-2i) to the form."""
    from bilor import derive

    rng = Random(271)
    for _ in range(15):
        d = rng.randint(2, 6)
        i = rng.randint(0, d // 2)
        f = random_form(rng, d)
        fam = hessian_family(f, i)
        a, b = rand_fraction(rng, -4, 4, 3), rand_fraction(rng, -4, 4, 3)
        mat = evaluate_hessian(fam, a, b)
        for p in range(i + 1):
            for q in range(i + 1):
                terms = []
                for m in range(d - 2 * i + 1):
                    coef = comb(d - 2 * i, m) * a**m * b ** (d - 2 * i - m)
                    terms.append((p + q + m, (i - p) + (i - q) + (d - 2 * i - m), coef))
                merged = {}
                for j, k, coef in terms:
                    merged[(j, k)] = merged.get((j, k), Fraction(0)) + coef
                ops = [(j, k, v) for (j, k), v in merged.items() if v != 0]
                if not ops:
                    continue
                out = derive(f, ops)
                assert out.degree == 0
                assert factorial(d - 2 * i) * mat[p][q] == out.coeffs[0]


def test_reversal_det_sign_identity():
    rng = Random(55)
    for n in (1, 2, 3, 4, 5):
        m = random_symmetric(rng, n)
        assert reversal_det(m) == (-1) ** (n // 2) * linalg.det(m)


def test_signature_requires_symmetry():
    with pytest.raises(NotSymmetricError):
        signature([[1, 2], [3, 4]])
    with pytest.raises(NotSymmetricError):
        signature_via_roots([[1, 2], [3, 4]])


def test_signature_handles_zero_diagonal():
    assert signature([[0, 1], [1, 0]]).to_json() == {"positive": 1, "zero": 0, "negative": 1}
    assert signature([[0, 0], [0, 0]]).to_json() == {"positive": 0, "zero": 2, "negative": 0}
    assert signature([[3]]).to_json() == {"positive": 1, "zero": 0, "negative": 0}


def test_signature_matches_root_counting_oracle():
    rng = Random(808)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_symmetric(rng, n)
        if rng.random() < 0.3:
            # force singularity: duplicate a row/column pair symmetrically
            if n >= 2:
                for k in range(n):
                    m[n - 1][k] = m[0][k]
                for k in range(n):
                    m[k][n - 1] = m[k][0]
        a = signature(m)
        b = signature_via_roots(m)
        assert (a.positive, a.zero, a.negative) == (b.positive, b.zero, b.negative)
        assert a.positive + a.zero + a.negative == n


def test_signature_sylvester_invariance():
    """Congruence by an invertible matrix never changes the signature."""
    rng = Random(4242)
    for _ in range(20):
        n = rng.randint(2, 4)
        m = random_symmetric(rng, n)
        while True:
            g = [[rand_fraction(rng, -3, 3, 2) for _ in range(n)] for _ in range(n)]
            if linalg.det(g) != 0:
                break
        gm = linalg.mat_mul(linalg.mat_mul(list(zip(*g)), m), g)
        a, b = signature(m), signature(gm)
        assert (a.positive, a.zero, a.negative) == (b.positive, b.zero, b.negative)
