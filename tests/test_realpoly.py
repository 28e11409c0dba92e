"""Integer Sturm root counts, checked against the Fraction toolkit in `oracles`
(arithmetic, Yun decomposition, Euclidean Sturm chains)."""

from fractions import Fraction
from random import Random

import pytest

from bilor import ZeroPolynomialError
from bilor import realpoly

import oracles as ref


def F(*xs):
    return [Fraction(x) for x in xs]


def test_trim_degree_zero():
    assert realpoly.trim(F(1, 2, 0, 0)) == F(1, 2)
    assert realpoly.degree(F(0, 0)) == -1
    assert realpoly.degree(F(3)) == 0
    assert ref.is_zero(F(0))
    assert not ref.is_zero(F(0, 1))


def test_arithmetic():
    p, q = F(1, 1), F(-1, 1)  # 1+t, -1+t
    assert ref.mul(p, q) == F(-1, 0, 1)
    assert ref.add(p, q) == F(0, 2)
    assert ref.sub(p, q) == F(2)
    assert ref.scale(p, Fraction(3)) == F(3, 3)
    assert ref.evaluate(F(-1, 0, 1), Fraction(3)) == 8
    assert ref.derivative(F(5, 3, 1)) == F(3, 2)


def test_divmod_reconstructs():
    rng = Random(31)
    for _ in range(40):
        a = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 7))]
        b = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        if ref.is_zero(ref.trim(b)):
            continue
        quo, rem = ref.poly_divmod(a, b)
        assert ref.trim(ref.add(ref.mul(quo, b), rem)) == ref.trim(a)
        assert ref.degree(rem) < ref.degree(ref.trim(b))


def test_gcd_of_coprime_is_constant():
    g = ref.poly_gcd(F(-1, 0, 1), F(2, 1))  # (t-1)(t+1) vs t+2
    assert ref.degree(g) == 0


def test_gcd_picks_up_common_factor():
    p = ref.mul(F(1, 1), F(-2, 1))  # (t+1)(t-2)
    q = ref.mul(F(1, 1), F(5, 1))  # (t+1)(t+5)
    g = ref.poly_gcd(p, q)
    assert ref.monic(g) == F(1, 1)


def test_squarefree_decomposition_yun():
    # (t+1)^2 (t-3)
    p = ref.mul(ref.mul(F(1, 1), F(1, 1)), F(-3, 1))
    parts = ref.squarefree_decomposition(p)
    assert [(g, e) for g, e in parts] == [(F(-3, 1), 1), (F(1, 1), 2)]
    # perfect cube
    cube = ref.mul(ref.mul(F(0, 1), F(0, 1)), F(0, 1))
    assert ref.squarefree_decomposition(cube) == [(F(0, 1), 3)]


def test_squarefree_reconstructs_random_products():
    rng = Random(17)
    for _ in range(30):
        p = [Fraction(rng.randint(1, 5))]
        for _ in range(rng.randint(1, 4)):
            root = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3)):
                p = ref.mul(p, F(-root, 1))
        rebuilt = [Fraction(p[-1])]
        for g, e in ref.squarefree_decomposition(p):
            for _ in range(e):
                rebuilt = ref.mul(rebuilt, g)
        assert ref.trim(rebuilt) == ref.trim(p)


def test_sturm_chain_sign_structure():
    chain = ref.sturm_chain(F(-2, 0, 1))  # t^2 - 2
    assert chain[0] == F(-2, 0, 1)
    assert chain[1] == ref.derivative(F(-2, 0, 1))
    assert ref.degree(chain[-1]) == 0


def test_count_roots_with_multiplicity():
    # t (t+1)^2 (t+2): four real roots, all nonpositive
    p = ref.mul(ref.mul(F(0, 1), ref.mul(F(1, 1), F(1, 1))), F(2, 1))
    assert realpoly.count_roots(p) == (4, 4)
    # t^2 + 1: none
    assert realpoly.count_roots(F(1, 0, 1)) == (0, 0)
    # (t-1)(t+1): two real, one nonpositive
    assert realpoly.count_roots(F(-1, 0, 1)) == (2, 1)
    # t^3: triple root at zero counts three times, all nonpositive
    assert realpoly.count_roots(F(0, 0, 0, 1)) == (3, 3)
    # constants have no roots
    assert realpoly.count_roots(F(7)) == (0, 0)
    with pytest.raises(ZeroPolynomialError):
        realpoly.count_roots(F(0, 0))


def test_count_roots_matches_constructed_roots():
    rng = Random(23)
    for _ in range(60):
        roots = []
        for _ in range(rng.randint(1, 5)):
            root = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            roots.extend([root] * rng.randint(1, 2))
        p = ref.poly_from_roots(roots)
        if rng.random() < 0.5:
            p = ref.mul(p, F(1, 0, 1))  # both complex roots off the real line
        total, nonpos = realpoly.count_roots(p)
        assert total == len(roots)
        assert nonpos == sum(1 for r in roots if r <= 0)


def test_poly_from_roots():
    assert ref.poly_from_roots([Fraction(2), Fraction(-1)]) == F(-2, -1, 1)


def test_integer_sturm_chain_is_a_positive_multiple_of_the_classical_one():
    assert realpoly.sturm_chain([-2, 0, 1]) == [[-2, 0, 1], [0, 1], [1]]  # t^2 - 2
    rng = Random(41)
    for _ in range(200):
        q = [rng.randint(-9, 9) for _ in range(rng.randint(2, 9))]
        q[-1] = q[-1] or rng.choice([-3, 5])
        if rng.random() < 0.3:  # a repeated factor, so the chain stops at gcd(q, q')
            for root in (rng.randint(-3, 3), 1, 1):
                q = [int(x) for x in ref.mul(q, [-root, 1])]
        chain, classical = realpoly.sturm_chain(q), ref.sturm_chain(q)
        assert len(chain) == len(classical)
        for term, want in zip(chain, classical):
            assert len(term) == len(want)
            ratio = Fraction(term[-1]) / want[-1]
            assert ratio > 0 and [ratio * x for x in want] == term


def _oracle_poly(rng, d_max):
    """A seeded rational polynomial of degree <= d_max, as a list that may
    carry zero top coefficients, with one of several root structures."""
    kind = rng.choice(["roots", "roots", "no-real", "random", "constant"])
    if kind == "constant":
        return [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))]
    if kind == "random":
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, d_max + 1))]
    p = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 3))]
    while ref.degree(p) < d_max - 1 and rng.random() < 0.85:
        if kind == "roots" and rng.random() < 0.6:  # a rational root of multiplicity 1..4
            root = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            factor, times = [-root, Fraction(1)], rng.randint(1, 4)
        else:  # t^2 + b*t + c with b^2 < 4c: no real roots
            b = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
            factor, times = [b * b / 4 + Fraction(rng.randint(1, 5), rng.randint(1, 3)), b, Fraction(1)], 1
        for _ in range(times):
            if ref.degree(p) + len(factor) - 1 <= d_max:
                p = ref.mul(p, factor)
    if rng.random() < 0.3:
        p = [Fraction(0)] * rng.randint(1, 3) + p  # roots at 0
    return p + [Fraction(0)] * rng.choice([0, 0, 1, 2])  # zero top coefficients


def test_count_roots_matches_the_oracle():
    rng = Random(2024)
    seen = set()
    for n in range(1200):
        p = _oracle_poly(rng, 24 if n % 10 == 0 else 10)
        if ref.is_zero(p):
            continue
        got = realpoly.count_roots(p)
        assert got == ref.count_roots(p), p
        seen.add((ref.degree(p), got))
    assert max(d for d, _ in seen) >= 20
    assert (0, (0, 0)) in seen
