"""Quotient-algebra views: Hilbert functions, annihilators, primitive spaces,
Lefschetz and Hodge-Riemann checks."""

from fractions import Fraction
from random import Random

import pytest

from bilor import (
    DegreeError,
    LinearForm,
    PreconditionError,
    ShapeError,
    XYPoly,
    ZeroFormError,
    annihilator_generators,
    check_hrr,
    check_mixed_hrr_at,
    check_mixed_hrr_cone,
    check_sl,
    derive,
    from_monomial_coeffs,
    mixture_weights,
    monomial,
    primitive_subspace,
    profile,
    quotient_by_colon,
)
from bilor import BivariateForm

import oracles
from support import random_form, random_tn_form

F4 = from_monomial_coeffs([0, 1, 1, 1, 0])  # X^3 Y + X^2 Y^2 + X Y^3
C3 = from_monomial_coeffs([1, 0, 0, 1])  # X^3 + Y^3
SQ2 = from_monomial_coeffs([1, 0, 1])  # X^2 + Y^2


def test_profile_frozen_examples():
    p = profile(F4)
    assert p.hilbert == (1, 2, 3, 2, 1)
    assert p.sperner == 3
    assert p.socle_degree == 4
    assert profile(C3).hilbert == (1, 2, 2, 1)
    assert profile(C3).sperner == 2
    assert profile(SQ2).hilbert == (1, 2, 1)
    assert profile(monomial(6, 6)).hilbert == (1, 1, 1, 1, 1, 1, 1)


def test_profile_rejects_zero_form():
    with pytest.raises(ZeroFormError):
        profile(BivariateForm(3, [0, 0, 0, 0]))


def test_hilbert_sum_is_complete_intersection_dimension():
    """dim A = s * (d + 2 - s): the annihilator is generated in degrees s and
    d + 2 - s, so the quotient is a complete intersection."""
    rng = Random(63)
    for _ in range(40):
        f = random_form(rng, rng.randint(1, 8))
        if f.is_zero:
            continue
        p = profile(f)
        assert sum(p.hilbert) == p.sperner * (f.degree + 2 - p.sperner)


def test_annihilator_generators_frozen():
    f1, f2 = annihilator_generators(C3)
    assert (f1.degree, f1.coeffs) == (2, (0, 1, 0))
    assert f1.text() == "x*y"
    assert (f2.degree, f2.coeffs) == (3, (-1, 0, 0, 1))
    assert f2.text() == "x^3 - y^3"
    g1, g2 = annihilator_generators(SQ2)
    assert g1.text() == "x*y"
    assert g2.text() == "x^2 - y^2"
    h = XYPoly(2, [1, "-1/2", Fraction(2, 3)])  # int and string input
    assert h.coeffs == (1, Fraction(-1, 2), Fraction(2, 3))
    assert all(type(c) is Fraction for c in h.coeffs + f1.coeffs + f2.coeffs)


def test_annihilator_generators_annihilate():
    rng = Random(17)
    for _ in range(30):
        f = random_form(rng, rng.randint(1, 7))
        if f.is_zero:
            continue
        s = profile(f).sperner
        f1, f2 = annihilator_generators(f)
        assert f1.degree == s
        assert f2.degree == f.degree + 2 - s
        assert derive(f, f1.terms()).is_zero
        if f2.degree <= f.degree:
            assert derive(f, f2.terms()).is_zero


def test_annihilator_of_power_of_linear_form():
    f = monomial(5, 5)  # X^5: annihilated by y, and by x^6 in degree d+1
    f1, f2 = annihilator_generators(f)
    assert f1.degree == 1 and f1.coeffs == (1, 0)  # the operator y
    assert f2.degree == 6


def test_primitive_subspace_frozen_cube_sum():
    basis = primitive_subspace(C3, 1, LinearForm(1, 1), [LinearForm(1, 2)])
    assert basis.degree == 1
    assert basis.expected_dim == 1
    assert basis.matches
    assert basis.vectors == ((Fraction(-1, 2), Fraction(1)),)


def test_primitive_subspace_frozen_f4():
    basis = primitive_subspace(
        F4, 1, LinearForm(1, 1), [LinearForm(1, 2), LinearForm(3, 1)]
    )
    assert basis.vectors == ((Fraction(-27, 28), Fraction(1)),)
    assert basis.matches


def test_primitive_subspace_degree_zero():
    basis = primitive_subspace(C3, 0, LinearForm(1, 1), [LinearForm(1, 1)] * 3)
    assert basis.vectors == ((Fraction(1),),)


def test_primitive_vectors_annihilate_through_the_product():
    rng = Random(97)
    checked = 0
    for _ in range(30):
        f = random_tn_form(rng, rng.randint(2, 6))
        prof = profile(f)
        d, s = f.degree, prof.sperner
        j = rng.randint(0, min(d // 2, s - 1))
        if j == 0:
            continue
        ell0 = LinearForm(1, rng.randint(1, 4))
        ells = [LinearForm(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(d - 2 * j)]
        basis = primitive_subspace(f, j, ell0, ells)
        g = mixture_weights([ell0.point(), *(l.point() for l in ells)])
        for v in basis.vectors:
            gv = oracles.mul(g, list(v))
            e = d - j + 1
            assert derive(f, [(p, e - p, c) for p, c in enumerate(gv)]).is_zero
        checked += 1
    assert checked >= 10


def test_primitive_subspace_validation():
    with pytest.raises(ShapeError):
        primitive_subspace(C3, 1, LinearForm(1, 1), [])
    with pytest.raises(DegreeError):
        primitive_subspace(C3, 2, LinearForm(1, 1), [])
    with pytest.raises(PreconditionError):
        primitive_subspace(C3, 1, LinearForm(0, 0), [LinearForm(1, 1)])
    # degree above sperner-1 is not a meaningful primitive space
    with pytest.raises(DegreeError):
        primitive_subspace(monomial(4, 4), 1, LinearForm(1, 1), [LinearForm(1, 1), LinearForm(1, 1)])


def test_sl_and_hrr_frozen_verdicts():
    ell = LinearForm(1, 1)
    assert check_sl(F4, 2, ell).passed
    assert check_hrr(F4, 1, ell).passed
    v = check_hrr(F4, 2, ell)
    assert not v.passed
    assert v.failure.degree == 2
    assert v.failure.value == -224
    # X^3 + Y^3: Lefschetz holds at (1,1) but the degree-1 reversal is negative
    assert check_sl(C3, 1, ell).passed
    w = check_hrr(C3, 1, ell)
    assert not w.passed and w.failure.degree == 1 and w.failure.value == -36
    # coordinate form: multiplication by ell^1 is singular on degree 1
    bad = check_sl(C3, 1, LinearForm(1, 0))
    assert not bad.passed and bad.failure.value == 0


def test_sl_hrr_on_square_sum_for_any_ell():
    rng = Random(2)
    for _ in range(10):
        ell = LinearForm(rng.randint(-5, 5), rng.randint(-5, 5))
        if ell.is_zero:
            continue
        assert check_sl(SQ2, 1, ell).passed
        v = check_hrr(SQ2, 1, ell)
        assert not v.passed
        assert v.failure.degree == 1 and v.failure.value == -4


def test_hrr_implies_sl_on_random_instances():
    rng = Random(55)
    hits = 0
    for _ in range(60):
        f = random_tn_form(rng, rng.randint(2, 6))
        if f.is_zero:
            continue
        i = rng.randint(0, f.degree // 2)
        ell = LinearForm(rng.randint(1, 5), rng.randint(1, 5))
        if check_hrr(f, i, ell).passed:
            assert check_sl(f, i, ell).passed
            hits += 1
    assert hits >= 20


def test_checks_reject_zero_form_and_zero_ell():
    zero = BivariateForm(2, [0, 0, 0])
    assert not check_sl(zero, 1, LinearForm(1, 1)).passed
    assert not check_hrr(zero, 1, LinearForm(1, 1)).passed
    with pytest.raises(PreconditionError):
        check_sl(C3, 1, LinearForm(0, 0))


def test_degrees_beyond_sperner_are_vacuous():
    v = check_hrr(monomial(4, 4), 2, LinearForm(1, 1))
    assert v.passed and v.up_to == 2
    assert check_sl(monomial(4, 4), 2, LinearForm(1, 1)).passed


def test_mixed_hrr_at_points():
    assert check_mixed_hrr_at(F4, 1, {1: [(1, 1), (1, 1)]}).passed
    assert check_mixed_hrr_at(F4, 1, {1: [(1, 2), (3, 1)]}).passed
    v = check_mixed_hrr_at(C3, 1, {1: [(1, 1)]})
    assert not v.passed and v.failure.value == -36
    assert v.failure.points == ((1, 1),)
    with pytest.raises(ShapeError):
        check_mixed_hrr_at(F4, 1, {1: [(1, 1)]})
    # degrees above sperner-1 are skipped, not errors
    assert check_mixed_hrr_at(monomial(4, 4), 2, {2: []}).passed


def test_mixed_hrr_cone_frozen():
    assert check_mixed_hrr_cone(F4, 0, "open").passed
    v = check_mixed_hrr_cone(F4, 1, "open")
    assert not v.passed
    assert v.failure.minor.rows == (0, 1)
    assert v.failure.minor.cols == (1, 2)
    assert v.failure.minor.value == Fraction(-5, 144)
    assert not check_mixed_hrr_cone(F4, 2, "open").passed
    # the closed cone needs strict positivity, which the zero entries deny
    assert not check_mixed_hrr_cone(F4, 0, "closed").passed


def test_mixed_hrr_cone_with_generators():
    g = BivariateForm(4, [14, Fraction(39, 4), Fraction(20, 3), Fraction(9, 2), 3])
    assert check_mixed_hrr_cone(g, 1, "closed").passed
    assert check_mixed_hrr_cone(g, 1, "closed", generators=(LinearForm(1, 0), LinearForm(1, 1))).passed


def test_mixed_hrr_cone_zero_form():
    zero = BivariateForm(2, [0, 0, 0])
    assert check_mixed_hrr_cone(zero, 1, "open").passed
    assert not check_mixed_hrr_cone(zero, 1, "closed").passed


def test_quotient_by_colon():
    q = quotient_by_colon(F4, LinearForm(1, 1))
    assert q.monomial_coeffs() == (1, 5, 5, 1)
    assert q.degree == 3
    with pytest.raises(PreconditionError):
        quotient_by_colon(F4, LinearForm(0, 0))
    with pytest.raises(PreconditionError):
        quotient_by_colon(monomial(2, 2), LinearForm(0, 1))
    with pytest.raises(PreconditionError):
        quotient_by_colon(monomial(0, 0), LinearForm(1, 1))
