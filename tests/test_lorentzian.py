"""Lorentzian-order verdicts, classification, certified TP approximation and
coordinate straightening."""

from fractions import Fraction
from random import Random

import pytest

from bilor import (
    BivariateForm,
    BudgetError,
    LinearForm,
    PreconditionError,
    approximate_tp,
    check_hrr,
    check_mixed_hrr_cone,
    classify,
    from_monomial_coeffs,
    is_lorentzian,
    is_strictly_lorentzian,
    monomial,
    newton_ulc_check,
    straighten_from_hrr,
    substitute,
)
from bilor import toeplitz

from support import random_form, random_tn_form

NSL = BivariateForm(4, [1, 4, 5, 2, 0])
NSL_TILDE = from_monomial_coeffs([1, 4, 5, 2, 0])


def test_strict_frozen_verdicts():
    good = BivariateForm(3, [26, 17, 11, 7])
    assert is_strictly_lorentzian(good, 1).passed
    assert not is_strictly_lorentzian(from_monomial_coeffs([1, 0, 0, 1]), 1).passed
    v = is_strictly_lorentzian(NSL, 2)
    assert not v.passed
    assert v.witness.value == 0  # the vanishing top coefficient
    assert is_lorentzian(NSL, 2).passed


def test_tilde_form_fails_tn_at_order_two():
    v = is_lorentzian(NSL_TILDE, 2)
    assert not v.passed
    assert v.witness.rows == (0, 1, 2)
    assert v.witness.cols == (0, 1, 2)
    assert v.witness.value == Fraction(-1, 216)
    assert is_lorentzian(NSL_TILDE, 1).passed


def test_classify_frozen():
    r = classify(NSL)
    assert (r.order, r.order_strict) == (2, -1)
    assert len(r.per_order) == 3
    assert all(not strict.passed for strict, _ in r.per_order)
    assert [loose.passed for _, loose in r.per_order] == [True, True, True]
    rt = classify(NSL_TILDE)
    assert (rt.order, rt.order_strict) == (1, -1)
    assert [loose.passed for _, loose in rt.per_order] == [True, True, False]


def test_classify_strict_form():
    good = BivariateForm(3, [26, 17, 11, 7])
    r = classify(good)
    assert (r.order, r.order_strict) == (1, 1)
    assert r.per_order[0][0].passed and r.per_order[1][0].passed


def test_classify_respects_max_order():
    r = classify(NSL, max_order=1)
    assert len(r.per_order) == 2
    assert r.order == 1


def test_zero_form_is_lorentzian_never_strict():
    zero = BivariateForm(4, [0] * 5)
    assert is_lorentzian(zero, 2).passed
    assert not is_strictly_lorentzian(zero, 1).passed
    r = classify(zero)
    assert r.order == 2 and r.order_strict == -1


def test_newton_ulc():
    assert newton_ulc_check(NSL).passed
    assert newton_ulc_check(BivariateForm(2, [0, 0, 0])).passed
    gap = newton_ulc_check(BivariateForm(2, [1, 0, 1]))
    assert not gap.passed  # internal zero
    bump = newton_ulc_check(BivariateForm(2, [1, 1, 3]))
    assert not bump.passed  # fails log-concavity
    neg = newton_ulc_check(BivariateForm(1, [1, -1]))
    assert not neg.passed


def test_ulc_necessary_for_order_one():
    rng = Random(21)
    for _ in range(30):
        f = random_tn_form(rng, rng.randint(2, 6))
        if is_lorentzian(f, 1).passed:
            assert newton_ulc_check(f).passed


def test_approximate_first_step_frozen():
    steps = approximate_tp(monomial(5, 5), 1, steps=1)
    first = steps[0]
    assert first.rank_steps == ((Fraction(1, 2), Fraction(1, 32)),)
    assert first.final_mix == Fraction(1, 2)
    assert first.form.coeffs == (
        Fraction(31, 32),
        Fraction(79, 64),
        Fraction(199, 128),
        Fraction(499, 256),
        Fraction(1249, 512),
        Fraction(781, 256),
    )
    assert first.distance == Fraction(1249, 512)
    assert is_strictly_lorentzian(first.form, 1).passed


def test_approximate_reaches_tight_epsilon():
    eps = Fraction(1, 2**20)
    steps = approximate_tp(monomial(5, 5), 1, epsilon=eps)
    assert steps[-1].distance <= eps
    assert is_strictly_lorentzian(steps[-1].form, 1).passed
    assert steps[-1].rank_steps  # the rank really had to be raised


def test_approximate_raises_rank_all_the_way():
    steps = approximate_tp(monomial(5, 5), 2, epsilon=Fraction(1, 2**10))
    last = steps[-1]
    assert len(last.rank_steps) == 2  # rank 1 -> 2 -> 3
    assert is_strictly_lorentzian(last.form, 2).passed
    assert last.distance <= Fraction(1, 2**10)


def test_approximate_interior_corner_form():
    f = monomial(5, 2)  # X^2 Y^3
    steps = approximate_tp(f, 2, epsilon=Fraction(1, 2**12))
    assert steps[-1].distance <= Fraction(1, 2**12)
    assert is_strictly_lorentzian(steps[-1].form, 2).passed


def test_approximate_strict_input_short_circuits():
    good = BivariateForm(3, [26, 17, 11, 7])
    steps = approximate_tp(good, 1, steps=3)
    assert len(steps) == 3
    assert all(s.distance == 0 and s.form == good for s in steps)
    assert all(s.final_mix is None and s.rank_steps == () for s in steps)


def test_approximate_default_emits_eight_steps():
    steps = approximate_tp(NSL, 2)
    assert len(steps) == 8
    for s in steps:
        assert is_strictly_lorentzian(s.form, 2).passed
        assert s.final_mix is not None and 0 < s.final_mix <= Fraction(1, 2)


def test_approximate_distances_shrink_geometrically():
    steps = approximate_tp(NSL, 2, epsilon=Fraction(1, 100))
    assert steps[-1].distance <= Fraction(1, 100)
    assert steps[0].distance > steps[-1].distance


def test_approximate_preconditions():
    with pytest.raises(PreconditionError):
        approximate_tp(BivariateForm(2, [0, 0, 0]), 1)
    with pytest.raises(PreconditionError):
        approximate_tp(NSL_TILDE, 2)  # not 2-Lorentzian
    with pytest.raises(BudgetError):
        approximate_tp(monomial(5, 5), 1, epsilon=Fraction(1, 2**20), budget=6)


@pytest.mark.parametrize("steps", [0, -1])
def test_approximate_rejects_fewer_than_one_step(steps):
    # the strict input would otherwise return early with a repeated step
    for form in (BivariateForm(3, [26, 17, 11, 7]), monomial(5, 5)):
        with pytest.raises(PreconditionError):
            approximate_tp(form, 1, steps=steps)


def test_approximants_of_random_tn_forms_are_certified():
    rng = Random(303)
    done = 0
    for _ in range(12):
        f = random_tn_form(rng, rng.randint(2, 6))
        if f.is_zero:
            continue
        i = rng.randint(0, f.degree // 2)
        steps = approximate_tp(f, i, epsilon=Fraction(1, 2**10))
        assert steps[-1].distance <= Fraction(1, 2**10)
        for s in steps[-1:]:
            assert is_strictly_lorentzian(s.form, i).passed
        done += 1
    assert done >= 10


def test_strict_iff_full_tp_iff_closed_cone():
    rng = Random(606)
    for _ in range(30):
        f = random_form(rng, rng.randint(2, 6))
        if rng.random() < 0.5:
            f = random_tn_form(rng, rng.randint(2, 6))
        if f.is_zero:
            continue
        i = rng.randint(0, f.degree // 2)
        a = is_strictly_lorentzian(f, i).passed
        b = toeplitz.is_totally_positive_full(toeplitz.from_form(f, i)).passed
        c = check_mixed_hrr_cone(f, i, "closed").passed
        assert a == b == c


def test_tn_iff_open_cone():
    rng = Random(707)
    for _ in range(30):
        f = random_form(rng, rng.randint(2, 6))
        if rng.random() < 0.5:
            f = random_tn_form(rng, rng.randint(2, 6))
        i = rng.randint(0, f.degree // 2)
        a = is_lorentzian(f, i).passed
        b = check_mixed_hrr_cone(f, i, "open").passed
        assert a == b


def test_straighten_frozen():
    f = from_monomial_coeffs([0, 1, 1, 1, 0])
    sigma = straighten_from_hrr(f, LinearForm(1, 1), 1)
    assert (sigma.p, sigma.q, sigma.r, sigma.s) == (1, 1, 1, 2)
    image = substitute(f, sigma)
    assert image.coeffs == (14, Fraction(39, 4), Fraction(20, 3), Fraction(9, 2), 3)
    assert is_strictly_lorentzian(image, 1).passed


def test_straighten_identity_on_strict_input():
    good = BivariateForm(3, [26, 17, 11, 7])
    assert check_hrr(good, 1, LinearForm(1, 1)).passed
    sigma = straighten_from_hrr(good, LinearForm(1, 1), 1)
    assert (sigma.p, sigma.q, sigma.r, sigma.s) == (1, 0, 0, 1)


def test_straighten_requires_a_witness():
    f = from_monomial_coeffs([1, 0, 0, 1])
    with pytest.raises(PreconditionError):
        straighten_from_hrr(f, LinearForm(1, 1), 1)  # HRR_1 fails here
    with pytest.raises(PreconditionError):
        straighten_from_hrr(f, LinearForm(0, 0), 1)
    with pytest.raises(PreconditionError):
        straighten_from_hrr(monomial(4, 4), LinearForm(1, 1), 1)  # beyond sperner-1
    with pytest.raises(PreconditionError):
        straighten_from_hrr(BivariateForm(2, [0, 0, 0]), LinearForm(1, 1), 1)
