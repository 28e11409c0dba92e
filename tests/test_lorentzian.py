"""Lorentzian-order verdicts, classification, certified TP approximation and
coordinate straightening."""

from fractions import Fraction
from random import Random

import pytest

from bilor import (
    ApproxStep,
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
from bilor import linalg, lorentzian, toeplitz

import oracles
from support import rand_positive_fraction, random_form, random_tn_form

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


@pytest.mark.parametrize("epsilon", [0, Fraction(-1, 2**10), -3])
def test_approximate_refuses_an_unreachable_epsilon(monkeypatch, epsilon):
    """A negative epsilon, or 0 for an input that is not strictly
    i-Lorentzian, can never be met: refused before any approximant."""
    built = []
    monkeypatch.setattr(lorentzian, "_certified_approximant", lambda *args: built.append(args))
    for form, i in ((monomial(10, 10), 3), (monomial(5, 5), 1), (NSL, 2)):
        assert not is_strictly_lorentzian(form, i).passed
        for steps in (None, 2):
            with pytest.raises(PreconditionError, match="epsilon"):
                approximate_tp(form, i, steps=steps, epsilon=epsilon)
    assert built == []


def test_approximate_refuses_more_steps_than_its_budget(monkeypatch):
    """At most `budget` approximants are built, so more steps can never be
    met: refused before the first substitution."""
    mixed = []
    monkeypatch.setattr(lorentzian, "symmetric_mix", lambda *args: mixed.append(args))
    for form, i in ((monomial(10, 10), 3), (monomial(5, 5), 1), (NSL, 2)):
        with pytest.raises(BudgetError, match="steps 65 exceeds the halving budget 64"):
            approximate_tp(form, i, steps=65)
        with pytest.raises(BudgetError, match="steps 4 exceeds the halving budget 3"):
            approximate_tp(form, i, steps=4, epsilon=Fraction(1, 8), budget=3)
        with pytest.raises(BudgetError, match="steps 8 exceeds the halving budget 7"):
            approximate_tp(form, i, budget=7)  # the default of 8 steps
    assert mixed == []
    good = BivariateForm(3, [26, 17, 11, 7])  # strict: returned as its own copies
    assert approximate_tp(good, 1, steps=100, budget=3) == [ApproxStep(good, (), None, Fraction(0))] * 100


def test_strict_input_meets_epsilon_zero():
    good = BivariateForm(3, [26, 17, 11, 7])
    assert approximate_tp(good, 1, epsilon=0) == [ApproxStep(good, (), None, Fraction(0))]
    assert len(approximate_tp(good, 1, steps=2, epsilon=Fraction(0))) == 2
    with pytest.raises(PreconditionError, match="epsilon"):
        approximate_tp(good, 1, epsilon=Fraction(-1, 7))


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


def _per_offset_strict_witness(form, i):
    """The direct per-offset loop: window determinants by size j+1, then by
    offset m ascending, each placed at row max(0, i-j-m) of the order-i
    window.  Kept as the reference for where a strict failure is reported."""
    d, c = form.degree, form.coeffs
    for j in range(i + 1):
        for m in range(d - 2 * j + 1):
            v = linalg.det([[c[m + j + q - p] for q in range(j + 1)] for p in range(j + 1)])
            if v <= 0:
                r = max(0, i - j - m)
                s = m + j - i + r
                return tuple(range(r, r + j + 1)), tuple(range(s, s + j + 1)), v
    return None


def test_strict_witness_placement_matches_the_per_offset_loop():
    """Several failing offsets at one size: the strict check reports the
    smallest offset, which is often not the lex-first corner the TP scan
    reports."""
    rng = Random(808)
    several = differs = 0
    for _ in range(150):
        d = rng.randint(2, 10)
        coeffs = [rand_positive_fraction(rng) for _ in range(d + 1)]
        for k in rng.sample(range(d + 1), rng.randint(0, 3)):
            coeffs[k] = -coeffs[k] if rng.random() < 0.7 else Fraction(0)
        f = BivariateForm(d, coeffs)
        for i in range(d // 2 + 1):
            got = is_strictly_lorentzian(f, i)
            want = _per_offset_strict_witness(f, i)
            assert got.passed == (want is None)
            if want is None:
                continue
            w = got.witness
            assert (w.rows, w.cols, w.value) == want, (f, i)
            size = len(w.rows)
            window = toeplitz.from_form(f, i)
            failing = [
                t for t in range(size - i - 1, d - i - size + 2)
                if oracles.minor(window.to_dense(), range(max(0, -t), max(0, -t) + size),
                                 range(max(0, t), max(0, t) + size)) <= 0
            ]
            several += len(failing) >= 2
            differs += toeplitz.is_totally_positive(window).witness != w
    assert several >= 100
    assert differs >= 50
