"""One Hankel builder for every Hessian and catalecticant, checked against the
constructions it replaced (base-matrix sums, one `derive` call per column,
operator products and Gauss-Jordan reduction) in `oracles`."""

from fractions import Fraction
from random import Random

import pytest

from bilor import (
    BivariateForm,
    LinearForm,
    annihilator_generators,
    catalecticant,
    evaluate_hessian,
    evaluate_mixed_hessian,
    hessian_family,
    primitive_subspace,
    profile,
)
from bilor import algebra

import oracles
from support import rand_fraction, random_form, random_tn_form


def test_catalecticant_is_the_hankel_matrix_of_one_correlation():
    c = [Fraction(k) for k in (1, 2, 3, 4, 5)]
    assert catalecticant(c, [1], 2, 3) == [[1, 2, 3], [2, 3, 4]]
    # h_k = 2 c_k + 3 c_(k+2), with the zero weight skipped
    assert catalecticant(c, [2, 0, 3], 2, 2) == [[11, 16], [16, 21]]
    assert catalecticant(c, [0, 0, 1], 1, 3) == [[3, 4, 5]]
    assert catalecticant(c, [0], 2, 2) == [[0, 0], [0, 0]]
    assert all(isinstance(x, Fraction) for row in catalecticant(c, [1, 1], 2, 2) for x in row)


def _point(rng, allow_zero=True):
    """A pair (a, b), a = 0 about one time in five; (0, 0) only if allowed."""
    while True:
        a = Fraction(0) if rng.random() < 0.2 else rand_fraction(rng, -4, 4, 3)
        b = rand_fraction(rng, -4, 4, 3)
        if allow_zero or a or b:
            return a, b


def _linear(rng):
    return LinearForm(*_point(rng, allow_zero=False))


def _forms():
    """About 200 seeded forms of degree 0 to 12: generic, TN, sparse, and
    powers of a linear form (Sperner number 1, so the second generator's
    kernel takes the e > d branch)."""
    rng = Random(20261018)
    out = []
    for k in range(208):
        d = k % 13
        kind = k // 13 % 4
        if kind == 0 or kind == 1 and d == 0:
            f = random_form(rng, d)
        elif kind == 1:
            f = random_tn_form(rng, d)
        elif kind == 2:
            c = [rand_fraction(rng) if rng.random() < 0.3 else 0 for _ in range(d + 1)]
            f = BivariateForm(d, c)
        else:
            a, b = (0 if rng.random() < 0.2 else rand_fraction(rng, -3, 3, 2) for _ in "ab")
            f = BivariateForm(d, [a**m * b ** (d - m) for m in range(d + 1)])
        out.append(f)
    return out


FORMS = _forms()


def _outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except Exception as exc:  # the oracle must fail the same way
        return "error", type(exc).__name__, str(exc)


def test_hessians_match_the_base_matrix_sum():
    rng = Random(1)
    for f in FORMS:
        d = f.degree
        for i in range(d // 2 + 1):  # i = 0 and i = d//2 included
            fam = hessian_family(f, i)
            a, b = _point(rng)
            assert repr(evaluate_hessian(fam, a, b)) == repr(
                oracles.hessian_by_base_sum(f, i, a, b)
            )
            pts = [_point(rng) for _ in range(d - 2 * i)]
            assert repr(evaluate_mixed_hessian(fam, pts)) == repr(
                oracles.mixed_hessian_by_base_sum(f, i, pts)
            )


def test_catalecticant_kernels_match_derive_per_column():
    for f in FORMS:
        for e in range(f.degree + 3):
            assert repr(algebra._catalecticant_kernel(f, e)) == repr(
                oracles.catalecticant_kernel_by_derive(f, e)
            )


def test_annihilator_generators_match_derive_per_column(monkeypatch):
    checked = 0
    for f in FORMS:
        new = _outcome(annihilator_generators, f)
        with monkeypatch.context() as m:
            m.setattr(algebra, "_catalecticant_kernel", oracles.catalecticant_kernel_by_derive)
            old = _outcome(annihilator_generators, f)
        assert new == old
        checked += new[0] == "ok"
    assert checked >= 190


def test_annihilator_generators_match_the_rref_reduction():
    """Gauss-Jordan kernels and the second generator reduced modulo the RREF
    of the shifts of f1 give the same pair, down to `repr`."""
    checked = shifted = 0
    for f in FORMS:
        new = _outcome(annihilator_generators, f)
        assert new == _outcome(oracles.annihilator_generators_by_rref, f)
        if new[0] == "ok":
            checked += 1
            shifted += annihilator_generators(f)[0].coeffs[0] == 0  # f1 has lo > 0
    assert checked >= 190 and shifted >= 20


def test_primitive_bases_match_the_operator_product():
    rng = Random(2)
    seen_top = seen_trim = 0
    for f in FORMS:
        if f.is_zero:
            continue
        d, s = f.degree, profile(f).sperner
        for j in range(min(d // 2, s - 1) + 1):
            ell0 = _linear(rng)
            ells = [_linear(rng) for _ in range(d - 2 * j)]
            basis = primitive_subspace(f, j, ell0, ells)
            assert repr(basis.vectors) == repr(
                oracles.primitive_vectors_by_operator_product(f, j, ell0, ells)
            )
            seen_top += j == d // 2
            seen_trim += j > 0 and any(l.a == 0 for l in (ell0, *ells))
    assert seen_top >= 50 and seen_trim >= 20


@pytest.mark.parametrize("ell0", [LinearForm(0, 1), LinearForm(0, -3)])
def test_primitive_basis_when_the_operator_product_loses_its_top_coefficient(ell0):
    f = BivariateForm(4, [1, 2, Fraction(1, 2), 3, 5])
    ells = [LinearForm(1, 1), LinearForm(0, 2)]
    basis = primitive_subspace(f, 1, ell0, ells)
    assert basis.vectors == oracles.primitive_vectors_by_operator_product(f, 1, ell0, ells)
    assert basis.matches
