"""Forms: construction, parsing, substitution and the differentiation action."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bilor import (
    BivariateForm,
    CoordChange,
    DegreeError,
    FormatError,
    LinearForm,
    PreconditionError,
    ShapeError,
    derive,
    fmt_rat,
    format_form,
    from_monomial_coeffs,
    monomial,
    parse_form,
    parse_rational,
    substitute,
    symmetric_mix,
)

from oracles import derive_by_partials, substitute_by_convolution
from support import rand_fraction, random_form

fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=8)
small_forms = st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.lists(fractions_st, min_size=d + 1, max_size=d + 1).map(
        lambda cs: BivariateForm(d, cs)
    )
)


def test_normalized_vs_monomial_coefficients():
    f = from_monomial_coeffs([0, 1, 1, 1, 0])
    assert f.degree == 4
    assert f.coeffs == (0, Fraction(1, 4), Fraction(1, 6), Fraction(1, 4), 0)
    assert list(f.monomial_coeffs()) == [0, 1, 1, 1, 0]


def test_coefficient_count_must_match_degree():
    f = BivariateForm(2, [1, "1/2", Fraction(3, 4)])  # int and string input
    assert f.coeffs == (1, Fraction(1, 2), Fraction(3, 4))
    assert all(type(c) is Fraction for c in f.coeffs)
    with pytest.raises(ShapeError):
        BivariateForm(3, [1, 2, 3])
    with pytest.raises(DegreeError):
        BivariateForm(-1, [])


def test_monomial_and_evaluate():
    f = monomial(5, 2)  # X^2 Y^3
    assert f.evaluate(2, 3) == 4 * 27
    assert f.coeffs[2] == Fraction(1, 10)
    assert monomial(3, 0).evaluate(7, 2) == 8


def test_evaluate_matches_expansion():
    f = from_monomial_coeffs([1, 0, 0, 1])  # X^3 + Y^3
    assert f.evaluate(2, 3) == 8 + 27
    assert f.evaluate(Fraction(1, 2), 1) == Fraction(9, 8)


def test_arithmetic_on_forms():
    f = from_monomial_coeffs([1, 2, 1])
    g = from_monomial_coeffs([0, 1, 3])
    assert (f + g).monomial_coeffs() == (1, 3, 4)
    assert (f - g).monomial_coeffs() == (1, 1, -2)
    assert (3 * f).monomial_coeffs() == (3, 6, 3)
    assert (-f).monomial_coeffs() == (-1, -2, -1)
    with pytest.raises(DegreeError):
        f + from_monomial_coeffs([1, 1])


def test_parse_form_conventions():
    f, conv = parse_form("monomial: 0, 1, 1, 1, 0")
    assert conv == "monomial"
    assert f == from_monomial_coeffs([0, 1, 1, 1, 0])
    g, conv = parse_form("4: 1, 4, 5, 2, 0")
    assert conv == "normalized"
    assert g.coeffs == (1, 4, 5, 2, 0)
    h, conv = parse_form("c: 1, 4, 5, 2, 0")
    assert conv == "normalized"
    assert h == g
    k, conv = parse_form("1/2, -3, 7")
    assert conv == "normalized"
    assert k.coeffs == (Fraction(1, 2), -3, 7)


def test_parse_form_rejects_garbage():
    for bad in ("", "4: 1,2", "monomial:", "3: a,b,c,d", "x: 1,2"):
        with pytest.raises(FormatError):
            parse_form(bad)


def test_parse_rational_refuses_exponents_past_the_digit_limit():
    assert parse_rational(" 2.5e3 ") == 2500
    assert parse_rational("1e-3") == Fraction(1, 1000)
    assert len(str(parse_rational("1e4299"))) == 4300
    for bad in ("1e5000", "1E5000", "-1e-5000", "1e999999999", "1e" + "9" * 5000):
        with pytest.raises(FormatError):
            parse_rational(bad)


def test_values_past_the_digit_limit_do_not_print():
    with pytest.raises(FormatError):
        fmt_rat(Fraction(10) ** 5000)
    with pytest.raises(FormatError):
        fmt_rat(Fraction(1, 10**5000))


@given(small_forms)
def test_format_parse_round_trip(f):
    g, conv = parse_form(format_form(f))
    assert conv == "normalized"
    assert g == f
    h, conv = parse_form(format_form(f, monomial_style=True))
    assert conv == "monomial"
    assert h == f


def test_linear_form_and_point():
    ell = LinearForm(2, Fraction(1, 3))
    assert ell.point() == (2, Fraction(1, 3))
    assert not ell.is_zero
    assert LinearForm(0, 0).is_zero


def test_substitute_identity_and_composition():
    rng = Random(7)
    ident = CoordChange.identity()
    for d in (1, 2, 4, 5):
        f = random_form(rng, d)
        assert substitute(f, ident) == f
        a = CoordChange(1, 2, 0, 1)
        b = CoordChange(3, -1, 1, 1)
        lhs = substitute(substitute(f, a), b)
        rhs = substitute(f, a.compose(b))
        assert lhs == rhs


@given(small_forms, st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_substitution_is_evaluation(f, p, q, r, s):
    """(sigma . F)(x, y) must equal F(p x + r y, q x + s y) pointwise."""
    sigma = CoordChange(p, q, r, s)
    g = substitute(f, sigma)
    for x, y in ((1, 1), (2, -1), (Fraction(1, 2), 3)):
        assert g.evaluate(x, y) == f.evaluate(p * x + r * y, q * x + s * y)


def test_from_generators_sends_coordinate_points_to_the_generators():
    ell1 = LinearForm(-1, -1)
    ell2 = LinearForm(2, 3)
    sigma = CoordChange.from_generators(ell1, ell2)
    assert (sigma.p, sigma.q) == ell1.point()
    assert (sigma.r, sigma.s) == ell2.point()
    f = from_monomial_coeffs([1, 0, 2, 1])
    g = substitute(f, sigma)
    assert g.evaluate(1, 0) == f.evaluate(*ell1.point())
    assert g.evaluate(0, 1) == f.evaluate(*ell2.point())
    assert sigma.det() == -1 * 3 - (-1) * 2
    with pytest.raises(PreconditionError):
        CoordChange.from_generators(LinearForm(1, 2), LinearForm(2, 4))


def test_symmetric_mix_is_the_expected_substitution():
    f = from_monomial_coeffs([1, 0, 0, 1])
    t = Fraction(1, 2)
    assert symmetric_mix(f, t) == substitute(f, CoordChange(1, t, t, 1))


def test_derive_basic_partials():
    f = from_monomial_coeffs([1, 0, 0, 1])  # X^3 + Y^3
    fx = derive(f, [(1, 0, 1)])
    fy = derive(f, [(0, 1, 1)])
    assert fx.monomial_coeffs() == (0, 0, 3)  # 3 X^2
    assert fy.monomial_coeffs() == (3, 0, 0)  # 3 Y^2
    top = derive(f, [(3, 0, 1)])
    assert top.degree == 0 and top.coeffs == (6,)


def test_derive_on_normalized_coordinates():
    """d/dX shifts normalized coefficients: c'_k = d * c_{k+1}."""
    rng = Random(11)
    for d in (2, 3, 5):
        f = random_form(rng, d)
        fx = derive(f, [(1, 0, 1)])
        assert fx.coeffs == tuple(d * c for c in f.coeffs[1:])
        fy = derive(f, [(0, 1, 1)])
        assert fy.coeffs == tuple(d * c for c in f.coeffs[:-1])


def test_derive_rejects_bad_term_data():
    f = from_monomial_coeffs([1, 2, 1])
    with pytest.raises(PreconditionError):
        derive(f, [])
    with pytest.raises(DegreeError):
        derive(f, [(2, 1, 1)])
    with pytest.raises(DegreeError):
        derive(f, [(1, 0, 1), (0, 2, 1)])  # mixed degrees


def test_derive_matches_repeated_partials():
    rng = Random(7)
    for n in range(120):
        d = n % 13
        f = random_form(rng, d)
        for j in range(d + 1):
            for k in range(d + 1 - j):
                coef = rand_fraction(rng)
                assert derive(f, [(j, k, coef)]) == derive_by_partials(f, [(j, k, coef)])
        e = rng.randint(0, d)
        terms = [(j, e - j, rng.choice([0, rand_fraction(rng)])) for j in range(e + 1)]
        terms += [(e, 0, 0), (0, e, rand_fraction(rng))]  # a zero term and a repeated one
        rng.shuffle(terms)
        got = derive(f, terms)
        assert got == derive_by_partials(f, terms)
        assert all(type(c) is Fraction for c in got.coeffs)


@given(small_forms, st.integers(0, 2), st.integers(0, 2))
def test_derive_commutes(f, a, b):
    if a + b > f.degree or a + b == 0:
        return
    one_shot = derive(f, [(a, b, 1)])
    stepwise = f
    for _ in range(a):
        stepwise = derive(stepwise, [(1, 0, 1)])
    for _ in range(b):
        stepwise = derive(stepwise, [(0, 1, 1)])
    assert one_shot == stepwise


def test_str_mentions_degree_and_coefficients():
    f = BivariateForm(2, [1, Fraction(1, 2), 0])
    text = str(f)
    assert "2" in text and "1/2" in text


def _oracle_form(rng, d):
    kind = rng.choice(["random", "zero", "power", "leading-zero", "monomial"])
    if kind == "zero":
        return BivariateForm(d, [0] * (d + 1))
    if kind == "power":  # (a*X + b*Y)^d has normalized coefficients a^k b^(d-k)
        a, b = rand_fraction(rng), rand_fraction(rng)
        return BivariateForm(d, [a**k * b ** (d - k) for k in range(d + 1)])
    if kind == "monomial":
        return monomial(d, rng.randint(0, d))
    f = random_form(rng, d)
    if kind == "random":
        return f
    lead = rng.randint(1, d + 1)
    return BivariateForm(d, [0] * lead + list(f.coeffs[lead:]))


def _oracle_change(rng):
    kind = rng.choice(["rational", "integer", "singular", "sparse"])
    if kind == "integer":
        return CoordChange(*(rng.randint(-5, 5) for _ in range(4)))
    if kind == "singular":  # rows proportional: det 0
        a, b, u, v = (rand_fraction(rng) for _ in range(4))
        return CoordChange(p=a * u, q=b * u, r=a * v, s=b * v)
    entries = [rand_fraction(rng) for _ in range(4)]
    if kind == "sparse":
        for k in rng.sample(range(4), rng.randint(1, 3)):
            entries[k] = Fraction(0)
    return CoordChange(*entries)


def test_substitute_matches_the_convolution_oracle():
    rng = Random(2024)
    for n in range(1050):
        d = n % 25 if n < 250 else n % 13  # every degree to 24, most cases d <= 12
        f, sigma = _oracle_form(rng, d), _oracle_change(rng)
        assert substitute(f, sigma) == substitute_by_convolution(f, sigma), (f, sigma)
    assert substitute(BivariateForm(0, [0]), CoordChange(0, 0, 0, 0)) == BivariateForm(0, [0])


def test_symmetric_mix_matches_the_oracle_at_halving_parameters():
    rng = Random(2025)
    for n in range(260):
        f = _oracle_form(rng, n % 13)
        t = rng.choice([1, -1]) * Fraction(1, 2 ** rng.randint(0, 20))
        assert symmetric_mix(f, t) == substitute_by_convolution(f, CoordChange(1, t, t, 1))
