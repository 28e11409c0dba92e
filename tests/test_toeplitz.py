"""Coefficient windows and total positivity / nonnegativity verdicts."""

from fractions import Fraction
from math import comb
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
    MinorCapError,
    ShapeError,
    check_mixed_hrr_cone,
    from_monomial_coeffs,
    is_strictly_lorentzian,
    substitute,
)
from bilor import algebra, linalg, toeplitz

import oracles
from support import (
    cauchy_matrix,
    elementary_coeffs,
    rand_fraction,
    rand_nonneg_fraction,
    rand_positive_fraction,
    random_form,
    random_matrix,
    random_tn_form,
)


def consecutive_minors_nonnegative(matrix) -> bool:
    dense = matrix.to_dense() if hasattr(matrix, "to_dense") else matrix
    rows, cols = linalg.dims(dense)
    for k in range(1, min(rows, cols) + 1):
        for r in range(rows - k + 1):
            for c in range(cols - k + 1):
                idx_r = tuple(range(r, r + k))
                idx_c = tuple(range(c, c + k))
                if oracles.minor(dense, idx_r, idx_c) < 0:
                    return False
    return True


def test_window_shape_and_entries():
    f = from_monomial_coeffs([0, 1, 1, 1, 0])
    w1 = toeplitz.from_form(f, 1)
    assert (w1.rows, w1.cols) == (2, 4)
    assert w1.to_dense() == [
        [Fraction(1, 4), Fraction(1, 6), Fraction(1, 4), Fraction(0)],
        [Fraction(0), Fraction(1, 4), Fraction(1, 6), Fraction(1, 4)],
    ]
    w2 = toeplitz.from_form(f, 2)
    assert w2.to_dense() == [
        [Fraction(1, 6), Fraction(1, 4), Fraction(0)],
        [Fraction(1, 4), Fraction(1, 6), Fraction(1, 4)],
        [Fraction(0), Fraction(1, 4), Fraction(1, 6)],
    ]
    # entry (p, q) is coefficient i + q - p
    for p in range(3):
        for q in range(3):
            assert w2.entry(p, q) == f.coeffs[2 + q - p] if 0 <= 2 + q - p <= 4 else True


def test_window_diag_is_coefficients():
    f = from_monomial_coeffs([1, 0, 0, 1])
    w = toeplitz.from_form(f, 1)
    assert w.diag == f.coeffs
    assert toeplitz.to_form(w) == f


def test_from_form_order_bounds():
    f = from_monomial_coeffs([1, 0, 0, 1])
    with pytest.raises(DegreeError):
        toeplitz.from_form(f, 2)
    with pytest.raises(DegreeError):
        toeplitz.from_form(f, -1)


def test_from_dense_validates_diagonals():
    m = toeplitz.from_dense([[1, 2], [3, 1]])
    assert m.entry(0, 1) == 2
    with pytest.raises(ShapeError):
        toeplitz.from_dense([[1, 2], [3, 4]])
    with pytest.raises(ShapeError):
        toeplitz.from_dense([])


def test_rank():
    f = from_monomial_coeffs([1, 0, 0, 1])
    assert toeplitz.rank(toeplitz.from_form(f, 1)) == 2
    ones = toeplitz.from_dense([[1, 1, 1], [1, 1, 1]])
    assert toeplitz.rank(ones) == 1


def test_tp_on_cube_sum_window_fails_with_zero_entry_witness():
    f = from_monomial_coeffs([1, 0, 0, 1])
    w = toeplitz.from_form(f, 1)
    assert w.to_dense() == [[0, 0, 1], [1, 0, 0]]
    verdict = toeplitz.is_totally_positive(w)
    assert not verdict.passed
    assert verdict.witness.rows == (0,)
    assert verdict.witness.cols == (0,)
    assert verdict.witness.value == 0


def test_tp_passes_after_coordinate_change():
    from bilor import CoordChange, substitute

    f = from_monomial_coeffs([1, 0, 0, 1])
    g = substitute(f, CoordChange(-1, 2, -1, 3))
    assert g.coeffs == (26, 17, 11, 7)
    w = toeplitz.from_form(g, 1)
    assert toeplitz.is_totally_positive(w).passed
    assert toeplitz.is_totally_positive_full(w).passed


def test_cryer_counterexample_consecutive_vs_full():
    """Consecutive minors all nonnegative, yet a non-consecutive minor is -1:
    no Fekete-style shortcut exists for total nonnegativity."""
    m = toeplitz.from_dense([[1, 1, 1, 0], [1, 1, 1, 1], [0, 1, 1, 1]])
    assert consecutive_minors_nonnegative(m)
    verdict = toeplitz.is_totally_nonnegative(m)
    assert not verdict.passed
    assert verdict.witness.rows == (0, 1, 2)
    assert verdict.witness.cols == (0, 1, 3)
    assert verdict.witness.value == -1


def test_fekete_equals_full_tp_on_random_matrices():
    rng = Random(404)
    positives = 0
    for _ in range(120):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        if rng.random() < 0.5:
            m = cauchy_matrix(rng, rows, cols)
        else:
            m = random_matrix(rng, rows, cols, lo=0, hi=5, den=3)
        fast = toeplitz.is_totally_positive(m)
        slow = toeplitz.is_totally_positive_full(m)
        assert fast.passed == slow.passed
        positives += fast.passed
    assert positives > 20  # the Cauchy half keeps the passing branch exercised


def test_cauchy_matrices_are_totally_positive():
    rng = Random(11)
    for _ in range(20):
        m = cauchy_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert toeplitz.is_totally_positive(m).passed
        assert toeplitz.is_totally_nonnegative(m).passed


def test_tp_implies_tn_and_failure_witness_is_a_real_minor():
    rng = Random(77)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = random_matrix(rng, rows, cols, lo=-2, hi=5, den=3)
        tp = toeplitz.is_totally_positive_full(m)
        tn = toeplitz.is_totally_nonnegative(m)
        if tp.passed:
            assert tn.passed
        if not tn.passed:
            w = tn.witness
            assert oracles.minor(m, w.rows, w.cols) == w.value
            assert w.value < 0


def test_tn_on_window_of_tn_form():
    rng = Random(5)
    for _ in range(20):
        f = random_tn_form(rng, rng.randint(2, 7))
        for i in range(f.degree // 2 + 1):
            assert toeplitz.is_totally_nonnegative(toeplitz.from_form(f, i)).passed


def test_minor_cap_enforced():
    m = [[Fraction(1)] * 4 for _ in range(3)]
    with pytest.raises(MinorCapError):
        toeplitz.is_totally_nonnegative(m, cap=2)
    with pytest.raises(MinorCapError):
        toeplitz.is_totally_positive_full(m, cap=2)
    # explicit larger cap clears it
    assert toeplitz.is_totally_nonnegative(m, cap=3).passed
    # the default cap only bites past DEFAULT_MINOR_CAP
    assert toeplitz.DEFAULT_MINOR_CAP == 8


def test_parse_and_format_matrix():
    m = toeplitz.parse_matrix("1,1/2;0,1")
    assert m == [[1, Fraction(1, 2)], [0, 1]]
    text = toeplitz.format_matrix(m)
    assert toeplitz.parse_matrix(text) == m
    # format accepts ToeplitzMatrix values too
    w = toeplitz.from_dense([[1, 2], [3, 1]])
    assert toeplitz.parse_matrix(toeplitz.format_matrix(w)) == w.to_dense()
    with pytest.raises(FormatError):
        toeplitz.parse_matrix("1,2;3")
    with pytest.raises(FormatError):
        toeplitz.parse_matrix("")


@given(
    st.integers(2, 6).flatmap(
        lambda d: st.lists(
            st.fractions(min_value=0, max_value=9, max_denominator=4),
            min_size=d + 1,
            max_size=d + 1,
        )
    )
)
def test_window_round_trip_and_rank_monotone(coeffs):
    from bilor import BivariateForm

    d = len(coeffs) - 1
    f = BivariateForm(d, coeffs)
    ranks = []
    for i in range(d // 2 + 1):
        w = toeplitz.from_form(f, i)
        assert toeplitz.to_form(w) == f
        ranks.append(toeplitz.rank(w))
    if not f.is_zero:
        # window ranks follow the staircase min(i+1, s)
        s = ranks[-1]
        assert ranks == [min(i + 1, s) for i in range(d // 2 + 1)]


# -- the shared minor scanner --------------------------------------------------

def _power_form(a, b, d):
    """(aX + bY)^d: normalized coefficients a^k b^(d-k), rank-one windows."""
    return BivariateForm(d, [Fraction(a) ** k * Fraction(b) ** (d - k) for k in range(d + 1)])


def _scanner_forms(rng):
    """Forms of every kind the scans meet, degrees 1..10."""
    for _ in range(12):
        yield random_form(rng, rng.randint(1, 10))
        yield random_tn_form(rng, rng.randint(1, 10))
        yield _power_form(rand_positive_fraction(rng), rand_positive_fraction(rng), rng.randint(1, 10))
        d = rng.randint(2, 10)
        zeros = rng.randint(1, d - 1)
        yield BivariateForm(d, [0] * zeros + [rand_positive_fraction(rng) for _ in range(d + 1 - zeros)])
        coeffs = [rand_positive_fraction(rng) for _ in range(d + 1)]
        for k in rng.sample(range(d + 1), rng.randint(1, 2)):
            coeffs[k] = -coeffs[k]
        yield BivariateForm(d, coeffs)


def test_toeplitz_consecutive_scan_matches_the_ordered_dense_scan():
    """One determinant per (size, offset) must give the verdict and the
    lex-first witness that the scan over every contiguous corner gives."""
    rng = Random(2024)
    windows = passed = 0
    for f in _scanner_forms(rng):
        for i in range(f.degree // 2 + 1):
            w = toeplitz.from_form(f, i)
            fast, dense = toeplitz.is_totally_positive(w), toeplitz.is_totally_positive(w.to_dense())
            assert (fast.passed, fast.witness) == (dense.passed, dense.witness), (f, i)
            windows += 1
            passed += fast.passed
    assert windows >= 200
    assert passed >= 20


def test_toeplitz_rank_matches_the_dense_rank():
    rng = Random(77)
    windows = deficient = 0
    for f in _scanner_forms(rng):
        for i in range(f.degree // 2 + 1):
            w = toeplitz.from_form(f, i)
            r = toeplitz.rank(w)
            assert r == linalg.rank(w.to_dense()) == len(oracles.rref(w.to_dense())[1]), (f, i)
            windows += 1
            deficient += r < w.rows
    assert windows >= 200
    assert deficient >= 20


def test_rank_stays_off_rref_and_the_dense_window(monkeypatch):
    """The Hilbert function is read off integer windows: no Gauss-Jordan
    over Fractions and no dense copy of a Toeplitz window."""
    def refuse(*args):
        raise AssertionError("rank took the Fraction path")

    assert not hasattr(linalg, "rref")
    monkeypatch.setattr(toeplitz.ToeplitzMatrix, "to_dense", refuse)
    rng = Random(5)
    for d in (1, 4, 7, 12):
        for f in (random_form(rng, d), random_tn_form(rng, d), _power_form(2, 3, d)):
            algebra.profile(f)
            for i in range(d // 2 + 1):
                toeplitz.rank(toeplitz.from_form(f, i))
    assert toeplitz.rank([[1, 2, 0], [2, 4, 0]]) == linalg.rank([[1], [3]]) == 1


def _positive_form(rng, d):
    return BivariateForm(d, [rand_positive_fraction(rng) for _ in range(d + 1)])


def _tilted_form(rng, d):
    """Positive roots times one quadratic factor without real roots (d >= 2):
    positive coefficients whose windows fail total positivity late, if at all."""
    out = elementary_coeffs([rand_positive_fraction(rng, 5, 4) for _ in range(d - 2)])
    a = rand_positive_fraction(rng, 3, 2)
    quad = [a * a / 4 + rand_positive_fraction(rng, 2, 8), a, Fraction(1)]
    coeffs = [Fraction(0)] * (d + 1)
    for p, x in enumerate(out):
        for q, y in enumerate(quad):
            coeffs[p + q] += x * y
    return BivariateForm(d, coeffs)


def test_closed_cone_matches_full_enumeration():
    """The graded Fekete search must return the full enumeration's verdict and
    its first non-positive minor, with and without cone generators."""
    rng = Random(31)
    gapped = passed = 0
    for trial in range(160):
        d = rng.randint(2, 10)
        make = (random_form, random_tn_form, _tilted_form, _positive_form)[trial % 4]
        f = make(rng, d)
        gens = None
        if trial % 3 == 0:
            gens = (LinearForm(1, rng.randint(0, 2)), LinearForm(rng.randint(0, 2), 1))
            if gens[0].a * gens[1].b == gens[0].b * gens[1].a:
                gens = (LinearForm(1, 0), LinearForm(1, 1))
        g = f if gens is None else substitute(f, CoordChange.from_generators(*gens))
        for i in range(d // 2 + 1):
            cone = check_mixed_hrr_cone(f, i, "closed", generators=gens)
            if f.is_zero:
                continue
            full = toeplitz.is_totally_positive_full(toeplitz.from_form(g, i))
            assert cone.passed == full.passed, (f, i, gens)
            witness = None if cone.failure is None else cone.failure.minor
            assert witness == full.witness, (f, i, gens)
            passed += full.passed
            if witness is not None:
                consecutive = toeplitz.is_totally_positive(toeplitz.from_form(g, i)).witness
                gapped += witness != consecutive
    assert passed >= 100
    assert gapped >= 30  # witnesses off the contiguous scan exercise the graded search


def _count_int_det(monkeypatch) -> list:
    """Record the size of every `linalg.int_det` call the scans make."""
    calls = []
    real = linalg.int_det

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(linalg, "int_det", counting)
    return calls


def test_closed_cone_checks_the_cap_before_any_determinant(monkeypatch):
    calls = _count_int_det(monkeypatch)
    f = BivariateForm(18, [1] * 19)  # order 8: a 9 x 11 window
    with pytest.raises(MinorCapError):
        check_mixed_hrr_cone(f, 8, "closed")
    with pytest.raises(MinorCapError):
        check_mixed_hrr_cone(f, 2, "closed", cap=2)
    assert calls == []
    assert not check_mixed_hrr_cone(f, 2, "closed", cap=3).passed


@pytest.mark.parametrize("d", [2, 5, 8, 12])
def test_work_counts_of_passing_scans(monkeypatch, d):
    calls = _count_int_det(monkeypatch)
    f = BivariateForm(d, elementary_coeffs(range(1, d + 1)))  # every window is TP
    for i in range(d // 2 + 1):
        m, n = i + 1, d - i + 1
        per_offset = sum(m + n - 2 * k + 1 for k in range(1, m + 1))
        w = toeplitz.from_form(f, i)
        for run in (
            lambda: toeplitz.is_totally_positive(w),
            lambda: is_strictly_lorentzian(f, i),
            lambda: check_mixed_hrr_cone(f, i, "closed"),
        ):
            calls.clear()
            assert run().passed
            assert len(calls) == per_offset
        if comb(m + n, m) <= 5000:
            calls.clear()
            assert toeplitz.is_totally_nonnegative(w).passed
            assert len(calls) == comb(m + n, m) - 1


def test_work_count_of_a_failing_closed_cone_stays_within_full_enumeration(monkeypatch):
    calls = _count_int_det(monkeypatch)
    rng = Random(99)
    failures = 0
    for trial in range(120):
        d = rng.randint(2, 10)
        f = (_tilted_form, _positive_form, random_form)[trial % 3](rng, d)
        if f.is_zero:
            continue
        for i in range(d // 2 + 1):
            calls.clear()
            if not check_mixed_hrr_cone(f, i, "closed").passed:
                failures += 1
                assert len(calls) <= comb(d + 2, i + 1) - 1, (f, i)
    assert failures >= 200


# -- the rank-bounded TN scan ---------------------------------------------------


def _power_sum(rng, d, terms, positive=False):
    """Normalized coefficients c_k = sum_j w_j a_j^k b_j^(d-k) of a sum of
    `terms` weighted powers (a_j X + b_j Y)^d: every window has rank at most
    `terms`."""
    draw = rand_nonneg_fraction if positive else rand_fraction
    coeffs = [Fraction(0)] * (d + 1)
    for _ in range(terms):
        w, a, b = draw(rng), draw(rng), draw(rng)
        for k in range(d + 1):
            coeffs[k] += w * a**k * b ** (d - k)
    return BivariateForm(d, coeffs)


def _scan_forms(rng):
    """Random, TN and negative-coefficient forms, single powers, sums of two
    or three powers, and zero-led forms, at degrees 1-8."""
    for trial in range(240):
        d, kind = rng.randint(1, 8), trial % 6
        if kind == 0:
            yield random_form(rng, d)
        elif kind == 1:
            yield random_tn_form(rng, d)
        elif kind == 2:
            c = list(random_tn_form(rng, d).coeffs)
            c[rng.randrange(d + 1)] *= -1
            yield BivariateForm(d, c)
        elif kind == 3:
            yield _power_sum(rng, d, 1, positive=trial % 12 == 3)
        elif kind == 4:
            yield _power_sum(rng, d, rng.randint(2, 3), positive=trial % 12 == 4)
        else:
            z = rng.randint(1, d)
            tail = elementary_coeffs([rand_nonneg_fraction(rng, 5, 4) for _ in range(d - z)])
            if rng.random() < 0.3:
                tail[rng.randrange(d - z + 1)] = rand_fraction(rng)
            yield BivariateForm(d, [Fraction(0)] * z + tail)


def _scan_matrices(rng):
    """Every coefficient window of the `_scan_forms`; then Cryer's matrix,
    zero matrices, and dense products A B through an inner dimension r, of
    Cauchy (TN, rank r) or small signed factors."""
    for f in _scan_forms(rng):
        for i in range(f.degree // 2 + 1):
            yield toeplitz.from_form(f, i)
    cryer = [[1, 1, 1, 0], [1, 1, 1, 1], [0, 1, 1, 1]]
    yield cryer
    yield [list(col) for col in zip(*cryer)]
    for m, n in ((1, 1), (1, 4), (3, 2), (4, 4), (5, 5)):
        yield [[Fraction(0)] * n for _ in range(m)]
    for trial in range(160):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        r = rng.randint(1, min(m, n))
        if trial % 2:
            a, b = cauchy_matrix(rng, m, r), cauchy_matrix(rng, r, n)
        else:
            a, b = random_matrix(rng, m, r, -3, 3, 2), random_matrix(rng, r, n, -3, 3, 2)
        yield linalg.mat_mul(a, b)


def _shape(matrix):
    if isinstance(matrix, toeplitz.ToeplitzMatrix):
        return matrix.rows, matrix.cols
    return linalg.dims(matrix)


def test_rank_bounded_tn_scan_matches_full_enumeration():
    """Verdict and witness, down to `repr`, equal those of enumerating every
    minor, on windows and dense matrices of every rank."""
    kinds = {"full": 0, "deficient pass": 0, "deficient fail": 0}
    late_fails = 0  # rank-deficient, failing past size 1: sums of positive powers
    for matrix in _scan_matrices(Random(1729)):
        got, want = toeplitz.is_totally_nonnegative(matrix), oracles.tn_by_enumeration(matrix)
        assert repr(got) == repr(want), matrix
        if toeplitz.rank(matrix) == min(_shape(matrix)):
            kinds["full"] += 1
        elif got.passed:
            kinds["deficient pass"] += 1
        else:
            kinds["deficient fail"] += 1
            late_fails += len(got.witness.rows) > 1
    assert min(kinds.values()) >= 100 and late_fails >= 15, (kinds, late_fails)


def test_tn_scan_work_counts(monkeypatch):
    """A passing full-rank scan costs every minor, C(m+n, m) - 1 of them; a
    rank-deficient one at most its contiguous scan, which fails at some size
    k0, plus the minors of sizes k0..r."""
    calls = _count_int_det(monkeypatch)
    spent = full_cost = full_passes = deficient = 0
    for matrix in _scan_matrices(Random(1729)):
        (m, n), r = _shape(matrix), toeplitz.rank(matrix)
        calls.clear()
        verdict = toeplitz.is_totally_nonnegative(matrix)
        cost = len(calls)
        if r == min(m, n):
            if verdict.passed:
                assert cost == comb(m + n, m) - 1, matrix
                full_passes += 1
            continue
        calls.clear()
        k0 = len(toeplitz.consecutive_witness(matrix).rows)
        assert k0 <= r + 1
        assert cost <= len(calls) + sum(comb(m, k) * comb(n, k) for k in range(k0, r + 1)), matrix
        spent += cost
        full_cost += comb(m + n, m) - 1
        deficient += 1
    assert full_passes >= 100 and deficient >= 200
    assert 4 * spent < full_cost
