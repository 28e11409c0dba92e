"""Acceptance gate.

One test per contract criterion; each prints a single
``ACCEPTANCE <name>: PASS|FAIL`` line (run with ``pytest -s`` to watch them).
The worked-example corpus is exact with zero tolerance; the randomized
suites demand exact equality on every trial; the final test enforces the
time budgets (corpus under one second, oracle equivalences under a minute).
"""

import io
import json
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from random import Random

from bilor import (
    BivariateForm,
    CoordChange,
    LinearForm,
    approximate_tp,
    check_hrr,
    check_mixed_hrr_cone,
    check_sl,
    count_roots,
    derive,
    from_monomial_coeffs,
    is_lorentzian,
    is_normally_stable,
    is_stable,
    is_strictly_lorentzian,
    lgv_minor_oracle,
    path_matrix,
    profile,
    signature,
    substitute,
    verify_factorization,
)
from bilor import linalg, toeplitz
from bilor.cli import main
from bilor.hessians import evaluate_hessian, hessian_family

from oracles import signature_via_roots
from support import (
    cauchy_matrix,
    random_form,
    random_matrix,
    random_symmetric,
    random_tn_form,
    rooted_monomial_form,
    rooted_normalized_form,
)

SQ2 = from_monomial_coeffs([1, 0, 1])
C3 = from_monomial_coeffs([1, 0, 0, 1])
F4 = from_monomial_coeffs([0, 1, 1, 1, 0])
NSL = BivariateForm(4, [1, 4, 5, 2, 0])
TILDE = from_monomial_coeffs([1, 4, 5, 2, 0])
CRYER = [[1, 1, 1, 0], [1, 1, 1, 1], [0, 1, 1, 1]]

ELAPSED = {"corpus": 0.0, "oracle": 0.0, "theorem": 0.0, "cli": 0.0}


@contextmanager
def criterion(name: str, group: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        ELAPSED[group] += time.monotonic() - start
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    ELAPSED[group] += time.monotonic() - start
    print(f"ACCEPTANCE {name}: PASS")


def frac_rows(scale: Fraction, rows):
    return [[scale * x for x in row] for row in rows]


# --- 1. worked-example corpus (exact, zero tolerance) ---------------------


def test_corpus_lefschetz_without_hodge_riemann():
    with criterion("corpus-lefschetz-without-hodge-riemann", "corpus"):
        rng = Random(100)

        def nonzero_ell():
            while True:
                a, b = rng.randint(-9, 9), rng.randint(-9, 9)
                if a or b:
                    return LinearForm(a, b)

        for _ in range(5):
            assert check_sl(SQ2, 1, nonzero_ell()).passed
        ells = [
            LinearForm(1, 0),
            LinearForm(-1, 0),
            LinearForm(0, 1),
            LinearForm(0, -1),
        ]
        ells += [nonzero_ell() for _ in range(16)]
        assert len(ells) == 20
        for ell in ells:
            assert not check_hrr(SQ2, 1, ell).passed


def test_corpus_cubic_coordinate_change():
    with criterion("corpus-cubic-coordinate-change", "corpus"):
        window = toeplitz.from_form(C3, 1).to_dense()
        assert window == [[0, 0, 1], [1, 0, 0]]
        assert not toeplitz.is_totally_positive(window).passed

        sigma = CoordChange(-1, 2, -1, 3)
        assert sigma.matrix() == [[-1, -1], [2, 3]]
        image = substitute(C3, sigma)
        assert image.coeffs == (26, 17, 11, 7)
        assert toeplitz.is_totally_positive(toeplitz.from_form(image, 1)).passed
        assert is_strictly_lorentzian(image, 1).passed


def test_corpus_quartic_hessians_and_cones():
    with criterion("corpus-quartic-hessians-and-cones", "corpus"):
        hess = evaluate_hessian(hessian_family(F4, 2), 1, 1)
        assert hess == [[0, 6, 4], [6, 4, 6], [4, 6, 0]]
        assert linalg.det(hess) == 224  # positive, as the verdicts require

        assert check_hrr(F4, 1, LinearForm(1, 1)).passed
        fail = check_hrr(F4, 2, LinearForm(1, 1))
        assert not fail.passed and fail.failure.degree == 2

        twelfth = Fraction(1, 12)
        assert toeplitz.from_form(F4, 0).to_dense() == frac_rows(
            twelfth, [[0, 3, 2, 3, 0]]
        )
        assert toeplitz.from_form(F4, 1).to_dense() == frac_rows(
            twelfth, [[3, 2, 3, 0], [0, 3, 2, 3]]
        )
        assert toeplitz.from_form(F4, 2).to_dense() == frac_rows(
            twelfth, [[2, 3, 0], [3, 2, 3], [0, 3, 2]]
        )
        assert check_mixed_hrr_cone(F4, 0, "open").passed
        assert not check_mixed_hrr_cone(F4, 1, "open").passed
        assert not check_mixed_hrr_cone(F4, 2, "open").passed


def test_corpus_normalized_versus_monomial_quartic():
    with criterion("corpus-normalized-versus-monomial-quartic", "corpus"):
        tn = is_lorentzian(TILDE, 2)
        assert not tn.passed
        assert len(tn.witness.rows) == 3
        assert tn.witness.value == Fraction(-1, 216)

        assert is_lorentzian(NSL, 2).passed
        strict = is_strictly_lorentzian(NSL, 2)
        assert not strict.passed
        assert strict.witness.value == 0 and NSL.coeffs[4] == 0

        assert is_normally_stable(NSL).passed
        counts = count_roots([0, 2, 5, 4, 1])
        assert (counts.total_real, counts.nonpositive_real) == (4, 4)


def test_corpus_consecutive_versus_full_nonnegativity():
    with criterion("corpus-consecutive-versus-full-nonnegativity", "corpus"):
        rows, cols = 3, 4
        for k in range(1, 4):
            for r in range(rows - k + 1):
                for s in range(cols - k + 1):
                    sub = [row[s : s + k] for row in CRYER[r : r + k]]
                    assert linalg.det(sub) >= 0
        verdict = toeplitz.is_totally_nonnegative(CRYER)
        assert not verdict.passed
        assert verdict.witness.rows == (0, 1, 2)
        assert verdict.witness.cols == (0, 1, 3)
        assert verdict.witness.value == -1


# --- 2. oracle equivalences (>= 200 exact trials each) ---------------------


def test_oracle_consecutive_minor_criterion():
    with criterion("oracle-consecutive-minor-criterion", "oracle"):
        rng = Random(200)
        positives = 0
        for trial in range(200):
            m_rows = rng.randint(1, 5)
            n_cols = rng.randint(1, 7)
            kind = trial % 3
            if kind == 0:
                m = random_matrix(rng, m_rows, n_cols, -2, 6, 4)
            elif kind == 1:
                m = cauchy_matrix(rng, m_rows, n_cols)
            else:
                m = cauchy_matrix(rng, m_rows, n_cols)
                m[rng.randrange(m_rows)][rng.randrange(n_cols)] = Fraction(0)
            fast = toeplitz.is_totally_positive(m)
            slow = toeplitz.is_totally_positive_full(m)
            assert fast.passed == slow.passed
            positives += fast.passed
        assert positives >= 50


def test_oracle_path_system_enumeration():
    with criterion("oracle-path-system-enumeration", "oracle"):
        rng = Random(201)
        for _ in range(200):
            band = rng.randint(0, 3)
            pts = [
                (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
                for _ in range(band)
            ]
            n = rng.randint(1, 5)
            hi = band + n + 2
            rows = sorted(rng.sample(range(hi), n))
            cols = sorted(rng.sample(range(hi), n))
            window = path_matrix(band, pts, rows, cols)
            assert lgv_minor_oracle(band, pts, rows, cols) == linalg.det(window)


def test_oracle_band_factorization():
    with criterion("oracle-band-factorization", "oracle"):
        rng = Random(202)
        trials = 0
        while trials < 200:
            d = rng.randint(1, 8)
            f = random_form(rng, d)
            for i in range(d // 2 + 1):
                pts = [
                    (
                        Fraction(rng.randint(1, 4), rng.randint(1, 3)),
                        Fraction(rng.randint(1, 4), rng.randint(1, 3)),
                    )
                    for _ in range(d - 2 * i)
                ]
                assert verify_factorization(f, i, pts).passed
                trials += 1


def test_oracle_signature_versus_root_counts():
    with criterion("oracle-signature-versus-root-counts", "oracle"):
        rng = Random(203)
        for trial in range(200):
            n = rng.randint(1, 6)
            m = random_symmetric(rng, n)
            if n > 1 and trial % 3 == 0:  # force a rank drop
                for j in range(n):
                    m[n - 1][j] = 2 * m[0][j]
                    m[j][n - 1] = 2 * m[j][0]
                m[n - 1][n - 1] = 4 * m[0][0]
            assert signature(m) == signature_via_roots(m)


# --- 3. theorem-level properties (>= 100 exact trials each) ----------------


def _strict_instance(rng: Random):
    while True:
        d = rng.randint(2, 7)
        f = random_tn_form(rng, d)
        i = rng.randint(0, d // 2)
        if f.is_zero or not is_lorentzian(f, i).passed:
            continue
        g = approximate_tp(f, i, steps=1)[-1].form
        if not g.is_zero:
            return g, i


def test_theorem_strict_window_cone_equivalence():
    with criterion("theorem-strict-window-cone-equivalence", "theorem"):
        rng = Random(300)
        holds = 0
        for trial in range(110):
            if trial % 3 == 0:
                f, i = _strict_instance(rng)
            else:
                d = rng.randint(2, 7)
                f = random_form(rng, d)
                i = rng.randint(0, d // 2)
            strict = is_strictly_lorentzian(f, i).passed
            window_tp = toeplitz.is_totally_positive_full(
                toeplitz.from_form(f, i)
            ).passed
            closed = check_mixed_hrr_cone(f, i, "closed").passed
            assert strict == window_tp == closed
            holds += strict
        assert holds >= 30


def test_theorem_nonnegative_window_and_approximation():
    with criterion("theorem-nonnegative-window-and-approximation", "theorem"):
        rng = Random(301)
        eps = Fraction(1, 2**20)
        tn_hits = 0
        for trial in range(110):
            d = rng.randint(1, 8)
            f = random_tn_form(rng, d) if trial % 2 else random_form(rng, d)
            i = rng.randint(0, d // 2)
            # window rebuilt from raw coefficients, bypassing from_form
            c = f.coeffs
            dense = [[c[i + q - p] for q in range(d - i + 1)] for p in range(i + 1)]
            tn = toeplitz.is_totally_nonnegative(dense).passed
            assert tn == is_lorentzian(f, i).passed
            assert tn == check_mixed_hrr_cone(f, i, "open").passed
            if tn and not f.is_zero:
                tn_hits += 1
                last = approximate_tp(f, i, epsilon=eps)[-1]
                assert last.distance <= eps
                assert is_strictly_lorentzian(last.form, i).passed
        assert tn_hits >= 40


def test_theorem_normal_stability_gives_every_order():
    with criterion("theorem-normal-stability-gives-every-order", "theorem"):
        rng = Random(302)
        for _ in range(100):
            f = rooted_normalized_form(rng, rng.randint(1, 10))
            assert is_normally_stable(f).passed
            for i in range(f.degree // 2 + 1):
                assert is_lorentzian(f, i).passed


def test_theorem_stability_chain():
    with criterion("theorem-stability-chain", "theorem"):
        rng = Random(303)
        for _ in range(100):
            f = rooted_monomial_form(rng, rng.randint(2, 10))
            assert is_stable(f).passed
            assert is_lorentzian(f, 1).passed
        for _ in range(100):
            f = rooted_normalized_form(rng, rng.randint(1, 10))
            assert is_stable(f).passed


def test_theorem_lefschetz_derivatives_and_ranks():
    with criterion("theorem-lefschetz-derivatives-and-ranks", "theorem"):
        rng = Random(304)

        hrr_hits = 0
        for trial in range(110):
            if trial % 2:
                f, i = _strict_instance(rng)
                ell = LinearForm(
                    Fraction(rng.randint(1, 5)), Fraction(rng.randint(1, 5))
                )
            else:
                f = random_form(rng, rng.randint(2, 6))
                i = rng.randint(0, f.degree // 2)
                ell = LinearForm(rng.randint(-4, 4), rng.randint(-4, 4))
                if ell.a == 0 and ell.b == 0:
                    ell = LinearForm(1, 1)
            if f.is_zero:
                continue
            if check_hrr(f, i, ell).passed:
                hrr_hits += 1
                assert check_sl(f, i, ell).passed
        assert hrr_hits >= 25

        pairs = 0
        while pairs < 100:
            f = random_tn_form(rng, rng.randint(3, 9))
            for i in range((f.degree - 1) // 2 + 1):
                if not is_lorentzian(f, i).passed:
                    continue
                assert is_lorentzian(derive(f, [(1, 0, 1)]), i).passed
                assert is_lorentzian(derive(f, [(0, 1, 1)]), i).passed
                pairs += 1

        checked = 0
        while checked < 100:
            d = rng.randint(1, 8)
            pick = checked % 3
            if pick == 0:
                f = random_form(rng, d)
            elif pick == 1:
                f = rooted_normalized_form(rng, d)
            else:
                coeffs = [0] * (d + 1)
                coeffs[rng.randint(0, d)] = 1
                f = BivariateForm(d, coeffs)
            if f.is_zero:
                continue
            hilbert = profile(f).hilbert
            for i in range(d // 2 + 1):
                catalecticant = [
                    list(derive(f, [(a, i - a, 1)]).coeffs) for a in range(i + 1)
                ]
                h_independent = linalg.rank(catalecticant)
                assert toeplitz.rank(toeplitz.from_form(f, i)) == h_independent
                assert hilbert[i] == h_independent
                checked += 1


# --- 4. CLI determinism ----------------------------------------------------

CLI_CORPUS = [
    ["classify", "--form", "4: 1,4,5,2,0"],
    ["toeplitz", "--form", "monomial: 1,0,0,1", "--i", "1"],
    ["toeplitz", "--matrix", "1,1,1,0;1,1,1,1;0,1,1,1"],
    ["hessian", "--form", "monomial: 0,1,1,1,0", "-i", "2", "--at", "1,1"],
    ["hrr", "--form", "monomial: 0,1,1,1,0", "--ell", "1,1", "--up-to", "2"],
    ["mixed-hrr", "--form", "monomial: 0,1,1,1,0", "--cone", "open"],
    ["hilbert", "--form", "monomial: 0,1,1,1,0"],
    ["annihilator", "--form", "monomial: 1,0,0,1"],
    ["stable", "--form", "3: 1,1,1,1"],
    ["normally-stable", "--form", "4: 1,4,5,2,0"],
    ["approximate", "--form", "monomial: 0,0,0,0,0,1", "-i", "1", "--steps", "2"],
    ["straighten", "--form", "monomial: 0,1,1,1,0", "--ell", "1,1", "-i", "1"],
    ["verify-factorization", "--form", "monomial: 1,0,0,1", "-i", "1",
     "--points", "1,1"],
]


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_cli_determinism():
    with criterion("cli-determinism", "cli"):
        for argv in CLI_CORPUS:
            first = _run_cli(argv)
            second = _run_cli(argv)
            assert first == second, argv
            json.loads(first[1])


# --- time budgets (runs last in file order) --------------------------------


def test_time_budgets():
    with criterion("time-budgets", "cli"):
        assert ELAPSED["corpus"] < 1.0, ELAPSED
        assert ELAPSED["oracle"] < 60.0, ELAPSED
