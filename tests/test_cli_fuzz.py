"""Derandomized fuzzing of the command line's error surface.

Generated invocations attach their values with `=` and keep forms at degree 8
or less, so no coefficient window passes 5 x 5 (251 minors).  The commands
that enumerate minors also get single powers and zero-led forms, whose
windows are rank-deficient, and `toeplitz --matrix` gets rank-one and zero
matrices.  Some are then broken at parse time: one value moves after a space
with a leading `-` (so argparse reads it as a flag), an unknown flag is
inserted, or one argument is dropped, a required flag among them.  Each one
must end in exit 0, 1 or 2 with exactly one JSON line on stdout and nothing on
stderr, and no exception may escape `main`.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from bilor.cli import main

FUZZ = settings(derandomize=True, max_examples=120, deadline=None)

# text the parsers must refuse as a format error
JUNK = st.sampled_from(["", " ", "x", "1/0", "--1", "1,", "nan", "inf", "1e5000", "0x10"])
RATIONAL = st.one_of(
    st.integers(-6, 6).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 5)),
    st.sampled_from(["0", "-0", "1.5", "-2.25", "1e2"]),
)


@st.composite
def _or_junk(draw, valid):
    """Mostly a draw from `valid`, one time in twenty junk."""
    return draw(JUNK) if draw(st.integers(0, 19)) == 0 else draw(valid)


POINT = _or_junk(st.builds(lambda a, b: f"{a},{b}", RATIONAL, RATIONAL))


@st.composite
def low_rank_coeffs(draw, d):
    """Normalized coefficients of a single power (aX+bY)^d, a zero-led form,
    or any d + 1 rationals."""
    kind = draw(st.sampled_from(["power", "zero-led", "any"]))
    if kind == "power":
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        return [str(a**k * b ** (d - k)) for k in range(d + 1)]
    coeffs = draw(st.lists(RATIONAL, min_size=d + 1, max_size=d + 1))
    if kind == "zero-led":
        z = draw(st.integers(1, d + 1))
        coeffs[:z] = ["0"] * z
    return coeffs


@st.composite
def form_and_order(draw, coeffs_of_degree=None):
    """Form text of degree d <= 8, and an order near the valid range 0..d//2."""
    d = draw(st.integers(0, 8))
    if coeffs_of_degree is None:
        coeffs = draw(st.lists(RATIONAL, min_size=d + 1, max_size=d + 1))
    else:
        coeffs = draw(coeffs_of_degree(d))
    if draw(st.integers(0, 7)) == 0:
        coeffs[draw(st.integers(0, d))] = draw(JUNK)
    shapes = ["{d}: {c}", "c: {c}", "monomial: {c}", "{c}"] * 2 + ["{d}: {c},1"]
    text = draw(st.sampled_from(shapes)).format(d=d, c=",".join(coeffs))
    return d, text, draw(st.integers(-1, d // 2 + 1))


@st.composite
def _points(draw, count):
    """`;`-joined points, usually `count` of them."""
    n = count if count >= 0 and draw(st.integers(0, 3)) else draw(st.integers(0, 9))
    return ";".join(draw(st.lists(POINT, min_size=n, max_size=n)))


@st.composite
def hessian_argv(draw):
    d, form, i = draw(form_and_order())
    where = draw(st.sampled_from(["at", "points"] * 3 + ["both", "none"]))
    argv = ["hessian", f"--form={form}", f"--order={i}"]
    if where in ("at", "both"):
        argv.append(f"--at={draw(POINT)}")
    if where in ("points", "both"):
        argv.append(f"--points={draw(_points(d - 2 * i))}")
    return argv


@st.composite
def primitive_argv(draw):
    d, form, j = draw(form_and_order())
    ells = draw(_points(d - 2 * j))
    return ["primitive", f"--form={form}", f"--degree={j}", f"--ell0={draw(POINT)}", f"--ells={ells}"]


def quotient_argv(command):
    return st.builds(lambda f: [command, f"--form={f[1]}"], form_and_order())


@st.composite
def matrix_text(draw):
    """`;`-joined rows of a dense matrix up to 5 x 5: any rationals, a rank-one
    outer product of small integers, or the zero matrix."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["any", "rank-one", "zero"]))
    if kind == "any":
        rows = [draw(st.lists(_or_junk(RATIONAL), min_size=n, max_size=n)) for _ in range(m)]
    else:
        ints = st.integers(-3, 3) if kind == "rank-one" else st.just(0)
        u, v = draw(st.lists(ints, min_size=m, max_size=m)), draw(st.lists(ints, min_size=n, max_size=n))
        rows = [[str(a * b) for b in v] for a in u]
    return ";".join(",".join(row) for row in rows)


@st.composite
def toeplitz_argv(draw):
    if draw(st.booleans()):
        return ["toeplitz", f"--matrix={draw(matrix_text())}"]
    _, form, i = draw(form_and_order(low_rank_coeffs))
    return ["toeplitz", f"--form={form}", f"--order={i}"]


@st.composite
def window_argv(draw, command):
    """`pf`, `classify` or `mixed-hrr --cone=open` on a form that is often
    rank-deficient, with the order flag of each command."""
    d, form, i = draw(form_and_order(low_rank_coeffs))
    flag = {"pf": "--window", "classify": "--max-order", "mixed-hrr": "--up-to"}[command]
    argv = [command, f"--form={form}", f"{flag}={i}"]
    if command == "mixed-hrr":
        argv.append("--cone=open")
        if draw(st.integers(0, 3)) == 0:
            argv.append(f"--generators={draw(_points(2))}")
    return argv


@st.composite
def mangled(draw, argvs):
    """A draw from `argvs`, three times in eight broken at parse time."""
    argv = draw(argvs)
    how = draw(st.sampled_from(["keep"] * 5 + ["dash", "unknown", "drop"]))
    k = draw(st.integers(1, len(argv) - 1))
    if how == "dash":
        flag, _, value = argv[k].partition("=")
        argv[k : k + 1] = [flag, "-" + value]
    elif how == "unknown":
        argv.insert(k, "--no-such-flag")
    elif how == "drop":
        del argv[k]
    return argv


def _check(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    assert code in (0, 1, 2), argv
    assert text.endswith("\n") and text.count("\n") == 1, argv
    doc = json.loads(text)
    assert (code == 2) == ("error" in doc), argv
    assert err.getvalue() == "", argv


@FUZZ
@given(mangled(hessian_argv()))
def test_fuzz_hessian(argv):
    _check(argv)


@FUZZ
@given(mangled(primitive_argv()))
def test_fuzz_primitive(argv):
    _check(argv)


@FUZZ
@given(mangled(quotient_argv("annihilator")))
def test_fuzz_annihilator(argv):
    _check(argv)


@FUZZ
@given(mangled(quotient_argv("hilbert")))
def test_fuzz_hilbert(argv):
    _check(argv)


@FUZZ
@given(mangled(toeplitz_argv()))
def test_fuzz_toeplitz(argv):
    _check(argv)


@FUZZ
@given(mangled(window_argv("pf")))
def test_fuzz_pf(argv):
    _check(argv)


@FUZZ
@given(mangled(window_argv("classify")))
def test_fuzz_classify(argv):
    _check(argv)


@FUZZ
@given(mangled(window_argv("mixed-hrr")))
def test_fuzz_mixed_hrr_open_cone(argv):
    _check(argv)
