"""Derandomized fuzzing of the command line's error surface.

Generated invocations attach their values with `=` and keep forms at degree 8
or less.  Some are then broken at parse time: one value moves after a space
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
def form_and_order(draw):
    """Form text of degree d <= 8, and an order near the valid range 0..d//2."""
    d = draw(st.integers(0, 8))
    coeffs = draw(st.lists(RATIONAL, min_size=d + 1, max_size=d + 1))
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
