"""Running corpus ops against bilor, and checking what comes back.

Every op is prepared (inputs parsed into bilor objects) before it is timed,
and its call goes through module attributes (``lib.toeplitz.is_lorentzian``)
at call time, so the tracer's wrappers see it.  Results are reduced to a
canonical JSON value, whose digest is pinned, and checked against the facts
the corpus recorded about how each input was built.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from corpus import substitute
from tracer import LAYERS

CLI_TIMEOUT_S = 120
DIGEST_LEN = 10


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()[:DIGEST_LEN]


def child_env(root: str) -> dict:
    """The fixed environment every `python -m bilor.cli` child gets."""
    return {
        "PATH": "/usr/local/bin:/usr/bin:/bin",
        "PYTHONPATH": os.path.join(root, "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONIOENCODING": "utf-8",
        "LC_ALL": "C",
    }


def load_library():
    """Import bilor and return its layer modules by short name."""
    import bilor.cli  # noqa: F401  (the package, and with it every layer, comes first)

    return SimpleNamespace(**{name: sys.modules[f"bilor.{name}"] for name in LAYERS})


@dataclass
class Prepared:
    spec: dict
    call: object  # () -> raw result; None for a CLI child
    encode: object  # raw result -> canonical JSON value
    form: list | None = None  # the input's coefficients, for the checks


def _verdict(v) -> dict:
    return v.to_json()


def _strs(xs) -> list[str]:
    return [str(Fraction(x)) for x in xs]


def prepare(spec: dict, lib) -> Prepared:
    """Parse the op's inputs and bind the call, outside any timed region."""
    kind, args = spec["op"], spec["args"]
    if kind == "cli":
        return Prepared(spec, None, None)
    form, _ = lib.forms.parse_form(spec["form"])
    i = args.get("i")
    L = lib
    if kind == "is_strictly_lorentzian":
        call = lambda: L.lorentzian.is_strictly_lorentzian(form, i)
        enc = _verdict
    elif kind == "is_totally_positive":
        call = lambda: L.toeplitz.is_totally_positive(L.toeplitz.from_form(form, i))
        enc = _verdict
    elif kind == "is_lorentzian":
        call = lambda: L.lorentzian.is_lorentzian(form, i)
        enc = _verdict
    elif kind == "pf_window_check":
        up_to = args["up_to"]
        call = lambda: L.stability.pf_window_check(form, up_to)
        enc = _verdict
    elif kind == "check_mixed_hrr_cone":
        cone = args["cone"]
        call = lambda: L.algebra.check_mixed_hrr_cone(form, i, cone)
        enc = _verdict
    elif kind == "classify":
        top = args["max_order"]
        call = lambda: L.lorentzian.classify(form, max_order=top)
        enc = lambda lc: {"order": lc.order, "order_strict": lc.order_strict,
                          "per_order": [[s.to_json(), t.to_json()] for s, t in lc.per_order]}
    elif kind == "profile":
        call = lambda: L.algebra.profile(form)
        enc = lambda p: {"hilbert": list(p.hilbert), "sperner": p.sperner,
                         "socle_degree": p.socle_degree}
    elif kind == "annihilator_generators":
        call = lambda: L.algebra.annihilator_generators(form)
        enc = lambda gens: [{"degree": g.degree, "coeffs": _strs(g.coeffs)} for g in gens]
    elif kind in ("check_hrr", "check_sl"):
        ell = L.forms.LinearForm(*map(Fraction, args["ell"]))
        fn = kind
        call = lambda: getattr(L.algebra, fn)(form, i, ell)
        enc = _verdict
    elif kind == "check_mixed_hrr_at":
        sets = {int(j): [tuple(map(Fraction, p)) for p in pts] for j, pts in args["points"].items()}
        call = lambda: L.algebra.check_mixed_hrr_at(form, i, sets)
        enc = _verdict
    elif kind == "primitive_subspace":
        ell0 = L.forms.LinearForm(*map(Fraction, args["ell0"]))
        ells = [L.forms.LinearForm(*map(Fraction, p)) for p in args["ells"]]
        j = args["j"]
        call = lambda: L.algebra.primitive_subspace(form, j, ell0, ells)
        enc = lambda b: {"degree": b.degree, "vectors": [_strs(v) for v in b.vectors],
                         "expected_dim": b.expected_dim}
    elif kind == "signature":
        j = args["j"]
        a, b = map(Fraction, args["at"])
        call = lambda: L.hessians.signature(
            L.hessians.evaluate_hessian(L.hessians.hessian_family(form, j), a, b))
        enc = lambda s: s.to_json()
    elif kind in ("is_stable", "is_normally_stable"):
        fn = kind
        call = lambda: getattr(L.stability, fn)(form)
        enc = _verdict
    elif kind == "approximate_tp":
        steps = args.get("steps")
        eps = Fraction(args["epsilon"]) if "epsilon" in args else None
        call = lambda: L.lorentzian.approximate_tp(form, i, steps=steps, epsilon=eps)
        enc = lambda out: [{"form": _strs(st.form.coeffs), "distance": str(st.distance),
                            "rank_steps": [_strs(ts) for ts in st.rank_steps],
                            "final_mix": None if st.final_mix is None else str(st.final_mix)}
                           for st in out]
    elif kind == "straighten_from_hrr":
        ell = L.forms.LinearForm(*map(Fraction, args["ell"]))
        call = lambda: L.lorentzian.straighten_from_hrr(form, ell, i)
        enc = lambda c: {"p": str(c.p), "q": str(c.q), "r": str(c.r), "s": str(c.s)}
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    return Prepared(spec, call, enc, form=list(form.coeffs))


@dataclass
class Outcome:
    seconds: float
    value: object = None  # canonical JSON value; None when the op raised
    error: str | None = None


def run_library(op: Prepared, tracer=None) -> Outcome:
    """Time one library call (traced when a tracer is given); the encoding
    runs after the call, untimed and untraced."""
    scope = tracer.op() if tracer else contextlib.nullcontext()
    with scope:
        t0 = time.perf_counter()
        try:
            raw = op.call()
        except Exception as exc:  # a raising op is a failed op, and the run goes on
            return Outcome(time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
    return Outcome(elapsed, op.encode(raw))


def run_process(op: Prepared, root: str) -> Outcome:
    """Time one `python -m bilor.cli` child, start to exit."""
    cmd = [sys.executable, "-m", "bilor.cli", *op.spec["args"]["argv"]]
    t0 = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              timeout=CLI_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return Outcome(time.perf_counter() - t0, error=f"timed out after {CLI_TIMEOUT_S} s")
    elapsed = time.perf_counter() - t0
    value = {"exit": done.returncode, "stdout": done.stdout.decode("utf-8", "replace")}
    if done.stderr:
        value["stderr"] = done.stderr.decode("utf-8", "replace")
    return Outcome(elapsed, value)


def run_in_process(op: Prepared, lib, tracer=None) -> Outcome:
    """The same argv through `bilor.cli.main` in this process."""
    buf = io.StringIO()
    scope = tracer.op() if tracer else contextlib.nullcontext()
    with scope, contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = lib.cli.main(list(op.spec["args"]["argv"]))
        except Exception as exc:  # a raising op is a failed op, and the run goes on
            return Outcome(time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
    return Outcome(elapsed, {"exit": code, "stdout": buf.getvalue()})


# -- reference checks ----------------------------------------------------------

def frac_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[k])]
    return det


def strictly_lorentzian(c, i: int) -> bool:
    """Every contiguous window determinant of size <= i+1 is positive."""
    d = len(c) - 1
    return all(
        frac_det([[c[m + j + q - p] for q in range(j + 1)] for p in range(j + 1)]) > 0
        for j in range(i + 1) for m in range(d - 2 * j + 1)
    )


def check(spec: dict, value, form_coeffs) -> list[str]:
    """Facts that hold by construction; each broken one is a problem."""
    exp, args = spec["expect"], spec["args"]
    problems = []
    if "exit" in exp and value["exit"] not in exp["exit"]:
        problems.append(f"exit {value['exit']} not in {exp['exit']}")
    if "pass" in exp and value["pass"] != exp["pass"]:
        problems.append(f"verdict {value['pass']} != {exp['pass']}")
    for key in ("order", "order_strict", "hilbert"):
        if key in exp and value[key] != exp[key]:
            problems.append(f"{key} {value[key]} != {exp[key]}")
    if "degree_sum" in exp and sum(g["degree"] for g in value) != exp["degree_sum"]:
        problems.append("generator degrees do not sum to d+2")
    if "size" in exp and sum(value.values()) != exp["size"]:
        problems.append("inertia does not add up to the matrix size")
    if spec["op"] == "approximate_tp":
        problems += _check_approximants(value, form_coeffs, args["i"], exp)
    if exp.get("strict_image"):
        change = tuple(Fraction(value[k]) for k in "pqrs")
        if not strictly_lorentzian(substitute(form_coeffs, change), args["i"]):
            problems.append("straightened form is not strictly Lorentzian")
    return problems


def _check_approximants(steps, target, i, exp) -> list[str]:
    problems = []
    if "steps" in exp and len(steps) != exp["steps"]:
        problems.append(f"{len(steps)} approximants, asked for {exp['steps']}")
    if "epsilon" in exp and Fraction(steps[-1]["distance"]) > Fraction(exp["epsilon"]):
        problems.append("last approximant is farther than epsilon")
    for k, st in enumerate(steps):
        g = [Fraction(x) for x in st["form"]]
        dist = max(abs(a - b) for a, b in zip(g, target))
        if Fraction(st["distance"]) != dist:
            problems.append(f"step {k}: reported distance {st['distance']} != sup-norm {dist}")
        if not strictly_lorentzian(g, i):
            problems.append(f"step {k}: approximant is not strictly {i}-Lorentzian")
    return problems
