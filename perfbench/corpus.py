"""Seeded op corpora for the four benchmark workloads.

Pure standard library: nothing here imports bilor.  An op is a plain JSON
value::

    {"id": "0.17", "op": "is_lorentzian", "cls": "A", "form": "8: ...",
     "args": {"i": 4}, "bound": 251, "expect": {"pass": true}}

``bound`` is the most integer determinants (``linalg.int_det`` calls) the op
may evaluate, computed from the window shapes alone; ``expect`` holds the
facts about the answer that follow from how the form was built.

A run consumes *passes*: pass ``k`` of a workload is generated from
``(workload, seed, k)``, so every pass holds the same classes and shapes with
fresh coefficients, and the same seed always gives the same inputs.

Form classes
  A  normally stable, distinct roots: every window totally positive
  B  a single power (aX + bY)^d: rank-one windows, TN but not TP
  C  class A with one root pair moved off the negative axis: TN fails late
  D  positive coefficients with a forced log-concavity break: fails at 2x2
  M  a product of linear forms with positive coefficients (stable)
  P  a single power, as B (named P where the workload is not about windows)
  R  small random positive coefficients
  Z  normally stable with vanishing leading coefficients: TN, not TP
  S  class A after a known change of coordinates, with its HRR witness
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

WORKLOADS = ("windows", "algebra", "approximate", "cli")

# Most minors one full window enumeration may visit.  C(m+n, m) - 1 grows so
# fast that one 7x27 window (5.4 million minors, about 180 s) would stall a
# run; every window below stays under this.
WINDOW_CAP = 7500

# lorentzian.DEFAULT_BUDGET: halving steps allowed per search.
HALVING_BUDGET = 64

WINDOW_DEGREES = (8, 12, 16, 20)
TP_ONLY_DEGREES = (24, 28, 32)
ALGEBRA_FULL_DEGREES = (8, 12, 16)
ALGEBRA_WIDE_DEGREES = (20, 24, 32)
APPROX_DEGREES = (4, 6, 8, 10, 12)

# How far class C moves one root pair toward the positive axis, per degree:
# large enough that some minor of the order used goes negative, small enough
# that the smaller minors stay positive.
C_TILT = {8: Fraction(1, 5), 12: Fraction(1, 5), 16: Fraction(1, 5), 20: Fraction(2, 5)}


# -- work bounds (int_det evaluations), from shapes only ---------------------

def tn_minors(m: int, n: int) -> int:
    """Every minor of an m x n matrix: sum_k C(m,k) C(n,k) = C(m+n, m) - 1."""
    return comb(m + n, m) - 1


def tp_minors(m: int, n: int) -> int:
    """Contiguous square minors of an m x n matrix."""
    return sum((m - k + 1) * (n - k + 1) for k in range(1, min(m, n) + 1))


def strict_dets(d: int, i: int) -> int:
    """Window determinants `is_strictly_lorentzian(form, i)` may evaluate."""
    return sum(d - 2 * j + 1 for j in range(i + 1))


def window_tn(d: int, i: int) -> int:
    return tn_minors(i + 1, d - i + 1)


def max_window_order(d: int) -> int:
    """Largest order whose window enumeration stays within WINDOW_CAP."""
    return max(i for i in range(d // 2 + 1) if window_tn(d, i) <= WINDOW_CAP)


def work_bound(kind: str, d: int, args: dict) -> int:
    """Most int_det calls an op of this kind can make on a degree-d form."""
    i = args.get("i", 0)
    if kind == "is_strictly_lorentzian":
        return strict_dets(d, i)
    if kind == "is_totally_positive":
        return tp_minors(i + 1, d - i + 1)
    if kind in ("is_lorentzian", "check_mixed_hrr_cone"):
        return window_tn(d, i)
    if kind == "pf_window_check":
        return sum(window_tn(d, j) for j in range(min(args["up_to"], d // 2) + 1))
    if kind == "classify":
        top = min(args["max_order"], d // 2)
        return sum(strict_dets(d, j) + window_tn(d, j) for j in range(top + 1))
    if kind in ("check_hrr", "check_sl"):
        return i + 1
    if kind == "check_mixed_hrr_at":
        return len(args["points"])
    if kind == "approximate_tp":
        # the precondition scans, then per approximant at most i+1 rank
        # raises of HALVING_BUDGET candidates each and a final mixing search
        per = (i + 1) * HALVING_BUDGET * window_tn(d, i) + HALVING_BUDGET * strict_dets(d, i)
        count = args.get("steps") or HALVING_BUDGET
        return window_tn(d, i) + strict_dets(d, i) + count * per
    if kind == "straighten_from_hrr":
        return (i + 1) + (HALVING_BUDGET + 1) * strict_dets(d, i)
    return 0


def window_shapes(kind: str, d: int, args: dict) -> list[tuple[int, int]]:
    """Windows an op enumerates in full (every minor), for the cap check."""
    i = args.get("i", 0)
    if kind in ("is_lorentzian", "check_mixed_hrr_cone", "approximate_tp"):
        return [(i + 1, d - i + 1)]
    if kind == "pf_window_check":
        return [(j + 1, d - j + 1) for j in range(min(args["up_to"], d // 2) + 1)]
    if kind == "classify":
        return [(j + 1, d - j + 1) for j in range(min(args["max_order"], d // 2) + 1)]
    return []


# -- forms --------------------------------------------------------------------

def poly_from_roots(roots) -> list[Fraction]:
    """Ascending coefficients of prod (t + r)."""
    p = [Fraction(1)]
    for r in roots:
        q = [Fraction(0)] * (len(p) + 1)
        for k, a in enumerate(p):
            q[k] += a * r
            q[k + 1] += a
        p = q
    return p


def poly_mul(p, q) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def form_text(coeffs) -> str:
    """Normalized-coefficient text `d: c_0, ..., c_d`."""
    return f"{len(coeffs) - 1}: " + ", ".join(str(Fraction(c)) for c in coeffs)


def normally_stable(rng, d: int) -> list[Fraction]:
    """Class A: the normalized coefficients of prod (t + r_j), r_j distinct."""
    return poly_from_roots(rng.sample(range(1, d + d // 2 + 1), d))


def single_power(rng, d: int) -> list[Fraction]:
    """Class B/P: (aX + bY)^d has normalized coefficients a^k b^(d-k)."""
    a, b = rng.randint(1, 4), rng.randint(1, 4)
    return [Fraction(a) ** k * Fraction(b) ** (d - k) for k in range(d + 1)]


def tilted(rng, d: int) -> list[Fraction]:
    """Class C: class A with one root pair moved to the right half plane:
    the factor t^2 - 2*a*tilt*t + a^2 has roots a*(tilt +- i*sqrt(1 - tilt^2))."""
    roots = rng.sample(range(1, d + d // 2 + 1), d - 2)
    a = Fraction(rng.randint(1, d))
    return poly_mul(poly_from_roots(roots), [a * a, -2 * a * C_TILT[d], Fraction(1)])


def log_concavity_break(rng, d: int) -> list[Fraction]:
    """Class D: c_j = 1 between neighbours >= 2, so c_j^2 < c_(j-1) c_(j+1)."""
    c = [Fraction(rng.randint(2, 9)) for _ in range(d + 1)]
    c[rng.randint(1, d - 1)] = Fraction(1)
    return c


def rooted_product(rng, d: int) -> str:
    """Class M: monomial text of prod (a_j X + b_j Y), a_j, b_j in 1..3."""
    raw = [Fraction(1)]
    for _ in range(d):
        raw = poly_mul(raw, [Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 3))])
    return "monomial: " + ", ".join(str(x) for x in raw)


def small_random(rng, d: int) -> list[Fraction]:
    """Class R: positive coefficients in 1..9."""
    return [Fraction(rng.randint(1, 9)) for _ in range(d + 1)]


def zero_led(rng, d: int, zeros: int) -> list[Fraction]:
    """Class Z: c_0 = ... = c_(zeros-1) = 0 ahead of a class A sequence."""
    return [Fraction(0)] * zeros + poly_from_roots(rng.sample(range(1, d + 1), d - zeros))


# Changes of coordinates for class S, as (p, q, r, s): F = G(pX + rY, qX + sY).
S_CHANGES = ((1, -1, 0, 1), (1, 0, -1, 1), (2, -1, 1, 1), (1, 1, -1, 2), (1, 1, 0, 1))


def substitute(coeffs, change) -> list[Fraction]:
    """Normalized coefficients of F(pX + rY, qX + sY); independent of bilor."""
    p, q, r, s = (Fraction(x) for x in change)
    d = len(coeffs) - 1
    raw = [comb(d, k) * c for k, c in enumerate(coeffs)]
    first, second = [r, p], [s, q]  # indexed by the power of X
    out = [Fraction(0)] * (d + 1)
    for k, rk in enumerate(raw):
        if rk == 0:
            continue
        term = [Fraction(1)]
        for _ in range(k):
            term = poly_mul(term, first)
        for _ in range(d - k):
            term = poly_mul(term, second)
        for j, v in enumerate(term):
            out[j] += rk * v
    return [x / comb(d, k) for k, x in enumerate(out)]


def straighten_case(rng, d: int) -> tuple[list[Fraction], tuple[Fraction, Fraction]]:
    """Class S: F = G(A x) for a class A form G and a fixed integer A.

    G is strictly Lorentzian with Hodge-Riemann witness (1, 1); derivatives
    transform by A, so A^-1 (1, 1) is a witness for F.
    """
    g = normally_stable(rng, d)
    p, q, r, s = (Fraction(x) for x in rng.choice(S_CHANGES))
    det = p * s - q * r
    return substitute(g, (p, q, r, s)), ((s - r) / det, (p - q) / det)


# -- workloads ----------------------------------------------------------------

# What each window class must give at order i >= 1, by construction:
# (TN verdict, strict/TP verdict, classify's orders); None where nothing is.
WINDOW_FACTS = {
    "A": (True, True, lambda i: {"order": i, "order_strict": i}),
    "B": (True, False, lambda i: {"order": i, "order_strict": 0}),
    "C": (None, None, lambda i: {}),
    "D": (False, False, lambda i: {"order": 0, "order_strict": 0}),
}


def _windows(rng) -> list[dict]:
    ops = []
    makers = {"A": normally_stable, "B": single_power, "C": tilted, "D": log_concavity_break}
    for d in WINDOW_DEGREES:
        i = max_window_order(d)
        for cls, make in makers.items():
            text = form_text(make(rng, d))
            tn_pass, tp_pass, orders = WINDOW_FACTS[cls]
            tn = {} if tn_pass is None else {"pass": tn_pass}
            tp = {} if tp_pass is None else {"pass": tp_pass}
            order = orders(i)
            ops += [
                ("is_strictly_lorentzian", cls, text, {"i": i}, tp),
                ("is_totally_positive", cls, text, {"i": i}, tp),
                ("is_lorentzian", cls, text, {"i": i}, tn),
                ("pf_window_check", cls, text, {"up_to": i}, tn),
                ("check_mixed_hrr_cone", cls, text, {"i": i, "cone": "open"}, tn),
                ("check_mixed_hrr_cone", cls, text, {"i": i, "cone": "closed"}, tp),
                ("classify", cls, text, {"max_order": i}, order),
            ]
    for d in TP_ONLY_DEGREES:
        for cls, make in (("A", normally_stable), ("B", single_power), ("D", log_concavity_break)):
            text = form_text(make(rng, d))
            for i in (d // 4, d // 2):
                ops.append(("is_totally_positive", cls, text, {"i": i}, {"pass": cls == "A"}))
    return ops


def _points(rng, n: int) -> list[list[str]]:
    return [[str(rng.randint(1, 3)), str(rng.randint(1, 3))] for _ in range(n)]


def _algebra(rng) -> list[dict]:
    ops = []
    for d in ALGEBRA_FULL_DEGREES + ALGEBRA_WIDE_DEGREES:
        wide = d in ALGEBRA_WIDE_DEGREES
        classes = (("P", single_power), ("M", rooted_product), ("R", small_random))
        if not wide:
            classes = (("A", normally_stable),) + classes
        for cls, make in classes:
            made = make(rng, d)
            text = made if isinstance(made, str) else form_text(made)
            prof = {}
            if cls == "A":
                prof = {"hilbert": [min(k, d - k) + 1 for k in range(d + 1)]}
            elif cls == "P":
                prof = {"hilbert": [1] * (d + 1)}
            ell = [str(rng.randint(1, 3)), str(rng.randint(1, 3))]
            ops += [
                ("profile", cls, text, {}, prof),
                ("check_sl", cls, text, {"i": 1, "ell": ell}, {"pass": True} if cls == "P" else {}),
            ]
            if cls == "M":
                ops.append(("is_stable", cls, text, {}, {"pass": True}))
            if cls == "P":
                ops.append(("is_normally_stable", cls, text, {}, {"pass": False}))
            if wide:
                continue
            j = d // 4
            ops += [
                ("annihilator_generators", cls, text, {}, {"degree_sum": d + 2}),
                ("check_hrr", cls, text, {"i": d // 2, "ell": ["1", "1"]},
                 {"pass": True} if cls == "P" else {}),
                ("check_sl", cls, text, {"i": d // 2, "ell": ell}, {}),
                ("check_mixed_hrr_at", cls, text,
                 {"i": 2, "points": {str(k): _points(rng, d - 2 * k) for k in range(3)}}, {}),
                ("signature", cls, text, {"j": j, "at": ell}, {"size": j + 1}),
            ]
            if cls in ("A", "R"):
                ops.append(("is_stable", cls, text, {}, {}))
            if cls in ("A", "M", "R"):
                ops.append(("is_normally_stable", cls, text, {}, {"pass": True} if cls == "A" else {}))
            if cls == "A":
                k = 2
                ops.append(("primitive_subspace", cls, text,
                            {"j": k, "ell0": ["1", "1"], "ells": _points(rng, d - 2 * k)}, {}))
    return ops


def _approximate(rng) -> list[dict]:
    ops = []
    for d in APPROX_DEGREES:
        power = form_text(single_power(rng, d))
        lead = form_text(zero_led(rng, d, 1 + d // 6))
        for i in range(1, min(3, d // 2) + 1):
            ops.append(("approximate_tp", "P", power, {"i": i, "steps": 2}, {"steps": 2}))
            ops.append(("approximate_tp", "Z", lead, {"i": i, "steps": 3}, {"steps": 3}))
        for cls, text, i in (("P", power, 1), ("Z", lead, 2)):
            # a target relative to the largest coefficient, so the number of
            # halvings does not grow with the coefficients' size
            top = max(Fraction(c) for c in text.split(":")[1].split(","))
            eps = str(top / 1024)
            ops.append(("approximate_tp", cls, text, {"i": i, "epsilon": eps}, {"epsilon": eps}))
        if d >= 6:
            for i in (1, 2):
                coeffs, ell = straighten_case(rng, d)
                ops.append(("straighten_from_hrr", "S", form_text(coeffs),
                            {"i": i, "ell": [str(ell[0]), str(ell[1])]}, {"strict_image": True}))
    return ops


def _cli(rng) -> list[dict]:
    def pts(n):
        return ";".join(",".join(p) for p in _points(rng, n))

    a8 = form_text(normally_stable(rng, 8))
    a6 = form_text(normally_stable(rng, 6))
    p8 = form_text(single_power(rng, 8))
    p6 = form_text(single_power(rng, 6))
    m8 = rooted_product(rng, 8)
    m6 = rooted_product(rng, 6)
    d8 = form_text(log_concavity_break(rng, 8))
    s6, ell = straighten_case(rng, 6)
    matrix = "; ".join(", ".join(str(rng.randint(0, 5)) for _ in range(4)) for _ in range(3))
    ok, either, bad = [0], [0, 1], [1]
    rows = [
        ("A", ["classify", "--form", a8, "--max-order", "2"], ok),
        ("A", ["toeplitz", "--form", a8, "-i", "2"], ok),
        ("R", ["toeplitz", "--matrix", matrix], ok),
        ("M", ["hessian", "--form", m6, "-i", "1", "--at", "1,2"], ok),
        ("M", ["hessian", "--form", m6, "-i", "1", "--points", pts(4)], ok),
        ("A", ["hrr", "--form", a8, "--ell", "1,1", "--up-to", "2"], ok),
        ("M", ["sl", "--form", m8, "--ell", "1,2", "--up-to", "2"], either),
        ("A", ["mixed-hrr", "--form", a8, "--cone", "open", "--up-to", "2"], ok),
        ("P", ["mixed-hrr", "--form", p8, "--at-points", f"1={pts(6)}"], ok),
        ("M", ["hilbert", "--form", m8], ok),
        ("P", ["sperner", "--form", p8], ok),
        ("A", ["annihilator", "--form", a6], ok),
        ("A", ["primitive", "--form", a6, "-j", "1", "--ell0", "1,1", "--ells", pts(4)], ok),
        ("M", ["stable", "--form", m8], ok),
        ("A", ["normally-stable", "--form", a8], ok),
        ("D", ["pf", "--window", "2", "--form", d8], bad),
        ("P", ["approximate", "--form", p6, "-i", "1", "--steps", "2"], ok),
        ("S", ["straighten", "--form", form_text(s6), "--ell", f"{ell[0]},{ell[1]}", "-i", "1"], ok),
        ("A", ["--format", "table", "classify", "--form", a6, "--max-order", "1"], ok),
        ("M", ["--format", "table", "hilbert", "--form", m6], ok),
        ("P", ["--format", "table", "stable", "--form", p6], ok),
    ]
    return [("cli", cls, None, {"argv": argv}, {"exit": codes}) for cls, argv, codes in rows]


_WORKLOAD_OPS = {"windows": _windows, "algebra": _algebra, "approximate": _approximate, "cli": _cli}


def form_degree(text: str) -> int:
    body = text.split(":", 1)[1] if ":" in text else text
    return body.count(",")


def generate_pass(workload: str, seed: int, index: int) -> list[dict]:
    """Ops of pass `index`, in the (seeded, shuffled) order they run."""
    if workload not in _WORKLOAD_OPS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"perfbench:{workload}:{seed}:{index}")
    ops = []
    for kind, cls, text, args, expect in _WORKLOAD_OPS[workload](rng):
        if kind == "cli":
            bound = cli_bound(args["argv"])
        else:
            d = form_degree(text)
            for m, n in window_shapes(kind, d, args):
                if tn_minors(m, n) > WINDOW_CAP:
                    raise ValueError(f"{kind} on a {m}x{n} window exceeds WINDOW_CAP")
            bound = work_bound(kind, d, args)
        ops.append({"op": kind, "cls": cls, "form": text, "args": args,
                    "bound": bound, "expect": expect})
    rng.shuffle(ops)
    for k, op in enumerate(ops):
        op["id"] = f"{index}.{k}"
    return ops


def cli_bound(argv: list[str]) -> int:
    """Work bound of the library calls behind one CLI invocation."""
    argv = [a for a in argv if a not in ("--format", "table")]
    cmd = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if "--matrix" in opts:
        rows = opts["--matrix"].split(";")
        m, n = len(rows), rows[0].count(",") + 1
        return tp_minors(m, n) + tn_minors(m, n)
    d = form_degree(opts["--form"])
    i = int(opts.get("-i", opts.get("--up-to", d // 2)))
    if cmd == "classify":
        return work_bound("classify", d, {"max_order": int(opts["--max-order"])})
    if cmd == "toeplitz":
        return tp_minors(i + 1, d - i + 1) + window_tn(d, i)
    if cmd == "hessian":
        return 2
    if cmd in ("hrr", "sl"):
        return i + 1
    if cmd == "mixed-hrr":
        return window_tn(d, i) if "--cone" in opts else i + 1
    if cmd == "pf":
        return work_bound("pf_window_check", d, {"up_to": int(opts["--window"])})
    if cmd == "approximate":
        return work_bound("approximate_tp", d, {"i": i, "steps": int(opts["--steps"])})
    if cmd == "straighten":
        return work_bound("straighten_from_hrr", d, {"i": i})
    return 0
