"""Brute-force reference implementations the fast kernels are checked against."""

from fractions import Fraction

from bilor import (
    BivariateForm,
    NotSymmetricError,
    ShapeError,
    SignatureReport,
    ZeroPolynomialError,
    from_monomial_coeffs,
)
from bilor import linalg, realpoly


def _conv(u, v):
    out = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def substitute_by_convolution(form, change):
    """F(p*X + r*Y, q*X + s*Y) in Fraction arithmetic: a power table of each
    linear factor, then one full convolution per monomial (O(d^3))."""
    d = form.degree
    first = [change.r, change.p]  # p*X + r*Y, indexed by X-power
    second = [change.s, change.q]
    powers1 = [[Fraction(1)]]
    powers2 = [[Fraction(1)]]
    for _ in range(d):
        powers1.append(_conv(powers1[-1], first))
        powers2.append(_conv(powers2[-1], second))
    out = [Fraction(0)] * (d + 1)
    for k, rk in enumerate(form.monomial_coeffs()):
        if rk == 0:
            continue
        for j, v in enumerate(_conv(powers1[k], powers2[d - k])):
            out[j] += rk * v
    return from_monomial_coeffs(out)


def derive_by_partials(form, terms):
    """sum(coef * d_x^j d_y^k) applied to the form one first partial at a
    time: d_x sends c_k to d * c_(k+1), d_y sends c_k to d * c_k."""
    terms = [(j, k, Fraction(coef)) for j, k, coef in terms]
    d = form.degree
    e = terms[0][0] + terms[0][1]
    out = tuple(Fraction(0) for _ in range(d - e + 1))
    for j, k, coef in terms:
        if coef == 0:
            continue
        c, deg = form.coeffs, d
        for _ in range(j):
            c = tuple(deg * c[m + 1] for m in range(deg))
            deg -= 1
        for _ in range(k):
            c = tuple(deg * c[m] for m in range(deg))
            deg -= 1
        out = tuple(o + coef * x for o, x in zip(out, c))
    return BivariateForm(d - e, out)


# The Fraction polynomial toolkit: Yun's square-free decomposition, then one
# Euclidean Sturm chain per square-free factor.

Poly = list[Fraction]


def trim(p) -> Poly:
    out = [Fraction(x) for x in p]
    while out and out[-1] == 0:
        out.pop()
    return out


def degree(p: Poly) -> int:
    """Degree, with the zero polynomial mapped to -1.  Trailing zeros are
    ignored, so untrimmed lists are handled correctly."""
    for k in range(len(p) - 1, -1, -1):
        if p[k] != 0:
            return k
    return -1


def is_zero(p: Poly) -> bool:
    return all(x == 0 for x in p)


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def neg(p: Poly) -> Poly:
    return [-x for x in p]


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def scale(p: Poly, c) -> Poly:
    c = Fraction(c)
    if c == 0:
        return []
    return [x * c for x in p]


def poly_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    q = trim(q)
    if is_zero(q):
        raise ZeroPolynomialError("division by the zero polynomial")
    r = list(p)
    d = degree(q)
    lead = q[-1]
    quot = [Fraction(0)] * max(len(p) - d, 0)
    while len(r) - 1 >= d and any(x != 0 for x in r):
        r = trim(r)
        if degree(r) < d:
            break
        f = r[-1] / lead
        k = degree(r) - d
        quot[k] = f
        for i in range(len(q)):
            r[i + k] -= f * q[i]
        r = trim(r)
    return trim(quot), trim(r)


def derivative(p: Poly) -> Poly:
    return trim([p[i] * i for i in range(1, len(p))])


def evaluate(p: Poly, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def monic(p: Poly) -> Poly:
    p = trim(p)
    if not p:
        return p
    lead = p[-1]
    return [x / lead for x in p]


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd; gcd(p, 0) = monic(p)."""
    a, b = trim(p), trim(q)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return monic(a)


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: [(g, e), ...] with monic square-free coprime g and
    p = lead * prod g^e."""
    p = trim(p)
    if is_zero(p):
        raise ZeroPolynomialError("square-free decomposition of zero")
    p = monic(p)
    if degree(p) == 0:
        return []
    dp = derivative(p)
    a = poly_gcd(p, dp)
    b = poly_divmod(p, a)[0]
    c = sub(poly_divmod(dp, a)[0], derivative(b))
    out = []
    e = 1
    while degree(b) > 0:
        g = poly_gcd(b, c)
        if degree(g) > 0:
            out.append((g, e))
        b = poly_divmod(b, g)[0]
        c = sub(poly_divmod(c, g)[0], derivative(b))
        e += 1
    return out


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [trim(p), derivative(p)]
    while not is_zero(chain[-1]) and degree(chain[-1]) > 0:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if is_zero(rem):
            break
        chain.append(neg(rem))
    return [q for q in chain if not is_zero(q)]


def _variations(signs) -> int:
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations_at_point(chain, x) -> int:
    return _variations([_sign(evaluate(q, x)) for q in chain])


def _variations_at_inf(chain, positive: bool) -> int:
    signs = []
    for q in chain:
        s = _sign(q[-1])
        if not positive and degree(q) % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def _counts_squarefree(g: Poly) -> tuple[int, int]:
    """(distinct real roots, distinct roots <= 0) of a square-free g."""
    g = trim(g)
    if degree(g) <= 0:
        return 0, 0
    at_zero = 0
    if g[0] == 0:  # square-free, so t divides exactly once
        g = trim(g[1:])
        at_zero = 1
        if degree(g) <= 0:
            return at_zero, at_zero
    chain = sturm_chain(g)
    v_neg = _variations_at_inf(chain, positive=False)
    v_pos = _variations_at_inf(chain, positive=True)
    v_zero = _variations_at_point(chain, 0)
    total = v_neg - v_pos + at_zero
    nonpos = v_neg - v_zero + at_zero
    return total, nonpos


def count_roots(p: Poly) -> tuple[int, int]:
    """(real roots, real roots <= 0), both counted with multiplicity.

    Raises ZeroPolynomialError on the zero polynomial; a nonzero constant has
    no roots.
    """
    p = trim(p)
    if is_zero(p):
        raise ZeroPolynomialError("root count of the zero polynomial")
    total = nonpos = 0
    for g, e in squarefree_decomposition(p):
        t, n = _counts_squarefree(g)
        total += e * t
        nonpos += e * n
    return total, nonpos


def poly_from_roots(roots) -> Poly:
    """Monic polynomial with the given (rational) roots."""
    p = [Fraction(1)]
    for r in roots:
        p = mul(p, [-Fraction(r), Fraction(1)])
    return p


def charpoly(rows) -> list[Fraction]:
    """Characteristic polynomial det(t*I - M), coefficients ascending in t.

    Faddeev-LeVerrier recursion; exact over the rationals.
    """
    m, n = linalg.dims(rows)
    if m != n:
        raise ShapeError("characteristic polynomial of non-square matrix")
    a = linalg.copy_rows(rows)
    coeffs = [Fraction(1)]  # leading coefficient of t^n
    mk = linalg.identity(n)
    c = Fraction(1)
    for k in range(1, n + 1):
        if k > 1:
            mk = linalg.mat_mul(a, mk)
            for i in range(n):
                mk[i][i] += c
        am = linalg.mat_mul(a, mk)
        c = -sum((am[i][i] for i in range(n)), Fraction(0)) / k
        coeffs.append(c)
    return list(reversed(coeffs))


def signature_via_roots(matrix) -> SignatureReport:
    """Inertia read off the characteristic polynomial with Sturm counting.

    Independent of `bilor.signature`; used to cross-validate it.
    """
    m = linalg.copy_rows(matrix)
    rows, cols = linalg.dims(m)
    if rows != cols or not linalg.is_symmetric(m):
        raise NotSymmetricError("signature needs a symmetric square matrix")
    if rows == 0:
        return SignatureReport(0, 0, 0)
    p = charpoly(m)
    zero = next(k for k, c in enumerate(p) if c != 0)
    stripped = realpoly.trim(p[zero:])
    total, nonpos = realpoly.count_roots(stripped)
    if total != realpoly.degree(stripped):
        raise ShapeError("characteristic polynomial of a symmetric matrix must be real-rooted")
    return SignatureReport(total - nonpos, zero, nonpos)
