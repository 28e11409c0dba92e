"""Brute-force reference implementations the fast kernels are checked against."""

from fractions import Fraction
from itertools import permutations
from math import comb, factorial, perm

from bilor import (
    BivariateForm,
    NotSymmetricError,
    ShapeError,
    SignatureReport,
    Verdict,
    XYPoly,
    ZeroPolynomialError,
    catalecticant,
    derive,
    from_monomial_coeffs,
    profile,
)
from bilor import algebra, linalg, realpoly, toeplitz


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


# The Hessian and catalecticant constructions that one Hankel builder,
# `bilor.hessians.catalecticant`, replaced: a sum of stored base matrices, one
# `derive` call per kernel column, and operator products built term by term.


def _transpose(cols):
    return [list(row) for row in zip(*cols)]


def _base_sum(form, order, weights, scale):
    """scale * sum_m weights[m] * H_m over the stored base matrices
    H_m = (c_{m+p+q})_{0<=p,q<=order}."""
    c, size = form.coeffs, order + 1
    base = [
        [[c[m + p + q] for q in range(size)] for p in range(size)]
        for m in range(form.degree - 2 * order + 1)
    ]
    out = [[Fraction(0)] * size for _ in range(size)]
    for w, hm in zip(weights, base):
        if w != 0:
            sw = scale * w
            for p in range(size):
                for q in range(size):
                    out[p][q] += sw * hm[p][q]
    return out


def hessian_by_base_sum(form, order, a, b):
    """Order-i Hessian at (a, b): perm(d, 2i) * sum_m C(e, m) a^m b^(e-m) H_m."""
    a, b = Fraction(a), Fraction(b)
    d = form.degree
    e = d - 2 * order
    weights = [comb(e, m) * a**m * b ** (e - m) for m in range(e + 1)]
    return _base_sum(form, order, weights, perm(d, 2 * order))


def mixed_hessian_by_base_sum(form, order, points):
    """Mixed order-i Hessian: d! * sum_m w_m H_m, w the untrimmed coefficients
    of prod (a_k z + b_k)."""
    w = [Fraction(1)]
    for a, b in points:
        w = _conv(w, [Fraction(b), Fraction(a)])
    return _base_sum(form, order, w, factorial(form.degree))


def catalecticant_kernel_by_derive(form, e):
    """Kernel of the degree-e operators acting on the form, one `derive` call
    per monomial x^p y^(e-p) giving one column of the map."""
    d = form.degree
    if e > d:
        return linalg.identity(e + 1)
    cols = [derive(form, [(p, e - p, 1)]).coeffs for p in range(e + 1)]
    return linalg.kernel_basis(_transpose(cols))


def _times(f, g):
    return XYPoly(f.degree + g.degree, tuple(_conv(list(f.coeffs), list(g.coeffs))))


def primitive_vectors_by_operator_product(form, j, ell0, ells):
    """Kernel of multiplication by ell0 * prod(ells) from degree j: the
    operator product is built as an `XYPoly`, and each column is the
    derivative of the form along the product with one monomial x^q y^(j-q)."""
    if j == 0:
        return ((Fraction(1),),)
    g = XYPoly(1, (ell0.b, ell0.a))
    for ell in ells:
        g = _times(g, XYPoly(1, (ell.b, ell.a)))
    cols = [
        derive(form, _times(g, XYPoly(j, tuple(u))).terms()).coeffs
        for u in linalg.identity(j + 1)
    ]
    return tuple(tuple(v) for v in linalg.kernel_basis(_transpose(cols)))


def rref(rows):
    """Reduced row echelon form; returns (reduced matrix, pivot columns)."""
    m = linalg.copy_rows(rows)
    nrows, ncols = linalg.dims(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def kernel_basis_by_rref(rows):
    """Right kernel read off the Gauss-Jordan form over Fractions: one vector
    per free column, free coordinate 1, pivot coordinates -red[r][fc]."""
    _, n = linalg.dims(rows)
    red, pivots = rref(rows)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def annihilator_generators_by_rref(form):
    """The two annihilator generators with Gauss-Jordan kernels, and the
    second one reduced modulo the RREF of the matrix of shifts of f1."""
    d, s = form.degree, profile(form).sperner

    def kernel(e):
        if e > d:
            return linalg.identity(e + 1)
        return kernel_basis_by_rref(catalecticant(form.coeffs, [1], d - e + 1, e + 1))

    k1 = kernel(s)
    if not k1:
        raise ShapeError("empty kernel where a generator was expected")
    f1 = XYPoly(s, algebra._primitive_normal(k1[0]))
    e2 = d + 2 - s
    zeros = [Fraction(0)] * (e2 - s)
    shifts = [zeros[:a] + list(f1.coeffs) + zeros[a:] for a in range(e2 - s + 1)]
    red, pivots = rref(shifts)
    for vec in kernel(e2):
        v = list(vec)
        for r, pc in enumerate(pivots):
            if v[pc] != 0:
                f = v[pc]
                v = [a - f * b for a, b in zip(v, red[r])]
        if any(x != 0 for x in v):
            return f1, XYPoly(e2, algebra._primitive_normal(v))
    raise ShapeError("annihilator is not a complete intersection (unexpected)")


# Determinants and minor scans without the shortcuts: the permutation
# expansion the closed-form `int_det` sizes are checked against, a minor as
# the determinant of its submatrix, and total nonnegativity by enumerating
# every minor of every size, whatever the rank.


def perm_expansion_det(rows):
    n = len(rows)
    total = Fraction(0)
    for order in permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if order[a] > order[b]:
                    sign = -sign
        term = Fraction(1)
        for r in range(n):
            term *= rows[r][order[r]]
        total += sign * term
    return total


def minor(rows, row_idx, col_idx) -> Fraction:
    sub = [[rows[i][j] for j in col_idx] for i in row_idx]
    return linalg.det(sub)


def tn_by_enumeration(matrix, cap=None) -> Verdict:
    """Total nonnegativity with every minor enumerated (sizes ascending,
    index sets in lexicographic order); the first negative one is the
    witness."""
    minors = toeplitz._Minors(matrix, cap, enumerate_all=True)
    found = minors.first(minors.every(minors.sizes), 0)
    return Verdict("totally-nonnegative", found is None, found)
