"""Independent brute-force oracles shared by the test suite.

Everything here is self-contained on purpose: no imports from the
package under test, plain integer arithmetic only (k_minors alone takes
whatever entries it is given, and uses only their + - *), except the
SL2 helpers at the end. These build the package's Mat2 over a ring it
is given: random_sl2 samples det-1 matrices, inverting series units by
their coefficient recurrence; build_modp_rep writes down a pair over
F_p with a given character; and group_ring_matrix multiplies each word
out letter by letter with matrices.word_matrix, which no package path
runs, instead of through trace coordinates. The character-scheme scan
decides membership of (x0, y0) by exhibiting an actual pair of 2x2
matrices over F_p[z]/(z^2 - x0 z + 1) and checking the single group
relation, rather than by evaluating any polynomial produced by the
library. psi_scan does evaluate a given Psi, point by
point, so it checks only how the points of that Psi are found;
char_points_by_x finds them one x0 at a time, as the zeros of Psi(x0, y)
at every y0 at once. hensel_full_precision lifts a root by Newton's step
on a doubling schedule, over Z_p and then in T, with f' inverted in full
in every ring.
"""

import random
from itertools import combinations

from twobridge.matrices import Mat2, word_matrix
from twobridge.padics import Zp


def epsilon_oracle(m, n):
    return [-1 if ((i * n) // m) % 2 else 1 for i in range(1, m)]


def _relation_holds(eps, p, x0, y0):
    """w(C,D) C == D w(C,D) over F_p[z]/(z^2 - x0 z + 1).

    Elements of the extension are pairs (c0, c1) = c0 + c1 z; the class
    of z plays the eigenvalue a with a + a^-1 = x0 and a^-1 = x0 - z.
    """

    def mul(A, B):
        a0, a1 = A
        b0, b1 = B
        return ((a0 * b0 - a1 * b1) % p, (a0 * b1 + a1 * b0 + a1 * b1 * x0) % p)

    def mm(M, N):
        out = []
        for i in range(2):
            row = []
            for j in range(2):
                s0 = s1 = 0
                for k in range(2):
                    q0, q1 = mul(M[i][k], N[k][j])
                    s0 += q0
                    s1 += q1
                row.append((s0 % p, s1 % p))
            out.append(tuple(row))
        return tuple(out)

    one, zero = (1, 0), (0, 0)
    a = (0, 1)
    ainv = (x0 % p, p - 1)
    u0 = ((y0 - x0 * x0 + 2) % p, 0)
    negu = ((-(y0 - x0 * x0 + 2)) % p, 0)
    C = ((a, one), (zero, ainv))
    Cinv = ((ainv, ((-1) % p, 0)), (zero, a))
    D = ((a, zero), (u0, ainv))
    Dinv = ((ainv, zero), (negu, a))
    W = ((one, zero), (zero, one))
    for i, e in enumerate(eps, start=1):
        if i % 2 == 1:
            W = mm(W, C if e == 1 else Cinv)
        else:
            W = mm(W, D if e == 1 else Dinv)
    return mm(W, C) == mm(D, W)


def rep_scan(m, n, p):
    """Scan F_p x F_p; return {(x0, y0): (on_abelian_line, abs_irreducible)}.

    A point belongs to the scheme iff it lies on the abelian line
    y = x^2 - 2 (diagonal representations always exist there) or the
    explicit eigenvalue-parameter pair satisfies the group relation.
    """
    eps = epsilon_oracle(m, n)
    out = {}
    for x0 in range(p):
        line_y = (x0 * x0 - 2) % p
        for y0 in range(p):
            on_line = y0 == line_y
            rel = _relation_holds(eps, p, x0, y0)
            if on_line or rel:
                out[(x0, y0)] = (on_line, rel and not on_line)
    return out


def series_product(a, b, modulus, D):
    """Coefficients of a * b truncated after T^D, each reduced mod
    modulus: the schoolbook convolution of two integer lists."""
    a = list(a) + [0] * (D + 1 - len(a))
    b = list(b) + [0] * (D + 1 - len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) % modulus for k in range(D + 1)]


def hensel_full_precision(coeffs, seed, p, N, D=None):
    """The root of f(y) = sum coeffs[k] y^k that is seed mod (p, T), by
    Newton's step s - f(s)/f'(s) with f'(s) inverted in full in each ring
    of the doubling schedule: Z/p^n for n = 2, 4, ... < N and then Z/p^N
    until f(s) = 0; for series, then Z/p^N[[T]]/T^(d+1) for d + 1 = 2, 4,
    ... < D + 1 and then d = D until f(s) = 0.

    Without D the coefficients are ints and so is the root; with D they
    are lists of ints, ascending in T, and the root is a list of D + 1
    ints. Raises ArithmeticError when a ring's loop does not settle.
    """

    def newton(rings, s, cs):
        dcs = [[k * c for c in cf] for k, cf in enumerate(cs)][1:]

        def ev(poly, s, m, d):
            acc = [0] * (d + 1)
            for cf in reversed(poly):
                acc = [(a + c) % m for a, c in zip(series_product(acc, s, m, d), list(cf) + [0] * d)]
            return acc

        for m, d in rings:
            s = [c % m for c in s[: d + 1]] + [0] * (d + 1 - len(s))
            fs = ev(cs, s, m, d)
            if any(fs):
                u = ev(dcs, s, m, d)
                inv = [pow(u[0], -1, m)]
                for k in range(1, d + 1):
                    inv.append(-inv[0] * sum(u[j] * inv[k - j] for j in range(1, k + 1)) % m)
                s = [(a - b) % m for a, b in zip(s, series_product(fs, inv, m, d))]
            elif (m, d) == rings[-1]:
                return s
        raise ArithmeticError("Newton did not settle")

    settle = [(p**N, 0)] * (N + 2)
    const = [[c] if D is None else list(c)[:1] for c in coeffs]
    root = newton([(p ** (1 << k), 0) for k in range(1, (N - 1).bit_length())] + settle, [seed], const)
    if D is None:
        return root[0]
    rings = [(p**N, (1 << k) - 1) for k in range(1, D.bit_length())] + [(p**N, D)] * (D + 2)
    return newton(rings, root, [list(c) for c in coeffs])


def k_minors(rows, k):
    """Every k x k minor of a matrix, in lexicographic (row-combination,
    column-combination) order, each by Laplace expansion along its first
    row."""

    def det(m):
        if len(m) == 1:
            return m[0][0]
        acc = m[0][0] * det([r[1:] for r in m[1:]])
        for j in range(1, len(m)):
            term = m[0][j] * det([r[:j] + r[j + 1 :] for r in m[1:]])
            acc = acc - term if j % 2 else acc + term
        return acc

    n, m = len(rows), len(rows[0])
    return [
        det([[rows[i][j] for j in csel] for i in rsel])
        for rsel in combinations(range(n), k)
        for csel in combinations(range(m), k)
    ]


def psi_scan(terms, p):
    """Scan F_p x F_p by evaluating Psi at every point; same output as
    rep_scan. terms is {(i, j): c} for c * x^i * y^j with i, j >= 0."""
    top_i = max((i for i, _ in terms), default=0)
    top_j = max((j for _, j in terms), default=0)
    ypow = [[pow(y0, j, p) for j in range(top_j + 1)] for y0 in range(p)]
    out = {}
    for x0 in range(p):
        xs = [pow(x0, i, p) for i in range(top_i + 1)]
        line_y = (x0 * x0 - 2) % p
        for y0 in range(p):
            ys = ypow[y0]
            on_line = y0 == line_y
            zero = sum(c * xs[i] * ys[j] for (i, j), c in terms.items()) % p == 0
            if on_line or zero:
                out[(x0, y0)] = (on_line, zero and not on_line)
    return out


def char_points_by_x(terms, p):
    """The points of Psi found one x0 at a time, in (x, y) order, as
    (x0, y0, on_abelian_line, abs_irreducible): Psi(x0, y) is reduced
    mod p and evaluated by Horner's rule at every y0 at once, so where
    it vanishes every y0 is a zero. terms is {(i, j): c} for
    c * x^i * y^j with i, j >= 0."""
    columns = {}
    for (i, j), c in terms.items():
        columns.setdefault(j, []).append((i, c))
    top = max(columns, default=0)
    out = []
    for x0 in range(p):
        line_y = (x0 * x0 - 2) % p
        values = [0] * p
        for j in range(top, -1, -1):
            v = sum(c * pow(x0, i, p) for i, c in columns.get(j, ())) % p
            values = [(w * y0 + v) % p for y0, w in enumerate(values)]
        zeros = {y0 for y0, w in enumerate(values) if not w}
        for y0 in sorted(zeros | {line_y}):
            on_line = y0 == line_y
            out.append((x0, y0, on_line, y0 in zeros and not on_line))
    return out


def bivariate_product(a, b):
    """Schoolbook product of two {(i, j): c} dicts, zeros dropped."""
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def substitute_by_powers(terms, repl):
    """sum of c * x^i * repl^j over the {(i, j): c} terms, with each
    power repl^j built by repeated multiplication."""
    top = max((j for _, j in terms), default=0)
    powers = [{(0, 0): 1}]
    for _ in range(top):
        powers.append(bivariate_product(powers[-1], repl))
    out = {}
    for (i, j), c in terms.items():
        for (a, b), d in powers[j].items():
            out[(a + i, b)] = out.get((a + i, b), 0) + c * d
    return {k: c for k, c in out.items() if c}


def chebyshev_by_recursion(terms):
    """A {(k, j): c} dict for c * t^k * u^j, symmetric under k -> -k, as
    {(i, j): c} for c * x^i * u^j with x = t + 1/t: the column of t^0,
    plus each column of t^k (k >= 1) times V_k(x), where V_0 = 2,
    V_1 = x and V_k = x V_(k-1) - V_(k-2), each V_k built from the two
    before it."""
    columns = {}
    for (k, j), c in terms.items():
        if k >= 0:
            columns.setdefault(k, {})[(0, j)] = c
    out = dict(columns.get(0, {}))
    v_prev, v = {(0, 0): 2}, {(1, 0): 1}  # V_(k-1), V_k
    for k in range(1, max(columns, default=0) + 1):
        for key, c in bivariate_product(v, columns.get(k, {})).items():
            out[key] = out.get(key, 0) + c
        nxt = {(i + 1, j): c for (i, j), c in v.items()}
        for key, c in v_prev.items():
            nxt[key] = nxt.get(key, 0) - c
        v_prev, v = v, {key: c for key, c in nxt.items() if c}
    return {key: c for key, c in out.items() if c}


def riley_rows(m, n):
    """The entries (W_11, W_12, W_21, W_22) of W = C^eps1 D^eps2 C^eps3 ...
    over Z[t^+-1, u], C = [[t, 1], [0, 1/t]], D = [[t, 0], [u, 1/t]], as
    {(i, j): c} dicts for c * t^i * u^j, zeros dropped. Each letter
    updates both rows (a, b): C^s sends them to (a t^s, s a + b t^-s) and
    D^s to (a t^s + s b u, b t^-s)."""

    def add_into(out, terms, k):
        for key, c in terms.items():
            c = out.get(key, 0) + k * c
            if c:
                out[key] = c
            else:
                del out[key]

    rows = [[{(0, 0): 1}, {}], [{}, {(0, 0): 1}]]
    for i, s in enumerate(epsilon_oracle(m, n), start=1):
        for row in rows:
            a = {(e + s, j): c for (e, j), c in row[0].items()}
            b = {(e - s, j): c for (e, j), c in row[1].items()}
            if i % 2 == 1:
                add_into(b, row[0], s)
            else:
                add_into(a, {(e, j + 1): c for (e, j), c in row[1].items()}, s)
            row[:] = a, b
    return [e for row in rows for e in row]


def group_ring_matrix(rep, elt):
    """sum of c * rho(w) over the {w: c} group-ring element elt, each
    rho(w) the product of rep's generator matrices along w."""
    one, zero = rep.ring.one, rep.ring.zero
    acc = Mat2.identity(zero, zero)
    for w, c in elt.items():
        acc = acc + word_matrix(rep.matrices, w, one, zero).map(lambda e: e * c)
    return acc


def _random_residues(rng: random.Random, ring, unit: bool):
    if isinstance(ring, Zp):
        while True:
            r = rng.randrange(ring.modulus)
            if not unit or r % ring.p:
                return ring(r)
    cs = [rng.randrange(ring.base.modulus) for _ in range(ring.D + 1)]
    if unit:
        while cs[0] % ring.p == 0:
            cs[0] = rng.randrange(ring.base.modulus)
    return ring(cs)


def _inverse(u):
    """1/u for a unit of Zp, or of ZpT by the recurrence
    b_k = -b_0 * sum_(j=1..k) u_j b_(k-j) on its coefficient list."""
    if isinstance(u.ring, Zp):
        return u.invert_unit()
    m = u.ring.base.modulus
    inv = [pow(u.coeffs[0], -1, m)]
    for k in range(1, u.ring.D + 1):
        inv.append(-inv[0] * sum(u.coeffs[j] * inv[k - j] for j in range(1, k + 1)) % m)
    return u.ring(inv)


def build_modp_rep(p, x0, y0):
    """(rho(g1), rho(g2)) over Zp(p, 1) with character (x0, y0): C and D
    of riley's setup at the eigenvalue a = (x0 + r) / 2, with r the root
    of x0^2 - 4 in [0, (p-1)/2], and u = y0 - x0^2 + 2. None when
    x0^2 - 4 is not a square mod p. The pair satisfies the group
    relation where (x0, y0) lies on the Riley curve; callers check it."""
    ring = Zp(p, 1)
    r = next((s for s in range((p + 1) // 2) if (s * s - x0 * x0 + 4) % p == 0), None)
    if r is None:
        return None
    a = ring((x0 + r) * pow(2, -1, p))  # a (x0 - a) = (x0^2 - r^2) / 4 = 1
    u = ring(y0 - x0 * x0 + 2)
    return Mat2(a, ring.one, ring.zero, a.invert_unit()), Mat2(a, ring.zero, u, a.invert_unit())


def random_sl2(rng: random.Random, ring) -> Mat2:
    """Element of SL2 over Zp or ZpT with determinant exactly 1, built
    constructively: either a is a unit and d = (1 + bc) / a, or a = 0,
    c = -1/b and d is free."""
    if rng.random() < 0.15:
        b = _random_residues(rng, ring, unit=True)
        d = _random_residues(rng, ring, unit=False)
        return Mat2(ring.zero, b, -_inverse(b), d)
    a = _random_residues(rng, ring, unit=True)
    b = _random_residues(rng, ring, unit=False)
    c = _random_residues(rng, ring, unit=False)
    d = (b * c + 1) * _inverse(a)
    return Mat2(a, b, c, d)
