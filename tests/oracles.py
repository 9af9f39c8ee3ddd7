"""Independent brute-force oracles shared by the test suite.

Everything here is self-contained on purpose: no imports from the
package under test, plain integer arithmetic only. The character-scheme
scan decides membership of (x0, y0) by exhibiting an actual pair of
2x2 matrices over F_p[z]/(z^2 - x0 z + 1) and checking the single group
relation, rather than by evaluating any polynomial produced by the
library. psi_scan does evaluate a given Psi, point by point, so it
checks only how the points of that Psi are found.
"""


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
