"""Independent brute-force oracles shared by the test suite.

Everything here is self-contained on purpose: no imports from the
package under test, plain integer arithmetic only. The character-scheme
scan decides membership of (x0, y0) by exhibiting an actual pair of
2x2 matrices over F_p[z]/(z^2 - x0 z + 1) and checking the single group
relation, rather than by evaluating any polynomial produced by the
library.
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
