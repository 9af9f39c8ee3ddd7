"""Independent checks of twobridge CLI outputs.

Plain integers and the standard library only: nothing here imports
twobridge, so a fault in the package cannot also corrupt the check that
should catch it.  Every check takes the parsed ``--json`` document of one
CLI call and returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

# Reference data of the paper's worked examples 4.5.1-4.5.3b, written out
# here rather than read from the package registry.  alpha_poly lists the
# ascending integer coefficients of a polynomial that alpha must satisfy
# mod p^N: alpha = 2, alpha = -2 and alpha = (3 -+ sqrt 5)/2.
FAMILIES = {
    "rho1": {"m": 3, "n": 1, "p": 3, "point": (2, 1), "l": (0, 0), "alpha_poly": (-2, 1)},
    "rho2": {"m": 5, "n": 3, "p": 7, "point": (5, 5), "l": (0, 0), "alpha_poly": (2, 1)},
    "rho3": {"m": 7, "n": 3, "p": 11, "point": (5, 5), "l": (0, 2), "alpha_poly": (1, -3, 1)},
    "rho4": {"m": 7, "n": 3, "p": 19, "point": (6, 6), "l": (0, 2), "alpha_poly": (1, -3, 1)},
}
EXAMPLE_FAMILY = {"4.5.1": "rho1", "4.5.2": "rho2", "4.5.3a": "rho3", "4.5.3b": "rho4"}


def epsilon(m: int, n: int) -> list[int]:
    """epsilon_i = (-1)^floor(i n / m) for i = 1 .. m-1."""
    return [-1 if (i * n // m) % 2 else 1 for i in range(1, m)]


# --- truncated series over Z/q, as coefficient lists ---------------------


def _smul(a: list[int], b: list[int], q: int) -> list[int]:
    size = len(a)
    out = [0] * size
    for i, x in enumerate(a):
        if x:
            for j in range(size - i):
                out[i + j] += x * b[j]
    return [c % q for c in out]


def _sadd(a: list[int], b: list[int], q: int) -> list[int]:
    return [(x + y) % q for x, y in zip(a, b)]


def _mmul(A, B, q):
    a, b, c, d = A
    e, f, g, h = B
    return (
        _sadd(_smul(a, e, q), _smul(b, g, q), q),
        _sadd(_smul(a, f, q), _smul(b, h, q), q),
        _sadd(_smul(c, e, q), _smul(d, g, q), q),
        _sadd(_smul(c, f, q), _smul(d, h, q), q),
    )


def _adjugate(A, q):
    a, b, c, d = A
    return (d, [(-x) % q for x in b], [(-x) % q for x in c], a)


def _valuation(c: int, p: int, cap: int) -> int:
    if c == 0:
        return cap
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def _parse_matrix(rows, q: int, size: int):
    entries = [[int(c) for c in e] for row in rows for e in row]
    if len(entries) != 4 or any(len(e) != size or any(not 0 <= c < q for c in e) for e in entries):
        return None
    return tuple(entries)


# --- lift ------------------------------------------------------------------


def check_lift(out: dict, key: str, N: int, D: int) -> list[str]:
    """det g_i = 1, tr g_i = alpha + T, w g1 = g2 w, alpha and the
    certificate as the paper states them."""
    fam = FAMILIES[key]
    p, q = fam["p"], fam["p"] ** N
    problems = []
    if (out.get("example"), out.get("p"), out.get("N"), out.get("D")) != (key, p, N, D):
        problems.append("header %r differs from the request" % ([out.get(k) for k in ("example", "p", "N", "D")],))
    cert = out.get("certificate", {})
    if not (cert.get("ok") is True and cert.get("regular") is True and tuple(cert.get("char_point", ())) == fam["point"]):
        problems.append("certificate %r is not ok at %r" % (cert, fam["point"]))
    alpha = int(out["alpha"]["residue"])
    if sum(c * alpha**k for k, c in enumerate(fam["alpha_poly"])) % q or alpha % p != fam["point"][0] % p:
        problems.append("alpha = %d is not the family's trace point" % alpha)
    mats = [_parse_matrix(out.get(g, []), q, D + 1) for g in ("g1", "g2")]
    if None in mats:
        return problems + ["g1/g2 are not 2x2 matrices of %d residues mod p^N" % (D + 1)]
    one = [1] + [0] * D
    trace = ([alpha, 1] + [0] * D)[: D + 1]
    for i, g in enumerate(mats, 1):
        a, b, c, d = g
        det = [(x - y) % q for x, y in zip(_smul(a, d, q), _smul(b, c, q))]
        if det != one:
            problems.append("det g%d != 1" % i)
        if _sadd(a, d, q) != trace:
            problems.append("tr g%d != alpha + T" % i)
    if problems:
        return problems
    g1, g2 = mats
    w = (one, [0] * (D + 1), [0] * (D + 1), one)
    for i, e in enumerate(epsilon(fam["m"], fam["n"]), 1):
        g = g1 if i % 2 else g2
        w = _mmul(w, g if e == 1 else _adjugate(g, q), q)
    if _mmul(w, g1, q) != _mmul(g2, w, q):
        problems.append("group relation w g1 = g2 w fails")
    return problems


# --- lfunction -----------------------------------------------------------


def normal_form(minors: list[list[int]], p: int, N: int) -> tuple[int, int, bool] | None:
    """(mu, lambda, certified) of the gcd of the series, recomputed from
    their coefficients; None when every series vanishes at precision."""
    nonzero = [f for f in minors if any(f)]
    if not nonzero:
        return None
    mu = min(_valuation(c, p, N) for f in minors for c in f)
    lam = min(next(k for k, c in enumerate(f) if c) for f in nonzero)
    certified = any(
        next(k for k, c in enumerate(f) if c) == lam and _valuation(f[lam], p, N) == mu for f in nonzero
    )
    return mu, lam, certified


def check_lfunction(out: dict, key: str, N: int, D: int) -> list[str]:
    fam = FAMILIES[key]
    p, q = fam["p"], fam["p"] ** N
    minors = [[int(c) for c in f] for f in out.get("minors", [])]
    if out.get("example") != key or len(minors) != 6:
        return ["expected six minors for %s" % key]
    if any(len(f) != D + 1 or any(not 0 <= c < q for c in f) for f in minors):
        return ["minors are not series of %d residues mod p^N" % (D + 1)]
    nf = normal_form(minors, p, N)
    printed = (out.get("mu"), out.get("lambda"), out.get("certified"))
    problems = []
    if nf != printed:
        problems.append("printed normal form %r, recomputed %r" % (printed, nf))
    if nf is None or nf[:2] != fam["l"] or not nf[2]:
        problems.append("(mu, lambda, certified) = %r, paper has %r certified" % (nf, fam["l"]))
    return problems


# --- exactness across precisions ----------------------------------------


def _series_fields(kind: str, out: dict) -> list[list[int]]:
    if kind == "lift":
        return [[int(out["alpha"]["residue"])]] + [
            [int(c) for c in e] for g in ("g1", "g2") for row in out[g] for e in row
        ]
    return [[int(c) for c in f] for f in out["minors"]]


def check_reduction(kind: str, key: str, a: tuple[int, int, dict], b: tuple[int, int, dict]) -> list[str]:
    """Two (N, D, output) results of one family agree mod (p^N, T^(D+1))
    at the smaller N and D: the README's promise that every printed digit
    is exact."""
    p = FAMILIES[key]["p"]
    N, D = min(a[0], b[0]), min(a[1], b[1])
    q = p**N

    def reduce(out):
        return [[c % q for c in f[: D + 1]] for f in _series_fields(kind, out)]

    if reduce(a[2]) != reduce(b[2]):
        return ["%s %s at (N, D) = %r and %r differ mod (p^%d, T^%d)" % (kind, key, a[:2], b[:2], N, D + 1)]
    return []


# --- Riley polynomials and character points -----------------------------
#
# A point (x0, y0) off the abelian line y = x^2 - 2 lies on the character
# scheme exactly when C = [[z, 1], [0, 1/z]] and D = [[z, 0], [u0, 1/z]],
# with u0 = y0 - x0^2 + 2, satisfy W C = D W over E = F_p[z]/(z^2 - x0 z + 1),
# W the epsilon word in C and D.  relation_roots builds W with u left as a
# variable and returns every u0 in F_p at which the relation holds.


def relation_roots(eps: list[int], p: int, x0: int) -> set[int]:
    def emul(a, b):  # (a0 + a1 z)(b0 + b1 z) with z^2 = x0 z - 1
        return (a[0] * b[0] - a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0] + a[1] * b[1] * x0) % p

    def pscale(f, s):  # polynomial in u (list of E elements) times s in E
        return [emul(c, s) for c in f]

    def padd(f, g):
        if len(f) < len(g):
            f, g = g, f
        return [((c[0] + d[0]) % p, (c[1] + d[1]) % p) for c, d in zip(f, g)] + f[len(g):]

    def shift(f, s):  # f * (s u)
        return [(0, 0)] + pscale(f, s)

    z, zinv, one, neg = (0, 1), (x0 % p, p - 1), (1, 0), (p - 1, 0)
    A, B, C, Dd = [one], [(0, 0)], [(0, 0)], [one]  # W = [[A, B], [C, Dd]]
    for i, e in enumerate(eps, 1):
        if i % 2:  # right factor C or C^-1 = [[1/z, -1], [0, z]]
            if e == 1:
                A, B, C, Dd = pscale(A, z), padd(A, pscale(B, zinv)), pscale(C, z), padd(C, pscale(Dd, zinv))
            else:
                A, B, C, Dd = pscale(A, zinv), padd(pscale(A, neg), pscale(B, z)), pscale(C, zinv), padd(pscale(C, neg), pscale(Dd, z))
        else:  # right factor D = [[z, 0], [u, 1/z]] or D^-1 = [[1/z, 0], [-u, z]]
            if e == 1:
                A, B, C, Dd = padd(pscale(A, z), shift(B, one)), pscale(B, zinv), padd(pscale(C, z), shift(Dd, one)), pscale(Dd, zinv)
            else:
                A, B, C, Dd = padd(pscale(A, zinv), shift(B, neg)), pscale(B, z), padd(pscale(C, zinv), shift(Dd, neg)), pscale(Dd, z)
    WC = (pscale(A, z), padd(A, pscale(B, zinv)), pscale(C, z), padd(C, pscale(Dd, zinv)))
    DW = (pscale(A, z), pscale(B, z), padd(shift(A, one), pscale(C, zinv)), padd(shift(B, one), pscale(Dd, zinv)))
    diffs = [padd(f, pscale(g, neg)) for f, g in zip(WC, DW)]
    roots = set()
    for u0 in range(p):
        for f in diffs:
            a0 = a1 = 0
            for c in reversed(f):
                a0, a1 = (a0 * u0 + c[0]) % p, (a1 * u0 + c[1]) % p
            if a0 or a1:
                break
        else:
            roots.add(u0)
    return roots


def check_riley(out: dict, m: int, n: int, small_p: int) -> list[str]:
    """psi is monic in y of degree (m-1)/2, and off the abelian line its
    zeros mod small_p are exactly the points where the relation holds."""
    if (out.get("m"), out.get("n")) != (m, n):
        return ["header differs from B(%d, %d)" % (m, n)]
    psi = {(i, j): c for i, j, c in out["psi"]}
    k = (m - 1) // 2
    if max(j for _, j in psi) != k or {ij: c for ij, c in psi.items() if ij[1] == k} != {(0, k): 1}:
        return ["psi is not monic in y of degree %d" % k]
    if min(i for i, _ in psi) < 0:
        return ["psi has a negative power of x"]
    p = small_p
    eps = epsilon(m, n)
    for x0 in range(p):
        roots = relation_roots(eps, p, x0)
        for y0 in range(p):
            u0 = (y0 - x0 * x0 + 2) % p
            if u0 == 0:
                continue
            vanishes = sum(c * pow(x0, i, p) * pow(y0, j, p) for (i, j), c in psi.items()) % p == 0
            if vanishes != (u0 in roots):
                return ["psi(%d, %d) mod %d is %s but the relation %s" % (
                    x0, y0, p, "0" if vanishes else "nonzero", "fails" if vanishes else "holds")]
    return []


def check_char_points(out: dict, m: int, n: int, p: int) -> list[str]:
    """Every reported point lies on the abelian line or satisfies the
    relation, and every point that does is reported, with its flags."""
    if (out.get("m"), out.get("n"), out.get("p")) != (m, n, p):
        return ["header differs from B(%d, %d) over F_%d" % (m, n, p)]
    pts = out.get("points", [])
    if out.get("count") != len(pts):
        return ["count %r != %d listed points" % (out.get("count"), len(pts))]
    got = {(q["x"], q["y"]): (q["on_abelian_line"], q["absolutely_irreducible"]) for q in pts}
    if len(got) != len(pts):
        return ["duplicate points"]
    eps = epsilon(m, n)
    want = {}
    for x0 in range(p):
        line = (x0 * x0 - 2) % p
        want[(x0, line)] = (True, False)
        for u0 in relation_roots(eps, p, x0):
            if u0:
                want[(x0, (u0 + line) % p)] = (False, True)
    if got != want:
        missing = sorted(set(want) - set(got))[:3]
        extra = sorted(set(got) - set(want))[:3]
        flags = sorted(k for k in set(got) & set(want) if got[k] != want[k])[:3]
        return ["points differ: missing %r, extra %r, wrong flags %r" % (missing, extra, flags)]
    return []


# --- verify-example ----------------------------------------------------------


def check_verify(out: dict, example_id: str) -> list[str]:
    l_expected = FAMILIES[EXAMPLE_FAMILY[example_id]]["l"]
    problems = []
    if not (out.get("ok") is True and out.get("stable") is True):
        problems.append("ok=%r stable=%r" % (out.get("ok"), out.get("stable")))
    for name, NDs in (("base", (8, 8)), ("escalated", (12, 12))):
        run = out.get(name, {})
        if (run.get("example_id"), run.get("N"), run.get("D")) != (example_id, *NDs):
            problems.append("%s run header %r" % (name, [run.get(k) for k in ("example_id", "N", "D")]))
        failed = [r.get("name") for r in run.get("rows", []) if r.get("passed") is not True]
        if failed or not run.get("rows"):
            problems.append("%s rows not passed: %r" % (name, failed))
        lf = run.get("l") or {}
        if (lf.get("mu"), lf.get("lambda"), lf.get("certified")) != (*l_expected, True):
            problems.append("%s L = %r, paper has %r certified" % (name, lf, l_expected))
    return problems
