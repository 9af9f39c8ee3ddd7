"""Laurent polynomials in t over Z/p^N.

Coefficients are residues mod p^N keyed by integer exponent. Units of
the ring are c * t^k with c a unit residue; "equal up to unit" means
equal after multiplying by one of those.
"""

from __future__ import annotations

from .padics import Indeterminate, PadicInt, Zp, poly_eval


class LaurentPoly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Zp, coeffs: dict[int, int] | None = None):
        m = ring.modulus
        clean = {}
        for k, c in (coeffs or {}).items():
            c %= m
            if c:
                clean[k] = c
        self.ring = ring
        self.coeffs = clean

    @classmethod
    def zero(cls, ring: Zp) -> "LaurentPoly":
        return cls(ring, {})

    def _check(self, other: "LaurentPoly") -> None:
        if self.ring is not other.ring:
            raise ValueError("mixed rings: %r vs %r" % (self.ring, other.ring))

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return LaurentPoly(self.ring, out)

    def __neg__(self):
        return LaurentPoly(self.ring, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, PadicInt)):
            c = other.r if isinstance(other, PadicInt) else other
            return LaurentPoly(self.ring, {k: v * c for k, v in self.coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        out: dict[int, int] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly(self.ring, out)

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def min_exp(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    def max_exp(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    def coefficient(self, k: int) -> PadicInt:
        return self.ring(self.coeffs.get(k, 0))

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly(self.ring, {e + k: c for e, c in self.coeffs.items()})

    def evaluate(self, t0) -> PadicInt:
        if isinstance(t0, int):
            t0 = self.ring(t0)
        if t0.ring is not self.ring:
            raise ValueError("evaluation point from incompatible ring")
        if self.is_zero:
            return self.ring.zero
        lo = self.min_exp()
        if lo < 0 and not t0.is_unit:
            raise ValueError("negative exponents require a unit evaluation point")
        # evaluate t^lo * (polynomial part)
        acc = poly_eval([self.coefficient(e) for e in range(lo, self.max_exp() + 1)], t0)
        return acc * t0**lo if lo else acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.ring is other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.coeffs.items())))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if k == 0:
                parts.append(str(c))
            else:
                var = "t" if k == 1 else "t^%d" % k
                parts.append(var if c == 1 else "%d*%s" % (c, var))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return "LaurentPoly(%s ; mod %d^%d)" % (self, self.ring.p, self.ring.N)


def divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """num / den when the division is exact, else None.

    Requires the leading coefficient of den to be a unit (long division
    over Z/p^N is then well defined).
    """
    num._check(den)
    if den.is_zero:
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    if num.is_zero:
        return LaurentPoly.zero(num.ring)
    if not den.coefficient(den.max_exp()).is_unit:
        raise Indeterminate("divisor leading coefficient is not a unit")
    # shift to genuine polynomials with nonzero constant terms
    a, b = num.min_exp(), den.min_exp()
    r = {e - a: c for e, c in num.coeffs.items()}
    d = {e - b: c for e, c in den.coeffs.items()}
    q, r = _poly_divmod(r, d, num.ring.modulus)
    if r:
        return None
    return LaurentPoly(num.ring, {e + a - b: c for e, c in q.items()})


def eq_up_to_unit(f: LaurentPoly, g: LaurentPoly) -> bool:
    """True iff g = c * t^k * f for a unit residue c and integer k."""
    f._check(g)
    if f.is_zero or g.is_zero:
        return f.is_zero and g.is_zero
    fn = f.shift(-f.min_exp())
    gn = g.shift(-g.min_exp())
    if set(fn.coeffs) != set(gn.coeffs):
        return False
    anchor = None
    for e in sorted(fn.coeffs):
        if fn.coefficient(e).is_unit:
            anchor = e
            break
    if anchor is None:
        if any(gn.coefficient(e).is_unit for e in gn.coeffs):
            return False
        raise Indeterminate("no unit coefficient to anchor the unit-equivalence test")
    c = gn.coefficient(anchor) * fn.coefficient(anchor).invert_unit()
    if not c.is_unit:
        return False
    return fn * c == gn


def _poly_divmod(r: dict[int, int], d: dict[int, int], m: int):
    """Quotient and remainder of r by d over Z/m, on exponent -> residue
    dicts (zero is {}); the leading coefficient of d must be a unit mod m."""
    ddeg = max(d)
    dinv = pow(d[ddeg], -1, m)
    q: dict[int, int] = {}
    r = dict(r)
    while r and max(r) >= ddeg:
        rdeg = max(r)
        factor = (r[rdeg] * dinv) % m
        q[rdeg - ddeg] = factor
        for e, c in d.items():
            k = e + rdeg - ddeg
            r[k] = (r.get(k, 0) - factor * c) % m
            if r[k] == 0:
                del r[k]
    return q, r


def _poly_gcd_field(a: dict[int, int], b: dict[int, int], p: int) -> dict[int, int]:
    """Monic gcd over F_p of two exponent -> residue dicts (zero is {})."""
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    if not a:
        return {}
    inv = pow(a[max(a)], -1, p)
    return {e: (c * inv) % p for e, c in a.items()}


def laurent_gcd(polys: list[LaurentPoly]) -> LaurentPoly:
    """Monic gcd in F_p[t, t^-1], normalized to minimal exponent 0.

    Only defined over the residue field (N = 1); the Z/p^N analogue is
    handled by divisor normal forms instead.
    """
    nonzero = [f for f in polys if not f.is_zero]
    if not nonzero:
        ring = polys[0].ring if polys else None
        if ring is None:
            raise ValueError("gcd of an empty list")
        return LaurentPoly.zero(ring)
    ring = nonzero[0].ring
    if ring.N != 1:
        raise NotImplementedError("laurent_gcd requires the residue field (N=1)")
    # t is a unit: each input's gcd is that of its copy with a nonzero
    # constant term, and the polynomial gcd of such copies has one too
    acc = {}
    for f in nonzero:
        acc = _poly_gcd_field(acc, f.shift(-f.min_exp()).coeffs, ring.p)
    return LaurentPoly(ring, acc)
