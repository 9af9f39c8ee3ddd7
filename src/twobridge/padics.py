"""Truncated p-adic arithmetic: Z/p^N and Z/p^N[[T]]/T^(D+1).

Both rings are exact at a declared working precision. An element equal
to 0 here means "indistinguishable from zero at precision"; callers that
need to certify a genuine zero must re-run at higher precision (the
pipeline re-runs at N+4, D+4). The residue field F_p is Zp(p, 1).

Rings are interned: Zp(p, N) and ZpT(p, N, D) return one object per
key, so elements of one ring share their ring by identity and a prime is
tested once per ring. PadicInt.to_ring maps an element to another Zp
over the same p: reduction to a smaller one, or the lift that keeps
every digit to a larger one. A PadicSeries has no inverse: no path
divides by a series.

Series multiplication is the schoolbook convolution, reduced once per
coefficient. Where D >= _KRONECKER_MIN_D, p^N fits in a 64-bit word
with room to spare and each operand has three or more nonzero
coefficients, it is one integer product instead (Kronecker
substitution; Harvey 2009): each operand, trimmed of trailing zero
coefficients, is packed into slots of one or two 64-bit words, at least
2*bits(p^N) + bits(D+1) bits wide so that no slot of the product carries
into the next, and the low D+1 slots are read back.

Square roots follow a fixed branch: sqrt(a) is the root whose reduction
mod (p, T) lies in {1, ..., (p-1)/2}, lifted as the root of y^2 - a.
hensel_root lifts a simple root from a root mod (p, T). Over Z_p it is
Newton's step s -> s - f(s)/f'(s), its first steps at doubling precision
in Zp(p, n), n = 2, 4, 8, ... < N (Brent and Kung 1978); each step
starts from a root in the previous, half-size ring, so f'(s) is inverted
there, and the loop returns at the first zero residual at full
precision. A series root is lifted over Z_p first, then solved in T one
coefficient at a time by its recurrence, with f'(s_0) inverted once in
Zp(p, N) and no series inversion, and checked once: f(s) = 0 at full
precision. With schoolbook products this is cheaper than Newton in T,
which repeats whole products at every step (van der Hoeven 2002).
"""

from __future__ import annotations

import struct
from operator import mul
from typing import NamedTuple, Sequence


class NonUnit(ArithmeticError):
    """Inversion (or sqrt) applied to an element of positive valuation."""


class NoSquareRoot(ArithmeticError):
    """The residue mod p is not a nonzero quadratic residue."""


class BadSeed(ArithmeticError):
    """Hensel seed does not kill f mod the maximal ideal."""


class SingularRoot(ArithmeticError):
    """Hensel seed is a multiple root mod the maximal ideal."""


class Indeterminate(ArithmeticError):
    """Result cannot be decided at the working precision."""


# --- primality and square roots mod p ----------------------------------

# The first 13 primes decide primality by strong probable-prime tests for
# every n below _PROVEN_BOUND (Sorenson & Webster 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PROVEN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the bases 2, 3, ..., 41.

    Raises ValueError at and above 3317044064679887385961981, where
    these bases are not proven to decide.
    """
    if n >= _PROVEN_BOUND:
        raise ValueError("primality is decided only below %d, got %d" % (_PROVEN_BOUND, n))
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """The square root of a mod the odd prime p in [0, (p-1)/2], or None.

    Tonelli-Shanks (Shanks 1973); None when a is not a square mod p.
    Raises ValueError when the search for a non-residue finds none, which
    cannot happen for a prime p.
    """
    a %= p
    if a == 0:
        return 0
    half = (p - 1) // 2
    if pow(a, half, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next((z for z in range(2, p) if pow(z, half, p) == p - 1), None)
    if z is None:
        raise ValueError("no quadratic non-residue mod %d; p must be an odd prime" % p)
    # invariant: r^2 = a t, t has order dividing 2^(m-1), c has order 2^m
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


def _newton_cap(modulus_exponent: int) -> int:
    # Newton doubles p-adic precision per step; small slack on top.
    return max(1, modulus_exponent.bit_length()) + 4


# The smallest D at which a series product is one integer product
# (Kronecker substitution). Measured on CPython 3.11 (ROADMAP 2(d)):
# end to end, lift is unchanged at D <= 12 and faster from D = 16.
_KRONECKER_MIN_D = 16


def power(base, k: int, one):
    """base^k for k >= 0 by square-and-multiply; one is the ring's 1."""
    if k < 0:
        raise ValueError("negative exponent %d" % k)
    out = one
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:  # the square after the top bit would go unused
            base = base * base
    return out


class _Interned(type):
    """Metaclass of the ring descriptors: one object per constructor key,
    so rings compare by identity and each is validated once."""

    _rings: dict = {}

    def __call__(cls, *key):
        ring = cls._rings.get((cls, key))
        if ring is None:
            ring = cls._rings[(cls, key)] = super().__call__(*key)
        return ring


class Zp(metaclass=_Interned):
    """Descriptor of Z/p^N for an odd prime p; N=1 is the field F_p."""

    __slots__ = ("p", "N", "modulus")

    def __init__(self, p: int, N: int):
        if p == 2 or not is_prime(p):
            raise ValueError("p must be an odd prime, got %r" % (p,))
        if N < 1:
            raise ValueError("precision N must be >= 1, got %r" % (N,))
        self.p = p
        self.N = N
        self.modulus = p**N

    def __call__(self, n: int) -> "PadicInt":
        return PadicInt(self, n % self.modulus)

    @property
    def zero(self) -> "PadicInt":
        return self(0)

    @property
    def one(self) -> "PadicInt":
        return self(1)

    def __repr__(self) -> str:
        return "Zp(%d, %d)" % (self.p, self.N)


class PadicInt:
    """Residue in [0, p^N), exact arithmetic mod p^N."""

    __slots__ = ("ring", "r")

    def __init__(self, ring: Zp, r: int):
        self.ring = ring
        self.r = r % ring.modulus

    def _check(self, other: "PadicInt") -> None:
        if self.ring is not other.ring:
            raise ValueError("mixed rings: %r vs %r" % (self.ring, other.ring))

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring(other)
        if not isinstance(other, PadicInt):
            return NotImplemented
        self._check(other)
        return PadicInt(self.ring, self.r + other.r)

    __radd__ = __add__

    def __neg__(self):
        return PadicInt(self.ring, -self.r)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring(other)
        if not isinstance(other, PadicInt):
            return NotImplemented
        self._check(other)
        return PadicInt(self.ring, self.r - other.r)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return PadicInt(self.ring, self.r * other)
        if not isinstance(other, PadicInt):
            return NotImplemented
        self._check(other)
        return PadicInt(self.ring, self.r * other.r)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.invert_unit() ** (-k)
        return PadicInt(self.ring, pow(self.r, k, self.ring.modulus))

    @property
    def is_zero(self) -> bool:
        return self.r == 0

    @property
    def is_unit(self) -> bool:
        return self.r % self.ring.p != 0

    def valuation(self) -> int:
        """p-adic valuation, capped at N (the zero residue reports N)."""
        if self.r == 0:
            return self.ring.N
        v, r = 0, self.r
        while r % self.ring.p == 0:
            v += 1
            r //= self.ring.p
        return v

    def invert_unit(self) -> "PadicInt":
        if not self.is_unit:
            raise NonUnit("cannot invert %r" % (self,))
        return PadicInt(self.ring, pow(self.r, -1, self.ring.modulus))

    def residue(self) -> int:
        """Reduction mod the maximal ideal (p)."""
        return self.r % self.ring.p

    def to_ring(self, ring: Zp) -> "PadicInt":
        """The image in Zp(p, n): reduction mod p^n, or for n > N the
        lift with the same residue in [0, p^N)."""
        return self if ring is self.ring else PadicInt(ring, self.r)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.r == other % self.ring.modulus
        return isinstance(other, PadicInt) and self.ring is other.ring and self.r == other.r

    def __hash__(self) -> int:
        return hash((self.ring, self.r))

    def __str__(self) -> str:
        return str(self.r)

    def __repr__(self) -> str:
        return "PadicInt(%d mod %d^%d)" % (self.r, self.ring.p, self.ring.N)


class ZpT(metaclass=_Interned):
    """Descriptor of Z/p^N[[T]]/T^(D+1)."""

    __slots__ = ("p", "N", "D", "base", "slot")

    def __init__(self, p: int, N: int, D: int):
        self.base = Zp(p, N)
        if D < 0:
            raise ValueError("degree bound D must be >= 0, got %r" % (D,))
        self.p = p
        self.N = N
        self.D = D
        # 64-bit words per slot of a Kronecker product, wide enough for a sum
        # of D+1 products of coefficients; 0 selects the schoolbook product
        bits = 2 * self.base.modulus.bit_length() + (D + 1).bit_length()
        self.slot = -(-bits // 64) if bits <= 128 and D >= _KRONECKER_MIN_D else 0

    def __call__(self, coeffs: Sequence[int]) -> "PadicSeries":
        m = self.base.modulus
        cs = [c % m for c in list(coeffs)[: self.D + 1]]
        cs += [0] * (self.D + 1 - len(cs))
        return PadicSeries(self, tuple(cs))

    def constant(self, c) -> "PadicSeries":
        if isinstance(c, PadicInt):
            if c.ring is not self.base:
                raise ValueError("constant from incompatible ring %r" % (c.ring,))
            c = c.r
        return self([c])

    @property
    def zero(self) -> "PadicSeries":
        return self([])

    @property
    def one(self) -> "PadicSeries":
        return self([1])

    def __repr__(self) -> str:
        return "ZpT(%d, %d, %d)" % (self.p, self.N, self.D)


def _packed(coeffs: tuple[int, ...], w: int) -> tuple[int, int]:
    """The integer with the coefficients, trailing zeros trimmed, in slots
    of w 64-bit words, lowest first; and the number of slots."""
    k = len(coeffs)
    while k and not coeffs[k - 1]:
        k -= 1
    words = [0] * (w * k)
    words[::w] = coeffs[:k]
    return int.from_bytes(struct.pack("<%dQ" % len(words), *words), "little"), k


class PadicSeries:
    """Coefficient tuple (c_0, ..., c_D), each an integer mod p^N."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: ZpT, coeffs: tuple[int, ...]):
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other: "PadicSeries") -> None:
        if self.ring is not other.ring:
            raise ValueError("mixed rings: %r vs %r" % (self.ring, other.ring))

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ring.constant(other)
        if isinstance(other, PadicInt):
            return self.ring.constant(other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if not isinstance(other, PadicSeries):
            return NotImplemented
        self._check(other)
        m = self.ring.base.modulus
        return PadicSeries(self.ring, tuple([(a + b) % m for a, b in zip(self.coeffs, other.coeffs)]))

    __radd__ = __add__

    def __neg__(self):
        m = self.ring.base.modulus
        return PadicSeries(self.ring, tuple([-a % m for a in self.coeffs]))

    def __sub__(self, other):
        other = self._coerce(other)
        if not isinstance(other, PadicSeries):
            return NotImplemented
        self._check(other)
        m = self.ring.base.modulus
        return PadicSeries(self.ring, tuple([(a - b) % m for a, b in zip(self.coeffs, other.coeffs)]))

    def __rsub__(self, other):
        other = self._coerce(other)
        if not isinstance(other, PadicSeries):
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, int):
            m = self.ring.base.modulus
            return PadicSeries(self.ring, tuple([a * other % m for a in self.coeffs]))
        if isinstance(other, PadicInt):
            if other.ring is not self.ring.base:
                raise ValueError("scalar from incompatible ring %r" % (other.ring,))
            return self * other.r
        if not isinstance(other, PadicSeries):
            return NotImplemented
        self._check(other)
        ring = self.ring
        D, m, w = ring.D, ring.base.modulus, ring.slot
        xs, ys = self.coeffs, other.coeffs
        if ys.count(0) >= D - 1:  # at most two nonzero coefficients: put them on the left
            xs, ys = ys, xs
        if w and xs.count(0) < D - 1:  # Kronecker on dense operands only
            x, la = _packed(xs, w)
            y, lb = _packed(ys, w)
            buf = (x * y).to_bytes(8 * w * max(la + lb, D + 1), "little")
            words = struct.unpack_from("<%dQ" % (w * (D + 1)), buf)
            out = words if w == 1 else [lo | hi << 64 for lo, hi in zip(words[::2], words[1::2])]
        else:
            out = [0] * (D + 1)
            for i, a in enumerate(xs):
                if a:
                    for j in range(D + 1 - i):
                        out[i + j] += a * ys[j]
        return PadicSeries(ring, tuple([c % m for c in out]))  # one reduction per coefficient

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, self.ring.one)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_unit(self) -> bool:
        return self.coeffs[0] % self.ring.p != 0

    def coefficient(self, k: int) -> PadicInt:
        return self.ring.base(self.coeffs[k])

    def residue(self) -> int:
        """Reduction mod the maximal ideal (p, T)."""
        return self.coeffs[0] % self.ring.p

    def constant_term(self) -> PadicInt:
        return self.ring.base(self.coeffs[0])

    def t_order(self) -> int | None:
        """Smallest k with c_k nonzero at precision; None if all vanish."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return None

    def min_coeff_valuation(self) -> int:
        return min(self.coefficient(k).valuation() for k in range(self.ring.D + 1))

    def specialize(self, t0: PadicInt) -> PadicInt:
        """Evaluate at T = t0 with val(t0) >= 1, by Horner.

        Exact mod p^N whenever (D+1)*val(t0) >= N, since every discarded
        tail term then has valuation >= N; otherwise the tail could change
        the low digits, so this raises Indeterminate.
        """
        if t0.ring is not self.ring.base:
            raise ValueError("evaluation point from incompatible ring %r" % (t0.ring,))
        if t0.is_unit:
            raise ValueError("specialization point must lie in the maximal ideal")
        N, D, v = self.ring.N, self.ring.D, t0.valuation()
        if (D + 1) * v < N:
            raise Indeterminate(
                "specialization at val(t0) = %d with D = %d is exact only mod p^%d; "
                "N = %d needs D >= %d" % (v, D, (D + 1) * v, N, -(-N // v) - 1)
            )
        return poly_eval([self.ring.base(c) for c in self.coeffs], t0)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self == self.ring.constant(other)
        return (
            isinstance(other, PadicSeries)
            and self.ring is other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.coeffs))

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("%d*T" % c if c != 1 else "T")
            else:
                terms.append("%d*T^%d" % (c, k) if c != 1 else "T^%d" % k)
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return "PadicSeries(%s ; p=%d, N=%d, D=%d)" % (self, self.ring.p, self.ring.N, self.ring.D)


# --- square roots and Hensel lifting -----------------------------------


def _doubling_rings(ring: Zp) -> list:
    # Zp(p, n) for n = 2, 4, 8, ... < N
    return [Zp(ring.p, 1 << k) for k in range(1, (ring.N - 1).bit_length())]


def sqrt_positive(a):
    """Positive-branch square root of a unit, for PadicInt or PadicSeries.

    The branch is fixed by sqrt(a) mod (p, T) in {1, ..., (p-1)/2}: the
    root of y^2 - a that hensel_root lifts from that residue. Raises
    NonUnit when a has positive valuation, NoSquareRoot when the residue
    is not a quadratic residue mod p.
    """
    if not a.is_unit:
        raise NonUnit("sqrt_positive requires a unit")
    p = a.ring.p
    r0 = a.residue()
    seed_res = sqrt_mod_prime(r0, p)
    if seed_res is None:
        raise NoSquareRoot("%d is not a quadratic residue mod %d" % (r0, p))
    return hensel_root([-a, 0, 1], a.ring.zero + seed_res)


def poly_eval(coeffs: Sequence, s):
    """Evaluate sum coeffs[k] * s^k by Horner; coeffs are ring elements.
    A leading coefficient 1 (a monic polynomial) is not multiplied by s:
    Horner then starts from s + coeffs[-2]."""
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("empty coefficient list")
    acc = coeffs.pop()
    if coeffs and acc == 1:
        acc = s + coeffs.pop()
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


def poly_derivative(coeffs: Sequence) -> list:
    return [c * k for k, c in enumerate(coeffs)][1:]


def _root_coefficients(coeffs: list, s0: PadicInt) -> list:
    """The coefficients of the series root s of f = sum c_j(T) y^j that is
    s0 mod T, one at a time: [T^k] f(s) = R_k + f'(s0) s_k, where R_k is
    that coefficient at s_k = 0, so s_k = -R_k f'(s0)^-1 mod p^N.

    powers[j] holds s^j, j >= 1, coefficient by coefficient. Its T^k
    coefficient at s_k = 0 is the sum over 0 < i < k of [T^(k-i)] s^(j-1)
    times s_i, plus s0 times the same at s_k = 0 for s^(j-1) (for s^2,
    each cross term once, doubled); once s_k is known, j s0^(j-1) s_k is
    added.
    """
    ring = coeffs[0].ring
    m, D, r0, top = ring.base.modulus, ring.D, s0.r, len(coeffs) - 1
    inverse = poly_eval(poly_derivative([c.constant_term() for c in coeffs]), s0).invert_unit().r
    s = [r0] + [0] * D
    powers = [None, s] + [[pow(r0, j, m)] + [0] * D for j in range(2, top + 1)]
    slopes = [(powers[j], j * pow(r0, j - 1, m) % m) for j in range(2, top + 1)]
    # one (i, a, powers[j]) per nonzero a = [T^i] c_j, j >= 1: Psi's columns
    # at x = alpha + T have few
    terms = [(i, a, powers[j]) for j in range(1, top + 1) for i, a in enumerate(coeffs[j].coeffs) if a]
    c0 = coeffs[0].coeffs
    for k in range(1, D + 1):
        if top >= 2:
            h = k // 2
            part = 2 * sum(map(mul, s[1 : k - h], s[k - 1 : h : -1])) + (0 if k % 2 else s[h] * s[h])
            powers[2][k] = part = part % m
        for j in range(3, top + 1):
            part = (sum(map(mul, powers[j - 1][k - 1 : 0 : -1], s[1:k])) + part * r0) % m
            powers[j][k] = part
        acc = c0[k] + sum([a * pj[k - i] for i, a, pj in terms if i <= k])
        s[k] = -acc * inverse % m
        for pj, slope in slopes:
            pj[k] = (pj[k] + slope * s[k]) % m
    return s


def hensel_root(coeffs: Sequence, seed):
    """Lift a simple root from a seed root mod (p, T).

    coeffs lists the polynomial's coefficients, ascending, as ints or
    elements of the working ring (PadicInt or PadicSeries). Requires
    f(seed) = 0 and f'(seed) a unit mod the maximal ideal; raises
    BadSeed / SingularRoot otherwise. The returned root r satisfies
    f(r) = 0 at full precision and r = seed mod (p, T); of a series seed
    only that residue is read. Over Z_p the lift is Newton's; a series
    root is lifted over Z_p first, then solved one T-coefficient at a
    time (_root_coefficients), and f(r) = 0 is checked once at full
    precision, raising ArithmeticError if it fails.
    """
    ring = seed.ring
    coeffs = [ring.zero + c for c in coeffs]
    if isinstance(seed, PadicSeries):  # the root over Z_p first; the seed checks run there
        s0 = hensel_root([c.constant_term() for c in coeffs], seed.constant_term())
        root = ring(_root_coefficients(coeffs, s0))
        if not poly_eval(coeffs, root).is_zero:
            raise ArithmeticError("series root fails the residual check f(r) = 0")
        return root
    if poly_eval(coeffs, seed).residue() != 0:
        raise BadSeed("f(seed) is not 0 mod the maximal ideal")
    dcoeffs = poly_derivative(coeffs)
    if not poly_eval(dcoeffs, seed).is_unit:
        raise SingularRoot("f'(seed) is not a unit mod the maximal ideal")
    # s is a root in prev (where the seed is one, then the last step's ring),
    # so f(s) lies in prev's ideal and f'(s)^-1 mod prev is all a step needs
    s, prev = seed, Zp(ring.p, 1)
    for r in _doubling_rings(ring) + [ring] * _newton_cap(ring.N):
        s = s.to_ring(r)
        fs = poly_eval([c.to_ring(r) for c in coeffs], s)
        if not fs.is_zero:
            du = poly_eval([c.to_ring(prev) for c in dcoeffs], s.to_ring(prev)).invert_unit()
            s = s - fs * du.to_ring(r)
        elif r is ring:
            return s
        prev = r
    raise ArithmeticError("Hensel Newton iteration failed to stabilize")


# --- divisor normal forms ----------------------------------------------


class DivisorNormalForm(NamedTuple):
    """The monomial p^mu * T^lam, plus a certification flag.

    certified=True means some input series realizes both extremes at
    once (unit coefficient at T^lam after dividing out p^mu), so the gcd
    ideal really is (p^mu * T^lam) up to unit. certified=False means
    (mu, lam) only bounds the divisor; a Weierstrass-type factor may
    hide below precision.
    """

    mu: int
    lam: int
    certified: bool

    def is_unit_form(self) -> bool:
        return self.mu == 0 and self.lam == 0

    def same_divisor(self, other: "DivisorNormalForm") -> bool:
        return (self.mu, self.lam) == (other.mu, other.lam)

    def __str__(self) -> str:
        body = "p^%d * T^%d" % (self.mu, self.lam)
        return body + (" (certified)" if self.certified else " (not certified)")


def gcd_normal_form(inputs: Sequence[PadicSeries]) -> DivisorNormalForm:
    """Normal form p^mu * T^lam of the gcd of finitely many series.

    mu = min over inputs of the minimal coefficient valuation; lam = min
    over inputs (not vanishing at precision) of the t-order. Raises
    Indeterminate when every input vanishes at precision.
    """
    inputs = list(inputs)
    if not inputs:
        raise Indeterminate("gcd of an empty list")
    nonzero = [f for f in inputs if not f.is_zero]
    if not nonzero:
        raise Indeterminate(
            "all inputs vanish at precision (p^N, T^(D+1)); re-run with higher N, D"
        )
    mu = min(f.min_coeff_valuation() for f in inputs)
    lam = min(f.t_order() for f in nonzero)
    certified = any(f.t_order() == lam and f.coefficient(lam).valuation() == mu for f in nonzero)
    return DivisorNormalForm(mu=mu, lam=lam, certified=certified)
