"""Truncated p-adic arithmetic: Z/p^N and Z/p^N[[T]]/T^(D+1).

Both rings are exact at a declared working precision. An element equal
to 0 here means "indistinguishable from zero at precision"; callers that
need to certify a genuine zero must re-run at higher precision (the
pipeline re-runs at N+4, D+4). The residue field F_p is Zp(p, 1).

Square roots follow a fixed branch: sqrt(a) is the root whose reduction
mod (p, T) lies in {1, ..., (p-1)/2}. Newton iteration is used for both
square roots and Hensel lifting of simple polynomial roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


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
    z = 2
    while pow(z, half, p) != p - 1:
        z += 1
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
    # Newton doubles (p,T)-adic precision per step; small slack on top.
    return max(1, modulus_exponent.bit_length()) + 4


class Zp:
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

    def __eq__(self, other) -> bool:
        return isinstance(other, Zp) and (self.p, self.N) == (other.p, other.N)

    def __hash__(self) -> int:
        return hash(("Zp", self.p, self.N))

    def __repr__(self) -> str:
        return "Zp(%d, %d)" % (self.p, self.N)


class PadicInt:
    """Residue in [0, p^N), exact arithmetic mod p^N."""

    __slots__ = ("ring", "r")

    def __init__(self, ring: Zp, r: int):
        self.ring = ring
        self.r = r % ring.modulus

    def _check(self, other: "PadicInt") -> None:
        if self.ring != other.ring:
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

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.r == other % self.ring.modulus
        return isinstance(other, PadicInt) and self.ring == other.ring and self.r == other.r

    def __hash__(self) -> int:
        return hash((self.ring, self.r))

    def __str__(self) -> str:
        return str(self.r)

    def __repr__(self) -> str:
        return "PadicInt(%d mod %d^%d)" % (self.r, self.ring.p, self.ring.N)

    def to_json(self) -> dict:
        return {"p": self.ring.p, "N": self.ring.N, "residue": str(self.r)}


class ZpT:
    """Descriptor of Z/p^N[[T]]/T^(D+1)."""

    __slots__ = ("p", "N", "D", "base")

    def __init__(self, p: int, N: int, D: int):
        self.base = Zp(p, N)
        if D < 0:
            raise ValueError("degree bound D must be >= 0, got %r" % (D,))
        self.p = p
        self.N = N
        self.D = D

    def __call__(self, coeffs: Sequence[int]) -> "PadicSeries":
        cs = list(coeffs)[: self.D + 1]
        cs += [0] * (self.D + 1 - len(cs))
        return PadicSeries(self, tuple(c % self.base.modulus for c in cs))

    def constant(self, c) -> "PadicSeries":
        if isinstance(c, PadicInt):
            if c.ring != self.base:
                raise ValueError("constant from incompatible ring %r" % (c.ring,))
            c = c.r
        return self([c])

    @property
    def zero(self) -> "PadicSeries":
        return self([])

    @property
    def one(self) -> "PadicSeries":
        return self([1])

    @property
    def T(self) -> "PadicSeries":
        return self([0, 1])

    def __eq__(self, other) -> bool:
        return isinstance(other, ZpT) and (self.p, self.N, self.D) == (other.p, other.N, other.D)

    def __hash__(self) -> int:
        return hash(("ZpT", self.p, self.N, self.D))

    def __repr__(self) -> str:
        return "ZpT(%d, %d, %d)" % (self.p, self.N, self.D)


class PadicSeries:
    """Coefficient tuple (c_0, ..., c_D), each an integer mod p^N."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: ZpT, coeffs: tuple[int, ...]):
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other: "PadicSeries") -> None:
        if self.ring != other.ring:
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
        return PadicSeries(self.ring, tuple((a + b) % m for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        m = self.ring.base.modulus
        return PadicSeries(self.ring, tuple((-a) % m for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if not isinstance(other, PadicSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            m = self.ring.base.modulus
            return PadicSeries(self.ring, tuple((a * other) % m for a in self.coeffs))
        if isinstance(other, PadicInt):
            if other.ring != self.ring.base:
                raise ValueError("scalar from incompatible ring %r" % (other.ring,))
            return self * other.r
        if not isinstance(other, PadicSeries):
            return NotImplemented
        self._check(other)
        D = self.ring.D
        bs = other.coeffs
        out = [0] * (D + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(D + 1 - i):
                    out[i + j] += a * bs[j]
        m = self.ring.base.modulus
        return PadicSeries(self.ring, tuple(c % m for c in out))  # one reduction per coefficient

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.invert_unit() ** (-k)
        out = self.ring.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_unit(self) -> bool:
        return self.coeffs[0] % self.ring.p != 0

    def invert_unit(self) -> "PadicSeries":
        if not self.is_unit:
            raise NonUnit("series constant term is not a unit")
        m = self.ring.base.modulus
        b0 = pow(self.coeffs[0], -1, m)
        out = [b0] + [0] * self.ring.D
        for k in range(1, self.ring.D + 1):
            acc = 0
            for j in range(1, k + 1):
                acc += self.coeffs[j] * out[k - j]
            out[k] = (-b0 * acc) % m
        return PadicSeries(self.ring, tuple(out))

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
        if t0.ring != self.ring.base:
            raise ValueError("evaluation point from incompatible ring %r" % (t0.ring,))
        if t0.is_unit:
            raise ValueError("specialization point must lie in the maximal ideal")
        N, D, v = self.ring.N, self.ring.D, t0.valuation()
        if (D + 1) * v < N:
            raise Indeterminate(
                "specialization at val(t0) = %d with D = %d is exact only mod p^%d; "
                "N = %d needs D >= %d" % (v, D, (D + 1) * v, N, -(-N // v) - 1)
            )
        acc = self.ring.base.zero
        for c in reversed(self.coeffs):
            acc = acc * t0 + self.ring.base(c)
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self == self.ring.constant(other)
        return (
            isinstance(other, PadicSeries)
            and self.ring == other.ring
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

    def to_json(self) -> dict:
        return {
            "p": self.ring.p,
            "N": self.ring.N,
            "D": self.ring.D,
            "coeffs": [str(c) for c in self.coeffs],
        }


# --- square roots and Hensel lifting -----------------------------------


def _modulus_exponent(x) -> int:
    # Smallest M with m^M inside the zero ideal, m the maximal ideal.
    if isinstance(x, PadicInt):
        return x.ring.N
    return x.ring.N + x.ring.D + 1


def _half(x):
    if isinstance(x, PadicInt):
        return x * x.ring(2).invert_unit()
    return x * x.ring.base(2).invert_unit()


def sqrt_positive(a):
    """Positive-branch square root of a unit, for PadicInt or PadicSeries.

    The branch is fixed by sqrt(a) mod (p, T) in {1, ..., (p-1)/2}.
    Raises NonUnit when a has positive valuation, NoSquareRoot when the
    residue is not a quadratic residue mod p.
    """
    if not a.is_unit:
        raise NonUnit("sqrt_positive requires a unit")
    p = a.ring.p
    r0 = a.residue()
    seed_res = sqrt_mod_prime(r0, p)
    if seed_res is None:
        raise NoSquareRoot("%d is not a quadratic residue mod %d" % (r0, p))
    if isinstance(a, PadicInt):
        s = a.ring(seed_res)
    else:
        c0 = sqrt_positive(a.constant_term())
        s = a.ring.constant(c0)
    cap = _newton_cap(_modulus_exponent(a))
    for _ in range(cap):
        nxt = _half(s + a * s.invert_unit())
        if nxt == s:
            break
        s = nxt
    else:
        raise ArithmeticError("sqrt Newton iteration failed to stabilize")
    if not (s * s == a):
        raise ArithmeticError("sqrt Newton stabilized at a non-root")
    return s


def poly_eval(coeffs: Sequence, s):
    """Evaluate sum coeffs[k] * s^k by Horner; coeffs are ring elements."""
    acc = None
    for c in reversed(list(coeffs)):
        acc = c if acc is None else acc * s + c
    if acc is None:
        raise ValueError("empty coefficient list")
    return acc


def poly_derivative(coeffs: Sequence) -> list:
    return [c * k for k, c in enumerate(coeffs)][1:]


def hensel_root(coeffs: Sequence, seed):
    """Lift a simple root: Newton iteration from a seed root mod (p, T).

    coeffs lists the polynomial's coefficients, ascending, as elements of
    the working ring (PadicInt or PadicSeries). Requires f(seed) = 0 and
    f'(seed) a unit mod the maximal ideal; raises BadSeed / SingularRoot
    otherwise. The returned root r satisfies f(r) = 0 at full precision
    and r = seed mod (p, T).
    """
    fs = poly_eval(coeffs, seed)
    if fs.residue() != 0:
        raise BadSeed("f(seed) is not 0 mod the maximal ideal")
    dcoeffs = poly_derivative(coeffs)
    dfs = poly_eval(dcoeffs, seed)
    if not dfs.is_unit:
        raise SingularRoot("f'(seed) is not a unit mod the maximal ideal")
    s = seed
    cap = _newton_cap(_modulus_exponent(seed))
    for _ in range(cap):
        step = poly_eval(coeffs, s) * poly_eval(dcoeffs, s).invert_unit()
        nxt = s - step
        if nxt == s:
            break
        s = nxt
    else:
        raise ArithmeticError("Hensel Newton iteration failed to stabilize")
    if not poly_eval(coeffs, s).is_zero:
        raise ArithmeticError("Hensel iteration stabilized at a non-root")
    return s


# --- divisor normal forms ----------------------------------------------


@dataclass(frozen=True)
class DivisorNormalForm:
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
    witness: int | None = None

    def is_unit_form(self) -> bool:
        return self.mu == 0 and self.lam == 0

    def same_divisor(self, other: "DivisorNormalForm") -> bool:
        return (self.mu, self.lam) == (other.mu, other.lam)

    def to_json(self) -> dict:
        return {"mu": self.mu, "lambda": self.lam, "certified": self.certified}

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
    certified = False
    witness = None
    for idx, f in enumerate(inputs):
        if f.is_zero:
            continue
        if f.t_order() == lam and f.coefficient(lam).valuation() == mu:
            certified = True
            witness = idx
            break
    return DivisorNormalForm(mu=mu, lam=lam, certified=certified, witness=witness)
