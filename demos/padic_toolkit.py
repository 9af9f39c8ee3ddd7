"""
Truncated p-adic arithmetic
===========================

Everything downstream runs over Z_p mod p^N or over power series in T
truncated at degree D.  Exactness at the stated precision is the whole
point: there are no floats anywhere.
"""

from twobridge.padics import Zp, ZpT, gcd_normal_form, hensel_root, sqrt_positive

# integers mod 11^8, with unit inversion and valuation bookkeeping
R = Zp(11, 8)
a = R(5)
print("5 mod 11^8:", a)
print("1/5:       ", a.invert_unit())
print("5 * 1/5:   ", a * a.invert_unit())
print("v(121):    ", R(121).valuation())

# square roots pick the branch whose residue lies in 1..(p-1)/2
s = sqrt_positive(R(5))
print("sqrt(5) mod 11^8:", s, " residue", s.residue())
print("sqrt(5)^2:       ", s * s)

# Hensel's lemma lifts a simple root mod p to full precision; here the
# cubic that pins the p=11 deformation family, specialized at x=5
mu = hensel_root([-2651, 3424, -880, 64], R(0))
print("cubic root mu:", mu)
print("64mu^3 - 880mu^2 + 3424mu - 2651 =",
      mu * mu * mu * 64 - mu * mu * 880 + mu * 3424 - 2651)

# truncated power series: products, differences and a square root
S = ZpT(3, 4, 6)
x = S([2, 1])                      # 2 + T
q = sqrt_positive(x * x - 3)       # the square root used by the p=3 family
print("sqrt((2+T)^2 - 3) =", q)
print("check:", (q * q - (x * x - 3)).is_zero)

# divisor normal forms: the gcd of a list of series, reported as
# p^mu * T^lam with a certification flag
nf = gcd_normal_form([S([0, 0, 1, 1]), S([0, 0, 0, 3])])
print("gcd(T^2(1+T), 3T^3) = p^%d T^%d, certified=%s" % (nf.mu, nf.lam, nf.certified))
