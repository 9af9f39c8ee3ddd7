"""
Riley polynomials and character points
======================================

The nonabelian SL2 characters of a two-bridge knot group form a plane
curve.  Its defining polynomial comes from one matrix product; three
coordinate systems expose it at different levels of symmetry.
"""

from twobridge.presentations import two_bridge
from twobridge.riley import char_points, discriminant, riley_polynomial

# the polynomial phi(t, u) from the first row of the word matrix W
data = riley_polynomial(two_bridge(5, 3))
print("phi(t, u)  =", data.phi.text(("t", "u")))

# substituting x = t + 1/t removes the eigenvalue asymmetry
print("phi(x, u)  =", data.phi_xu.text(("x", "u")),
      "  (t^%d phi = Phi(t + 1/t, u))" % data.l)

# trace coordinates (x, y) = (tr g1, tr g1g2) make it monic
print("psi(x, y)  =", data.psi)

# over a finite field the character scheme is a finite set of points;
# the flag marks points off the abelian line where the representation
# is absolutely irreducible
for p in (3, 7):
    pts = char_points(two_bridge(3, 1), p)
    flagged = [(q.x, q.y) for q in pts if q.absolutely_irreducible]
    print("B(3,1) over F_%d: %d points, absolutely irreducible: %s"
          % (p, len(pts), flagged))

# irreducibility is read off the trace discriminant: nonzero exactly
# at the absolutely irreducible characters
print("discriminant at (2, 1) mod 3:", discriminant(2, 2, 1) % 3)
print("discriminant at (0, -2) mod 3:", discriminant(0, 0, -2) % 3, " (reducible)")
