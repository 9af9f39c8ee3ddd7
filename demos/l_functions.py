"""
Twisted Alexander invariants and the L-function
===============================================

The relator's Fox derivatives, pushed through a representation, present
the first homology of the knot group as a module.  Its Fitting ideals
give the twisted Alexander polynomial (residual and specialized levels)
and, over the full deformation ring, the L-function normal form.
"""

from twobridge.deformations import build_family
from twobridge.homology import (
    ad_cohomology,
    l_function,
    twisted_alexander,
    vanishing_link,
)

# residual twisted Alexander polynomial of the trefoil family: the
# quotient is 1 + t^2, so its value at t=1 is the unit 2
fam = build_family("rho1")
res = fam.rep.residual()
r = twisted_alexander(fam.pres, res)[0]
print("trefoil residual: num =", dict(r.numerator.coeffs))
print("                  den =", dict(r.denominator.coeffs))
print("                  quotient =", dict(r.quotient.coeffs))
print("                  at t=1:", r.value_at_one())

# the L-function is the gcd normal form p^mu T^lam of the six 2-minors
# of the second boundary map over the deformation ring
for key in ("rho1", "rho2", "rho3", "rho4"):
    fam = build_family(key)
    nf = l_function(fam.pres, fam.rep).normal_form
    shape = "unit" if (nf.mu, nf.lam) == (0, 0) else "p^%d T^%d" % (nf.mu, nf.lam)
    print("%s: L = %s (certified=%s)" % (key, shape, nf.certified))

# the dichotomy: a non-unit L forces the residual polynomial to vanish
# at t=1, and a nonzero value at t=1 forces a unit L
fam = build_family("rho3")
report = vanishing_link(fam.pres, fam.rep, fam.rep.residual())
print("rho3 residual value at 1:", report.residual_delta_at_one,
      " consistent:", report.consistent)

# adjoint cohomology of the residual representation: h1 = h2 = 1 on all
# four examples, so each deformation space is one-dimensional
dims = ad_cohomology(fam.pres, fam.rep.residual())
print("rho3 adjoint cohomology: h0=%d h1=%d h2=%d" % (dims.h0, dims.h1, dims.h2))
