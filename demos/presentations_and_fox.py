"""
Two-bridge presentations and Fox calculus
=========================================

Every two-bridge knot group has a presentation with two generators and
one relator built from a sign sequence.  Fox derivatives of the relator
are the raw material for every chain complex downstream.
"""

from twobridge.groupring import fox_derivative, fundamental_identity_defect
from twobridge.presentations import two_bridge
from twobridge.words import parse_word

# the trefoil is B(3, 1): sign sequence (1, 1)
pres = two_bridge(3, 1)
print("B(3,1) epsilon:", pres.epsilon)
print("B(3,1) w:      ", pres.w)
print("B(3,1) relator:", pres.relator)

# the figure-eight knot is B(5, 3), the 5_2 knot is B(7, 3)
for m, n in ((5, 3), (7, 3)):
    pres = two_bridge(m, n)
    print("B(%d,%d) relator: %s" % (m, n, pres.relator))

# a Fox derivative is an element of the group ring Z[F], held as a dict
# {word: coefficient}; differentiating the relator with respect to each
# generator gives the rows of the boundary maps
pres = two_bridge(3, 1)
for i in (1, 2):
    terms = sorted(fox_derivative(pres.relator, i).items(), key=lambda wc: (len(wc[0]), str(wc[0])))
    print("d(relator)/dg%d: %s" % (i, ", ".join("(%s, %+d)" % wc for wc in terms)))

# the fundamental identity sum_i dw/dg_i (g_i - 1) = w - 1 holds for
# every word; the defect below is the difference, always empty
w = parse_word("g1 g2^-1 g1^2 g2")
print("defect of", w, "is zero:", not fundamental_identity_defect(w, 2))
