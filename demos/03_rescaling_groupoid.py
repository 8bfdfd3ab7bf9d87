"""The rescaling groupoid in action.

Builds arrows over O^2, composes them, inverts them, connects leaf points to
their base points, and pushes everything around by a random G2 automorphism.
Finishes with the morphism to the action groupoid that exists over H but
breaks over O.
"""

import math

import numpy as np

from ohopf.groupoid import (
    compose,
    connecting_arrow,
    g2_from_basic_triple,
    inverse,
    phi_group_element,
    random_arrow,
    random_basic_triple,
    rebase,
    rescale,
    rescale_sq_identity,
    source,
    target,
)
from ohopf.leaves import PointD2, same_leaf
from ohopf.algebra import from_array

rng = np.random.default_rng(7)

g = random_arrow(rng, 8)
s, t = source(g), target(g)
print("lambda(g) =", rescale(g))
print("|s(g)|^2  =", float(s.x.norm_sq() + s.y.norm_sq()))
print("|t(g)|^2  =", float(t.x.norm_sq() + t.y.norm_sq()), " (norms agree)")

# composition multiplies the rescaling
h = rebase(random_arrow(rng, 8), t)
hg = compose(h, g)
print("\nlambda(h g) - lambda(h) lambda(g) =", rescale(hg) - rescale(h) * rescale(g))

# inverses land on units
gi = inverse(g)
round_trip = compose(gi, g)
print("g^-1 g has arrow part of size", math.sqrt(float(round_trip.F.norm_sq() + round_trip.G.norm_sq())))

# every nonzero point is reached from its leaf base point by one arrow
p = PointD2(from_array(rng.normal(size=8)), from_array(rng.normal(size=8)))
arrow = connecting_arrow(p)
gap = target(arrow)
print("\nconnecting arrow lands on p up to",
      math.sqrt(float((gap.x - p.x).norm_sq() + (gap.y - p.y).norm_sq())))
print("source and p on the same leaf:", same_leaf(source(arrow), p, 1e-9))

# the defining identity of the squared rescaling, proved exactly
print("\n|x|^2 lambda^2 identity holds symbolically:", rescale_sq_identity(8))

# a random G2 automorphism fixes everything in sight
A = g2_from_basic_triple(*random_basic_triple(rng))
print("\nG2 element: automorphism residual", A.automorphism_residual())
print("lambda(A g) - lambda(g) =", rescale(A.apply_arrow(g)) - rescale(g))

# the action-groupoid comparison: exact over H, broken over O
for dim in (4, 8):
    g1 = random_arrow(rng, dim)
    g2 = rebase(random_arrow(rng, dim), target(g1))
    u21 = phi_group_element(compose(g2, g1))
    split = phi_group_element(g1) * phi_group_element(g2)
    res = math.sqrt(float((u21 - split).norm_sq()))
    print("dim %d: |phi(g2 g1) - phi(g1) phi(g2)| = %.3e" % (dim, res))
