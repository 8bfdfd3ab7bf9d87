"""The singular Hopf leaf decomposition, sampled.

Labels points of D^2 by their leaf, pi = (|x|^2, x*conj(y), |y|^2), samples point clouds
on a leaf as one batch, writes them to CSV, and measures the leaf dimension at unit-sphere
points for each division algebra: 0, 1, 3, 7 along the tower.
"""

import math
import random

import numpy as np

from ohopf.algebra import AlgebraElement, random_integer_element
from ohopf.leaves import (
    PointD2,
    classify,
    export_csv,
    infinity_leaf,
    leaf_dimension_at,
    sample_leaf,
    same_leaf,
    slope_leaf,
)

E = [AlgebraElement.basis(8, i) for i in range(8)]
s = 1.0 / math.sqrt(2.0)

# classify a few points
print("classify (0, 2e1):   ", classify(PointD2(AlgebraElement.zero(8), E[1].scale(2.0))))
p = PointD2(E[1].scale(s), E[2].scale(s))
leaf = classify(p)
print("classify (e1, e2)/sqrt2: slope conj(b)/a =", np.round((leaf.b.conjugate() / leaf.a).as_floats(), 12),
      "r^2 = a + c =", leaf.a + leaf.c)

# two points on the same leaf, two points that are not
q = PointD2(E[0].scale(1.0), E[3].scale(0.0))
print("same leaf as itself:", same_leaf(p, p, 1e-9), " p vs (1, 0):", same_leaf(p, q, 1e-9))

# sample a leaf of slope e1 on the unit sphere and export it
pts = sample_leaf(slope_leaf(E[1], 1.0), 500, seed=41)
export_csv(pts, "leaf_e1.csv")
worst = np.max(np.abs(pts.x.norm_sq() + pts.y.norm_sq() - 1.0))
print("\nwrote leaf_e1.csv with 500 points, max |p|^2 - 1 =", worst)

pts_inf = sample_leaf(infinity_leaf(8, 1.0), 5, seed=41)
print("five points of the infinite-slope leaf, x block all zero:",
      not np.any(pts_inf.x.as_floats()))

# leaf dimensions along the tower: exact rank of the fiberwise tangency system
# at an integer point, which stands for its direction on the unit sphere
print("\nunit-sphere leaf dimension by algebra:")
rng = random.Random(2)
for dim in (1, 2, 4, 8):
    x, y = random_integer_element(rng, dim), random_integer_element(rng, dim)
    print("  dim %d -> leaf dimension %d" % (dim, leaf_dimension_at(x, y)))
