"""Tangent fields: who is allowed to move along the leaves.

The tangency system J characterizes fields tangent to the leaf
decomposition.  Linear fields are eliminated exactly over the octonions
(the nullspace is zero), survive as right multiplications over C and H,
and the planar rotation example separates the two notions of metric
compatibility.
"""

from ohopf.algebra import coordinate_elements
from ohopf.foliation import (
    J_map,
    linear_nullspace,
    linear_obstruction_report,
    planar_rotation_identity,
    sampled_nullspace_dimension,
    verify_foliation,
)
from ohopf.polyring import PolyRing

# the Euler field is not tangent: J(x, y) = (|x|^2, 2 x conj(y), |y|^2)
ring = PolyRing(8)
x, y = coordinate_elements(ring, 8)
first, middle, last = J_map(x, y, ring)
print("J of the Euler field: (%s, ..., %s)" % (first, last))

# the linear ladder: nullspace dimensions 1, 3, 0 over C, H, O
print("\nlinear tangent fields (u = Ax + By, v = Cx + Dy):")
for dim in (2, 4, 8):
    nullity, basis = linear_nullspace(dim)
    sampled, neq, certificate = sampled_nullspace_dimension(dim, seed=5)
    print(
        "  dim %d: exact nullity %d, sampled oracle %d over %d equations (%s)"
        % (dim, nullity, sampled, neq, certificate)
    )
    if basis:
        # a solution is an integer vector over the unknowns, A row by row
        # first, so row 0 of A is its first dim columns
        row = [basis[0].get(l, 0) for l in range(dim)]
        print("        a sample solution has A[0] =", [str(v) for v in row])

# u = x c, v = y c with imaginary c survives in the associative cases; at
# dim 8 the elimination wipes everything out, including those.

# the planar example: geometrically compatible but not module-compatible
print("\nplanar rotation identity (cleared denominators):", planar_rotation_identity())

report = linear_obstruction_report()
print("\nobstruction report:")
for check in report.checks:
    print("   %-32s %s %s" % (check.name, "ok" if check.passed else "FAIL", check.info))

report = verify_foliation(4, seed=1)
print("\nfull tangency suite over H:", "all passed" if report.passed else "FAILED")
