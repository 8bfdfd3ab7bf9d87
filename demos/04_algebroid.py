"""The Lie algebroid under the groupoid.

Prints anchor fields symbolically, checks the bracket facts that make the
structure a Lie algebroid, and proves that the anchor really is the
derivative of the groupoid's target map at the units.
"""

import numpy as np

from ohopf.algebroid import (
    SYMBOLIC_CHECKS,
    anchor,
    bracket_e0,
    constant_section,
    prove_rows,
    vf_commutator,
    verify_groupoid_consistency,
)
from ohopf.polyring import PolyRing

ring = PolyRing(8)

# the anchor of the first basis section, openly
X = anchor(constant_section(8, 1, 0), ring)
print("rho(e1, 0), first three components of the d/dx block:")
for comp in X.u.coeffs[:3]:
    print("   ", comp)

# the bracket of two basis sections: coefficients are coordinates
s1, s2 = constant_section(8, 0, 0), constant_section(8, 0, 1)
br = bracket_e0(s1, s2, ring)
print("\n[(e0,0), (0,e0)] =  x0 (0,e0) - y0 (e0,0):")
print("    u block:", [str(c) for c in br.u.coeffs[:2]], "...")
print("    v block:", [str(c) for c in br.v.coeffs[:2]], "...")

# anchor is a bracket morphism, proved in full symbols
lhs = vf_commutator(anchor(s1, ring), anchor(s2, ring), ring)
rhs = anchor(br, ring)
print("\n[rho s1, rho s2] - rho[s1, s2] vanishes:", (lhs - rhs).is_zero())

report = prove_rows("algebroid_symbolic", SYMBOLIC_CHECKS)
print("\nsymbolic algebroid suite:", "all passed" if report.passed else "FAILED")
for check in report.checks:
    print("   %-26s %s" % (check.name, "ok" if check.passed else "FAIL"))

# tie to the groupoid: d/dtau t(tau u, tau v, x, y)|_0 = rho(u, v), as polynomials
report = verify_groupoid_consistency()
print("\ntarget derivative vs anchor:", "all passed" if report.passed else "FAILED")
for check in report.checks:
    print("   %-26s %s" % (check.name, "ok" if check.passed else "FAIL"))

# the anchor at a concrete point: the symbolic field evaluated exactly
rng = np.random.default_rng(0)
point = rng.normal(size=16)
at = {"x%d" % i: point[i] for i in range(8)}
at.update({"y%d" % i: point[8 + i] for i in range(8)})
du = [float(c.evaluate(at)) for c in anchor(constant_section(8, 0, 0), ring).u.coeffs]
print("\nrho(e0, 0) at a random point, dx block:", np.round(du, 4))
