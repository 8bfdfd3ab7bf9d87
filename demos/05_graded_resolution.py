"""The graded resolution and its Lie 3-algebroid.

Shows the differentials d1, d2 and the graded brackets at work, runs the
full symbolic verification (complex property, Leibniz, graded Jacobi,
minimality), compares the generated tangency matrix against its hand
transcription, and proves the fiberwise ranks (7, 9, 1) at every point
other than the origin from four polynomial identities.
"""

from ohopf.algebra import vector_symbol, vector_names
from ohopf.algebroid import E0Section, prove_rows
from ohopf.lie3 import (
    CHECKS,
    Sec1,
    Sec2,
    bracket,
    d1,
    d2,
    generic_ranks,
    resolution_matrices,
    verify_matrix_vs_transcription,
)
from ohopf.polyring import PolyRing

names = vector_names("u", 8) + vector_names("v", 8) + vector_names("a", 8) + ["mu", "nu", "t"]
ring = PolyRing(8, names)
X = E0Section(vector_symbol(ring, "u", 8), vector_symbol(ring, "v", 8))
Z = Sec1(ring.poly("mu"), vector_symbol(ring, "a", 8), ring.poly("nu"))
T = Sec2(ring.poly("t"))

print("d1(Z) first components of each block:")
out = d1(Z, ring)
print("   u:", out.u.coeffs[0])
print("   v:", out.v.coeffs[0])

print("\nd2(T) = (-|y|^2 t, (x conj y) t, -|x|^2 t); mu part:", d2(T, ring).mu)

print("\n[X, T] =", bracket(X, T, ring).t)

print("\n[Z, Z'] for Z' = Z gives 4|a|^2 - 4 mu nu:")
print("  ", bracket(Z, Z, ring).t)

report = prove_rows("lie3", CHECKS)
print("\nsymbolic Lie-3 suite (%d checks): %s" % (len(report.checks), "all passed" if report.passed else "FAILED"))
for check in report.checks:
    print("   %-22s %s" % (check.name, "ok" if check.passed else "FAIL"))

report = verify_matrix_vs_transcription()
print("\ntangency matrix vs transcription:", "all 160 entries equal" if report.passed else "MISMATCH")

mats = resolution_matrices()
print("matrix shapes: J %dx%d, rho %dx%d, d1 %dx%d, d2 %dx%d" % (
    len(mats.J), len(mats.J[0]), len(mats.Rho), len(mats.Rho[0]),
    len(mats.D1), len(mats.D1[0]), len(mats.D2), len(mats.D2[0])))

report = generic_ranks()
print("\nfiberwise ranks (exact, at every real point p != 0):")
for check in report.checks:
    print("   %-26s %s %s" % (check.name, "ok" if check.passed else "FAIL", check.info.get("observed", "")))
