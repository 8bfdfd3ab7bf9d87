"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all);
tolerances are pinned here, not configurable.
"""

import time

from ohopf import algebra, algebroid, foliation, groupoid, leaves, lie3


def _stamp(name, ok, detail=""):
    print("ACCEPTANCE %-34s %s  %s" % (name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (name, detail)


def test_01_symbolic_algebra_suite():
    start = time.perf_counter()
    ok = True
    detail = []
    for dim in (2, 4, 8):
        report = algebra.verify_algebra_identities(dim, seed=0)
        bad = [c.name for c in report.checks if not c.passed]
        ok = ok and not bad
        detail += bad
    sedenion = algebra.verify_algebra_identities(16, seed=0)
    by_name = {c.name: c for c in sedenion.checks}
    norm_fail = by_name["norm_multiplicativity_fails"]
    ok = ok and norm_fail.passed and norm_fail.info["witness_a"] is not None
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 60.0
    _stamp("1-symbolic-algebra-identities", ok, "elapsed %.1fs (limit 60s) %s" % (elapsed, detail))


def test_02_right_multiplication_counterexample():
    report = leaves.right_mult_counterexample(seed=0)
    by_name = {c.name: c for c in report.checks}
    ok = (
        by_name["first_equation"].passed
        and by_name["first_equation"].info["u3"] == ["0", "-1", "0", "0", "0", "0", "0", "0"]
        and by_name["second_equation"].passed
        and by_name["second_equation"].info["u3"] == ["0", "1", "0", "0", "0", "0", "0", "0"]
        and by_name["no_common_unit"].passed
    )
    _stamp("2-counterexample-u3-values", ok, "u3 = -e1 and +e1, exactly")


def test_03_groupoid_suite_dim8():
    report = groupoid.verify_structure(8, samples=1000, seed=2024, tol=1e-9)
    bad = [(c.name, c.info) for c in report.checks if not c.passed]
    worst = max(
        (c.info.get("max_residual", 0.0) for c in report.checks if c.info),
        default=0.0,
    )
    _stamp(
        "3-groupoid-laws-1000-samples",
        not bad,
        "max residual %.2e (tol 1e-9) %s" % (worst, bad),
    )


def test_04_phi_morphism():
    ok = True
    details = []
    for dim in (2, 4):
        report = groupoid.verify_phi_morphism(dim, samples=500, seed=7, tol=1e-9)
        bad = [c.name for c in report.checks if not c.passed]
        ok = ok and not bad
        details += bad
    failure = groupoid.verify_phi_morphism(8, samples=500, seed=7, tol=1e-9)
    witness = failure.checks[0].info.get("witness_residual")
    ok = ok and failure.passed and witness is not None and witness > 1e-3
    _stamp(
        "4-action-groupoid-morphism",
        ok,
        "dims 2/4 within 1e-9; dim-8 witness residual %.3g > 1e-3 %s" % (witness or 0, details),
    )


def test_05_g2_suite():
    report = groupoid.verify_g2_equivariance(samples=50, seed=5, tol=1e-8)
    bad = [(c.name, c.info) for c in report.checks if not c.passed]
    _stamp("5-g2-automorphisms-50-triples", not bad, str(bad) if bad else "tol 1e-8")


def test_06_algebroid_suite():
    sym = algebroid.prove_rows("algebroid_symbolic", algebroid.SYMBOLIC_CHECKS)
    sym_bad = [c.name for c in sym.checks if not c.passed]
    num = algebroid.verify_groupoid_consistency()
    num_bad = [c.name for c in num.checks if not c.passed]
    flags = {c.name: c.passed for c in num.checks}
    _stamp(
        "6-algebroid-anchor-and-bracket",
        not sym_bad and not num_bad,
        "groupoid consistency %s %s%s" % (flags, sym_bad, num_bad),
    )


def test_07_lie3_suite():
    start = time.perf_counter()
    report = algebroid.prove_rows("lie3", lie3.CHECKS)
    elapsed = time.perf_counter() - start
    bad = [c.name for c in report.checks if not c.passed]
    ok = not bad and elapsed <= 600.0
    _stamp("7-lie3-graded-identities", ok, "elapsed %.1fs (limit 600s) %s" % (elapsed, bad))


def test_08_tangency_matrix():
    report = lie3.verify_matrix_vs_transcription()
    by_name = {c.name: c for c in report.checks}
    entry_check = by_name["matrix_matches_transcription"]
    ok = entry_check.passed and entry_check.info["entries"] == 160
    _stamp("8-tangency-matrix-160-entries", ok, str(entry_check.info.get("mismatches", [])))


def test_09_fiberwise_ranks():
    report = lie3.generic_ranks()
    by_name = {c.name: c for c in report.checks}
    ok = (
        by_name["generic_point_ranks"].passed
        and by_name["origin_ranks"].passed
        and by_name["rank_exactness"].passed
    )
    _stamp(
        "9-ranks-7-9-1-and-origin-0-0-0",
        ok,
        "observed %s" % by_name["generic_point_ranks"].info["observed"],
    )


def test_10_linear_nullspace_ladder():
    expected = {8: 0, 4: 3, 2: 1}
    ok = True
    details = []
    for dim, want in expected.items():
        got, _ = foliation.linear_nullspace(dim)
        sampled, neq, certificate = foliation.sampled_nullspace_dimension(dim, seed=29)
        ok = ok and got == want and sampled == want and neq >= 4 * dim * dim
        details.append(
            "dim %d: exact %d sampled %d (%d eqs, %s)" % (dim, got, sampled, neq, certificate)
        )
    _stamp("10-linear-nullspace-0-3-1", ok, "; ".join(details))


def test_11_metric_obstruction():
    report = foliation.linear_obstruction_report()
    by_name = {c.name: c for c in report.checks}
    ok = (
        by_name["planar_rotation_identity"].passed
        and by_name["generators_vanish_quadratically"].passed
        and by_name["generators_vanish_quadratically"].info["min_total_degree"] == 2
        and by_name["no_linear_tangent_fields"].passed
    )
    _stamp("11-module-metric-obstruction", ok, "planar identity exact; min degree 2")
