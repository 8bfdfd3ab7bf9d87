"""Graded sections, differentials, brackets, matrices, ranks."""

import random
from fractions import Fraction

import numpy as np
import pytest

from ohopf.algebra import AlgebraElement, random_integer_element, vector_symbol, vector_names
from ohopf.algebroid import E0Section, _sym_sections, prove_rows
from ohopf.exactsolve import dense_rank
from ohopf.lie3 import (
    CHECKS,
    Sec1,
    Sec2,
    TRANSCRIBED_TANGENCY_MATRIX,
    bracket,
    d1,
    d2,
    degree,
    generic_ranks,
    _maps_at,
    jacobiator,
    leibniz_residual,
    resolution_matrices,
    verify_matrix_vs_transcription,
)
from ohopf.polyring import PolyRing


def _ring_with_sections():
    names = vector_names("u", 8) + vector_names("v", 8) + vector_names("a", 8)
    names += ["mu", "nu", "t"]
    ring = PolyRing(8, names)
    X = E0Section(vector_symbol(ring, "u", 8), vector_symbol(ring, "v", 8))
    Z = Sec1(ring.poly("mu"), vector_symbol(ring, "a", 8), ring.poly("nu"))
    T = Sec2(ring.poly("t"))
    return ring, X, Z, T


def test_degrees():
    ring, X, Z, T = _ring_with_sections()
    assert degree(X) == 0 and degree(Z) == -1 and degree(T) == -2
    with pytest.raises(TypeError):
        degree("nope")


def test_d1_simple_payloads():
    ring = PolyRing(8)
    zero_elem = AlgebraElement(tuple(ring.zero for _ in range(8)), 8)
    # d1(1, 0, 0) = (x, 0)
    out = d1(Sec1(ring.one, zero_elem, ring.zero), ring)
    assert [str(p) for p in out.u.coeffs] == ["x%d" % i for i in range(8)]
    assert all(p.is_zero() for p in out.v.coeffs)
    # d1(0, 0, 1) = (0, y)
    out = d1(Sec1(ring.zero, zero_elem, ring.one), ring)
    assert all(p.is_zero() for p in out.u.coeffs)
    assert [str(p) for p in out.v.coeffs] == ["y%d" % i for i in range(8)]


def test_differentials_vanish_at_origin():
    ring, X, Z, T = _ring_with_sections()
    for comp in (*d1(Z, ring).components(), *d2(T, ring).components()):
        assert comp.vanishes_at_base_origin()


def test_complex_property():
    ring, X, Z, T = _ring_with_sections()
    assert d1(d2(T, ring), ring).is_zero()
    from ohopf.algebroid import anchor

    assert anchor(d1(Z, ring), ring).is_zero()


def test_self_bracket_of_degree_minus_one():
    # [(mu,a,nu), (mu,a,nu)] = 4|a|^2 - 4 mu nu
    ring, X, Z, T = _ring_with_sections()
    out = bracket(Z, Z, ring)
    expected = 4 * Z.a.inner(Z.a) - 4 * ring.poly("mu") * ring.poly("nu")
    assert (out.t - expected).is_zero()


def test_degree_zero_pairs_return_zero():
    ring, X, Z, T = _ring_with_sections()
    assert bracket(Z, T, ring) is None
    assert bracket(T, Z, ring) is None
    assert bracket(T, Sec2(ring.poly("t")), ring) is None


def test_bracket_with_t_at_origin():
    ring, X, Z, T = _ring_with_sections()
    out = bracket(X, T, ring)
    assert out.t.vanishes_at_base_origin()


def test_jacobiator_degree_reasons():
    ring, X, Z, T = _ring_with_sections()
    assert jacobiator(Z, Z, Z, ring) is None
    assert jacobiator(T, T, T, ring) is None
    out = jacobiator(X, Z, T, ring)
    assert out is None or out.is_zero()


def test_leibniz_residual_shapes():
    ring, X, Z, T = _ring_with_sections()
    res = leibniz_residual(X, Z, ring)
    assert res.is_zero()
    res = leibniz_residual(X, T, ring)
    assert res.is_zero()


def test_transcription_shape():
    assert len(TRANSCRIBED_TANGENCY_MATRIX) == 10
    assert all(len(row) == 16 for row in TRANSCRIBED_TANGENCY_MATRIX)


def test_matrix_report():
    report = verify_matrix_vs_transcription()
    assert report.passed, [c.info for c in report.checks if not c.passed]


def test_chain_complex_matrix_products_vanish():
    # composition of consecutive maps is the zero matrix over the
    # polynomial ring: J Rho = 0, Rho D1 = 0, D1 D2 = 0
    mats = resolution_matrices()

    def product_is_zero(A, B):
        rows, inner, cols = len(A), len(B), len(B[0])
        assert len(A[0]) == inner
        for i in range(rows):
            for j in range(cols):
                acc = None
                for k in range(inner):
                    term = A[i][k] * B[k][j]
                    acc = term if acc is None else acc + term
                if not acc.is_zero():
                    return False
        return True

    assert product_is_zero(mats.J, mats.Rho)
    assert product_is_zero(mats.Rho, mats.D1)
    assert product_is_zero(mats.D1, mats.D2)


def test_resolution_matrix_shapes_and_degrees():
    mats = resolution_matrices()
    assert (len(mats.J), len(mats.J[0])) == (10, 16)
    assert (len(mats.Rho), len(mats.Rho[0])) == (16, 16)
    assert (len(mats.D1), len(mats.D1[0])) == (16, 10)
    assert (len(mats.D2), len(mats.D2[0])) == (10, 1)
    degrees = {sum(p.ring.exponents(k)) for row in mats.Rho for p in row for k in p.terms}
    assert degrees == {2}


def test_maps_at_origin_are_zero():
    z = AlgebraElement.zero(8)
    mats = _maps_at(z, z)
    assert not any(np.array(M, dtype=float).any() for M in (mats.J, mats.Rho, mats.D1, mats.D2))


def test_generic_rank_values():
    rng = np.random.default_rng(12)
    coords = rng.uniform(0.5, 2.0, 16)
    x = AlgebraElement(tuple(coords[:8]), 8)
    y = AlgebraElement(tuple(coords[8:]), 8)
    mats = _maps_at(x, y)
    ranks = tuple(
        np.linalg.matrix_rank(np.array(M, dtype=float), tol=1e-8)
        for M in (mats.J, mats.Rho, mats.D1, mats.D2)
    )
    assert ranks == (9, 7, 9, 1)


def test_matrices_at_point_match_symbolic_evaluation():
    # the builder at an exact rational point agrees entrywise with the
    # polynomial matrices evaluated at that point: Fraction and Polynomial
    # backends of the same definitions checked against each other
    rng = np.random.default_rng(0)
    coords = [Fraction(int(v), 4) for v in rng.integers(-8, 8, 16)]
    x = AlgebraElement(tuple(coords[:8]), 8)
    y = AlgebraElement(tuple(coords[8:]), 8)
    at = {"x%d" % i: coords[i] for i in range(8)}
    at.update({"y%d" % i: coords[8 + i] for i in range(8)})
    numeric = _maps_at(x, y)
    symbolic = resolution_matrices()
    for name in ("J", "Rho", "D1", "D2"):
        got = getattr(numeric, name)
        expected = [[p.evaluate(at) for p in row] for row in getattr(symbolic, name)]
        assert [list(row) for row in got] == expected, name


def test_rank_suite():
    report = generic_ranks()
    assert report.passed, [(c.name, c.info) for c in report.checks if not c.passed]


def _product_is_zero(A, B):
    """A B = 0 for integer matrices given as rows, in exact int arithmetic."""
    return all(sum(a * b for a, b in zip(row, col)) == 0 for row in A for col in zip(*B))


def test_integer_points_eliminate_to_the_certified_ranks():
    # an oracle independent of the certificates and of polyring: exact
    # elimination over Q and exact integer matrix products at seeded integer
    # points, the last three on the infinity line x = 0
    rng = random.Random(5)
    z = AlgebraElement.zero(8)
    for i in range(10):
        x = z if i >= 7 else random_integer_element(rng, 8)
        y = random_integer_element(rng, 8)
        mats = _maps_at(x, y)
        assert tuple(dense_rank(M) for M in (mats.Rho, mats.D1, mats.D2)) == (7, 9, 1), (x, y)
        assert dense_rank(mats.J) == 9, (x, y)
        maps = (mats.J, mats.Rho, mats.D1, mats.D2)
        assert all(type(c) is int for M in maps for row in M for c in row)
        assert _product_is_zero(mats.Rho, mats.D1), (x, y)  # rho . d1 = 0
        assert _product_is_zero(mats.D1, mats.D2), (x, y)  # d1 . d2 = 0
        assert _product_is_zero(mats.J, mats.Rho), (x, y)  # J . rho = 0


def test_symbolic_suite():
    report = prove_rows("lie3", CHECKS)
    assert report.passed, [c.name for c in report.checks if not c.passed]


# -- detector sensitivity ---------------------------------------------------
# the suites must be able to fail: perturbed structure data may not slip
# through as identically zero


def test_broken_differential_is_detected():
    ring, X, Z, T = _ring_with_sections()
    from ohopf.algebra import coordinate_elements

    x, y = coordinate_elements(ring, 8)
    # d2 with the sign of the mu slot flipped no longer squares to zero
    broken = Sec1(y.norm_sq() * T.t, (x * y.conjugate()).scale(T.t), -(x.norm_sq() * T.t))
    assert not d1(broken, ring).is_zero()


def test_missing_leibniz_correction_is_detected(monkeypatch):
    # with the anchor action on coefficients disabled, the graded Jacobi
    # identity on degrees (0,0,-1) must fail: the correction carries weight
    import ohopf.algebroid as algebroid_mod
    import ohopf.lie3 as lie3_mod
    def no_action(X, f, ring):
        return ring.zero

    monkeypatch.setattr(lie3_mod, "vf_apply", no_action)
    monkeypatch.setattr(algebroid_mod, "vf_apply", no_action)
    ring, X, Y, W, Z1, Z2, T1, T2 = _sym_sections(8)
    out = jacobiator(X, Y, Z1, ring)
    assert out is not None and not out.is_zero()


def test_flipped_bracket_term_is_detected(monkeypatch):
    # the term (a v) conj(y) of [x, z] with its sign flipped: the deferred
    # sums of the Jacobi and Leibniz residuals must not cancel it away
    import ohopf.lie3 as lie3_mod
    from ohopf.algebra import coordinate_elements

    original = lie3_mod.bracket

    def flipped(s1, s2, ring):
        out = original(s1, s2, ring)
        if (degree(s1), degree(s2)) == (0, -1):
            _, y = coordinate_elements(ring, s1.dim)
            term = (s2.a * s1.v) * y.conjugate()
            out = Sec1(out.mu, out.a - term - term, out.nu)
        return out

    monkeypatch.setattr(lie3_mod, "bracket", flipped)
    failed = {c.name for c in prove_rows("lie3", CHECKS).checks if not c.passed}
    assert {"jacobi_0_0_m1", "leibniz_0_m1"} <= failed


def test_unsigned_reversed_bracket_is_detected(monkeypatch):
    # [z, x] = [x, z] instead of -[x, z]: the mirror argument of jacobi_0_0_m1
    # rests on that sign, so the proof must not hide its loss
    import ohopf.lie3 as lie3_mod

    original = lie3_mod.bracket

    def unsigned(s1, s2, ring):
        if (degree(s1), degree(s2)) == (-1, 0):
            return original(s2, s1, ring)
        return original(s1, s2, ring)

    monkeypatch.setattr(lie3_mod, "bracket", unsigned)
    failed = {c.name for c in prove_rows("lie3", CHECKS).checks if not c.passed}
    assert {"jacobi_0_0_m1", "antisymmetry_0_m1"} <= failed


def test_the_mirror_of_a_jacobi_term_is_the_other_term():
    # sigma swaps X's variables (u, v) with Y's (p, q); the other term is
    # computed directly through bracket, an oracle independent of the mirror
    s = _sym_sections(8)
    ring = s.ring
    sigma = ring.swap(
        vector_names("u", 8) + vector_names("v", 8), vector_names("p", 8) + vector_names("q", 8)
    )
    mirrored = bracket(s.X, bracket(s.Y, s.Z1, ring), ring).map(sigma)
    other = bracket(s.Y, bracket(s.Z1, s.X, ring), ring)
    pairs = list(zip(mirrored.components(), other.components()))
    assert len(pairs) == 10 and all(a == -b and a for a, b in pairs)


def test_brackets_zero_by_degree_can_fail(monkeypatch):
    # a nonzero bracket for the degree pairs that die by degree must FAIL
    # exactly the checks whose law rests on them
    import ohopf.lie3 as lie3_mod

    original = lie3_mod.bracket

    def nonzero(s1, s2, ring):
        if (degree(s1), degree(s2)) in ((-1, -2), (-2, -1), (-2, -2)):
            return Sec2(ring.one)
        return original(s1, s2, ring)

    monkeypatch.setattr(lie3_mod, "bracket", nonzero)
    failed = {c.name for c in prove_rows("lie3", CHECKS).checks if not c.passed}
    assert failed == {
        "jacobi_0_m1_m2",
        "jacobi_0_m2_m2",
        "jacobi_m1_m1_m1",
        "jacobi_m1_m1_m2",
        "jacobi_m1_m2_m2",
        "jacobi_m2_m2_m2",
        "degree_pairs_zero",
    }


def test_perturbed_transcription_is_detected():
    import ohopf.lie3 as lie3_mod

    row = list(TRANSCRIBED_TANGENCY_MATRIX[2])
    row[0] = " y1"  # flip one sign
    perturbed = TRANSCRIBED_TANGENCY_MATRIX[:2] + (tuple(row),) + TRANSCRIBED_TANGENCY_MATRIX[3:]
    original = lie3_mod.TRANSCRIBED_TANGENCY_MATRIX
    lie3_mod.TRANSCRIBED_TANGENCY_MATRIX = perturbed
    try:
        report = verify_matrix_vs_transcription()
    finally:
        lie3_mod.TRANSCRIBED_TANGENCY_MATRIX = original
    assert not report.passed
