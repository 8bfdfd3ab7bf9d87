"""Anchor, bracket, commutators, groupoid consistency."""

from fractions import Fraction

import numpy as np
import pytest

from ohopf import algebroid, foliation, lie3
from ohopf.algebra import AlgebraElement, coordinate_elements, vector_names, vector_symbol
from ohopf.algebroid import (
    E0Section,
    VectorField,
    _rho,
    anchor,
    bracket_e0,
    constant_section,
    prove_rows,
    vf_apply,
    vf_commutator,
    verify_groupoid_consistency,
)
from ohopf.lie3 import Sec1, Sec2
from ohopf.polyring import Deferred, ExponentOverflow, PolyRing, sum_of_products
from test_mutations import _doubled_rho_v_part, _extra_rho_term, _rho_with_constant_u


def test_anchor_basis_formula():
    # rho(e_i, 0) = (|x|^2 e_i - x_i x, (y conj(x)) e_i - x_i y)
    ring = PolyRing(8)
    x, y = coordinate_elements(ring, 8)
    for i in (0, 3, 7):
        X = anchor(constant_section(8, i, 0), ring)
        e = AlgebraElement.basis(8, i)
        expected_u = e.scale(x.norm_sq()) - x.scale(ring.x(i))
        expected_v = (y * x.conjugate()) * e - y.scale(ring.x(i))
        assert (X.u - expected_u).is_zero()
        assert (X.v - expected_v).is_zero()


def test_anchor_vanishes_at_origin():
    ring = PolyRing(8)
    X = anchor(constant_section(8, 2, 1), ring)
    assert all(c.vanishes_at_base_origin() for c in X.components())


def test_anchor_at_matches_symbolic_evaluation():
    # rho at an exact rational point agrees with the symbolic anchor
    # evaluated there: Fraction and Polynomial backends of one definition
    ring = PolyRing(8)
    rng = np.random.default_rng(0)

    def rational(vals):
        return AlgebraElement(tuple(Fraction(int(v), 4) for v in vals), 8)

    u = rational(rng.integers(-8, 8, 8))
    v = rational(rng.integers(-8, 8, 8))
    x = rational(rng.integers(-8, 8, 8))
    y = rational(rng.integers(-8, 8, 8))
    numeric = _rho(E0Section(u, v), x, y)
    sym = anchor(E0Section(u, v), ring)
    at = {"x%d" % i: x.coeffs[i] for i in range(8)}
    at.update({"y%d" % i: y.coeffs[i] for i in range(8)})
    evaluated = [c.evaluate(at) for c in sym.components()]
    assert evaluated == [*numeric.u.coeffs, *numeric.v.coeffs]


def test_bracket_constant_sections_formula():
    # [(e0, 0), (0, e0)] = x0 (0, e0) - y0 (e0, 0)
    ring = PolyRing(8)
    s1 = constant_section(8, 0, 0)
    s2 = constant_section(8, 0, 1)
    br = bracket_e0(s1, s2, ring)
    expected = s2.scale(ring.x(0)) - s1.scale(ring.y(0))
    assert (br - expected).is_zero()


def _coefficient(ring, k):
    """int, Fraction and Polynomial coefficients in turn; k = 3 gives a zero."""
    return (k - 3, Fraction(k, 3), ring.x(k % 8) + k, ring.y(k % 8) * Fraction(k, 2))[k % 4]


def _from_components(cls, comps):
    if cls is Sec1:
        return Sec1(comps[0], AlgebraElement(comps[1:9]), comps[9])
    if cls is Sec2:
        return Sec2(comps[0])
    return cls(AlgebraElement(comps[:8]), AlgebraElement(comps[8:]))


SECTION_SIZES = {E0Section: 16, VectorField: 16, Sec1: 10, Sec2: 1}


@pytest.mark.parametrize("cls", list(SECTION_SIZES), ids=lambda c: c.__name__)
def test_section_arithmetic_is_componentwise(cls):
    ring = PolyRing(8)
    n = SECTION_SIZES[cls]
    ca = tuple(_coefficient(ring, k) for k in range(n))
    cb = tuple(_coefficient(ring, k + 5) for k in range(n))
    a, b = _from_components(cls, ca), _from_components(cls, cb)
    f = ring.x(1) - Fraction(2, 3)
    assert a.components() == ca
    results = {
        "add": ((a + b), [p + q for p, q in zip(ca, cb)]),
        "sub": ((a - b), [p - q for p, q in zip(ca, cb)]),
        "neg": ((-a), [-p for p in ca]),
        "scale": (a.scale(f), [f * p for p in ca]),
        "map": (a.map(lambda c: c * c + 1), [p * p + 1 for p in ca]),
    }
    for name, (got, expected) in results.items():
        assert type(got) is cls, name
        assert got.components() == tuple(expected), name
    assert (a - a).is_zero()
    assert _from_components(cls, (0,) * n).is_zero()
    for k in range(n):
        # one nonzero coefficient anywhere makes the section nonzero
        assert not _from_components(cls, tuple(ring.y(0) if j == k else 0 for j in range(n))).is_zero()


def test_vf_apply_to_a_constant_is_zero():
    ring = PolyRing(8)
    X = anchor(constant_section(8, 1, 0), ring)
    assert vf_apply(X, 3, ring).is_zero()
    assert vf_apply(X, Fraction(1, 2), ring).is_zero()


def test_integer_sections_match_constant_polynomials():
    # numbers mix with polynomials, so integer sections need no lift
    ring = PolyRing(8)
    s1 = E0Section(AlgebraElement(tuple(range(1, 9))), AlgebraElement(tuple(range(-4, 4))))
    s2 = E0Section(AlgebraElement((0, 2, 0, -1, 0, 0, 5, 0)), AlgebraElement.basis(8, 3).scale(7))
    p1, p2 = s1.map(ring.const), s2.map(ring.const)
    assert anchor(s1, ring) == anchor(p1, ring)
    assert bracket_e0(s1, s2, ring) == bracket_e0(p1, p2, ring)
    assert bracket_e0(s1, p2, ring) == bracket_e0(p1, p2, ring)
    Z = Sec1(2, AlgebraElement(tuple(range(3, 11))), Fraction(-1, 2))
    T = Sec2(3)
    for a, b in ((s1, Z), (s1, T), (Z, Z), (Z, s1), (T, s1)):
        assert lie3.bracket(a, b, ring) == lie3.bracket(a.map(ring.const), b.map(ring.const), ring)
    assert lie3.d1(Z, ring) == lie3.d1(Z.map(ring.const), ring)
    assert lie3.d2(T, ring) == lie3.d2(T.map(ring.const), ring)


def test_bracket_self_is_zero():
    ring = PolyRing(8)
    names = vector_names("u", 8) + vector_names("v", 8)
    ring = PolyRing(8, names)
    s = E0Section(vector_symbol(ring, "u", 8), vector_symbol(ring, "v", 8))
    assert bracket_e0(s, s, ring).is_zero()


def test_vf_commutator_examples():
    ring = PolyRing(8)
    zero = AlgebraElement(tuple(ring.zero for _ in range(8)), 8)

    def field(**comps):
        u = list(zero.coeffs)
        v = list(zero.coeffs)
        for key, val in comps.items():
            idx = int(key[1:])
            (u if key[0] == "x" else v)[idx] = val
        return VectorField(AlgebraElement(tuple(u), 8), AlgebraElement(tuple(v), 8))

    X = field(x0=ring.one)  # d/dx0
    Y = field(x1=ring.x(0))  # x0 d/dx1
    assert vf_commutator(X, X, ring).is_zero()
    expected = field(x1=ring.one)
    assert (vf_commutator(X, Y, ring) - expected).is_zero()


def test_vf_apply_keeps_the_exponent_guard():
    ring = PolyRing(2)
    x = ring.x(0)
    zero = AlgebraElement.zero(2)
    X = VectorField(AlgebraElement((ring.y(1), 3), 2), AlgebraElement((x**16, 0), 2))
    assert vf_apply(X, x * x + ring.x(1), ring) == x * ring.y(1) * 2 + 3
    with pytest.raises(ExponentOverflow):
        vf_apply(X, x * ring.y(0), ring)
    assert vf_apply(VectorField(zero, zero), x, ring).is_zero()


def test_vf_apply_derives_a_deferred_function():
    # a deferred sum is a Polynomial: vf_apply reads and derives it, and
    # never takes it for a constant
    ring = PolyRing(8, vector_names("u", 8))
    x, y = coordinate_elements(ring, 8)
    u = vector_symbol(ring, "u", 8)
    deferred = x.inner(y * u)
    assert isinstance(deferred, Deferred)
    twin = sum_of_products(ring, deferred.triples)
    X = VectorField(u, AlgebraElement.zero(8))
    got = vf_apply(X, deferred, ring)
    assert not got.is_zero()
    assert got == vf_apply(X, twin, ring)


def test_vf_apply_is_derivation():
    ring = PolyRing(8)
    zero = AlgebraElement(tuple(ring.zero for _ in range(8)), 8)
    X = VectorField(
        AlgebraElement((ring.one,) + tuple(ring.zero for _ in range(7)), 8), zero
    )
    f = ring.x(0) * ring.x(0) * ring.y(1)
    g = ring.x(0) + ring.y(1)
    assert (vf_apply(X, f * g, ring) - (vf_apply(X, f, ring) * g + f * vf_apply(X, g, ring))).is_zero()


def test_symbolic_suite():
    report = prove_rows("algebroid_symbolic", algebroid.SYMBOLIC_CHECKS)
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_groupoid_consistency_suite():
    for dim in (1, 2, 4, 8):
        report = verify_groupoid_consistency(dim)
        assert report.passed, (dim, [c.name for c in report.checks if not c.passed])


def _d1_without_conjugation(original):
    # a x in place of conj(a) x
    return lambda s, x, y: E0Section(original(s, x, y).u, y.scale(s.nu) + s.a * x)


def _merged_rho_columns(original):
    # (e_1, 0) is sent to the field of (e_0, 0): two basis fields coincide
    def rho(sec, x, y):
        c = sec.u.coeffs
        return original(E0Section(AlgebraElement((c[0] + c[1], 0) + c[2:]), sec.v), x, y)

    return rho


def _doubled_d2(original):
    return lambda s, x, y: original(s, x, y).scale(2)


def _d1_with_constant_term(original):
    # d1 + (a, 0) no longer vanishes at the origin
    return lambda s, x, y: original(s, x, y) + E0Section(s.a, AlgebraElement.zero(s.a.dim))


def _d2_with_constant_mu(original):
    # d2 + (t, 0, 0)
    def d2(s, x, y):
        out = original(s, x, y)
        return Sec1(out.mu + s.t, out.a, out.nu)

    return d2


def _one_row(report, checks, name):
    """The report of the one row of its checks table named name."""
    return lambda: prove_rows(report, [row for row in checks if row[0] == name])


ANCHOR_AT_ORIGIN = _one_row("algebroid_symbolic", algebroid.SYMBOLIC_CHECKS, "anchor_vanishes_at_origin")
MINIMAL_AT_ORIGIN = _one_row("lie3", lie3.CHECKS, "minimal_at_origin")


@pytest.mark.parametrize(
    "module, name, mutate, run, checks",
    [
        (lie3, "_d1", _d1_without_conjugation, lie3.generic_ranks, "tangency_is_d1_transpose generic_point_ranks"),
        (algebroid, "_rho", _extra_rho_term, lambda: foliation.verify_foliation(8, 0), "tangent_flow_stays_on_leaf"),
        (lie3, "_rho", _doubled_rho_v_part, lie3.generic_ranks, "rho_is_scaled_projection infinity_line_ranks"),
        (lie3, "_d2", _doubled_d2, lie3.generic_ranks, "d2_norm_positive"),
        (lie3, "_d1", _d1_with_constant_term, lie3.generic_ranks, "origin_ranks"),
        (lie3, "_rho", _merged_rho_columns, lie3.generic_ranks, "minimal_rank_consequence"),
        (algebroid, "_rho", _rho_with_constant_u, ANCHOR_AT_ORIGIN, "anchor_vanishes_at_origin"),
        (algebroid, "_rho", _rho_with_constant_u, MINIMAL_AT_ORIGIN, "minimal_at_origin"),
        (lie3, "_d1", _d1_with_constant_term, MINIMAL_AT_ORIGIN, "minimal_at_origin"),
        (lie3, "_d2", _d2_with_constant_mu, MINIMAL_AT_ORIGIN, "minimal_at_origin"),
    ],
    ids=[
        "d1", "rho_flow", "rho_v_part", "d2_doubled", "d1_constant", "rho_merged",
        "rho_at_origin", "rho_minimal", "d1_minimal", "d2_minimal",
    ],
)
def test_mutated_map_fails_its_exact_check(monkeypatch, module, name, mutate, run, checks):
    # checks names every check, separated by spaces, that the mutation must FAIL
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    by_name = {c.name: c for c in run().checks}
    assert not any(by_name[check].passed for check in checks.split())
