"""Anchor, bracket, commutators, groupoid consistency."""

import math
from fractions import Fraction

import numpy as np

from ohopf.algebra import AlgebraElement, coordinate_elements, vector_names, vector_symbol
from ohopf.algebroid import (
    E0Section,
    VectorField,
    _rho,
    anchor,
    bracket_e0,
    constant_section,
    lift,
    vf_apply,
    vf_commutator,
    verify_algebroid_symbolic,
    verify_groupoid_consistency,
)
from ohopf.polyring import PolyRing


def test_anchor_basis_formula():
    # rho(e_i, 0) = (|x|^2 e_i - x_i x, (y conj(x)) e_i - x_i y)
    ring = PolyRing(8)
    x, y = coordinate_elements(ring, 8)
    for i in (0, 3, 7):
        X = anchor(constant_section(8, i, 0), ring)
        e = AlgebraElement.basis(8, i)
        lifted = lift(E0Section(e, AlgebraElement.zero(8)), ring)
        expected_u = lifted.u.scale(x.norm_sq()) - x.scale(ring.x(i))
        expected_v = (y * x.conjugate()) * lifted.u - y.scale(ring.x(i))
        assert (X.u - expected_u).is_zero()
        assert (X.v - expected_v).is_zero()


def test_anchor_vanishes_at_origin():
    ring = PolyRing(8)
    X = anchor(constant_section(8, 2, 1), ring)
    origin = {v.name: 0 for v in ring.variables}
    assert all(c.substitute(origin).is_zero() for c in X.components())


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
    expected = lift(s2, ring).scale(ring.x(0)) - lift(s1, ring).scale(ring.y(0))
    assert (br - expected).is_zero()


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
    report = verify_algebroid_symbolic()
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_groupoid_consistency_suite():
    report = verify_groupoid_consistency(60, seed=1, tol=1e-6)
    assert report.passed, [(c.name, c.info) for c in report.checks if not c.passed]


def test_nan_anchor_fails_target_derivative(monkeypatch):
    from ohopf import algebroid

    def nan_rho(sec, x, y):
        nan = AlgebraElement((float("nan"),) * sec.dim, sec.dim)
        return VectorField(nan, nan)

    monkeypatch.setattr(algebroid, "_rho", nan_rho)
    report = verify_groupoid_consistency(5, seed=1, tol=1e-6)
    check = next(c for c in report.checks if c.name == "target_derivative_is_anchor")
    assert not check.passed
    assert math.isnan(check.info["max_residual"])
