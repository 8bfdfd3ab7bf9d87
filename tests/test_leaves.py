"""Leaf classification, sampling, CSV export, the fibration counterexample."""

import csv
import math
from fractions import Fraction

import numpy as np
import pytest

from ohopf.algebra import AlgebraElement, from_array
from ohopf.leaves import (
    LeafId,
    PointD2,
    classify,
    export_csv,
    infinity_leaf,
    on_leaf,
    origin_leaf,
    right_mult_counterexample,
    same_leaf,
    sample_leaf,
    slope_leaf,
    verify_leaves,
)
from ohopf.report import derived_rng


def E(i, dim=8):
    return AlgebraElement.basis(dim, i)


def test_classify_origin_and_infinity():
    z = AlgebraElement.zero(8)
    assert classify(PointD2(z, z)) == origin_leaf(8) == LeafId(0, z, 0)
    assert classify(PointD2(z, E(1).scale(2.0))) == infinity_leaf(8, 4.0)
    assert classify(PointD2(E(1), z)) != infinity_leaf(8, 1)


def test_classify_basis_point():
    leaf = classify(PointD2(E(0), E(1)))
    # pi = (|x|^2, x*conj(y), |y|^2) = (1, -e1, 1), the leaf of slope e1 and r^2 = 2
    assert leaf == LeafId(1, -E(1), 1) == slope_leaf(E(1), 2)


def test_classify_slope_through_table():
    s = 1.0 / math.sqrt(2.0)
    leaf = classify(PointD2(E(1).scale(s), E(2).scale(s)))
    # the slope conj(pi_2) / pi_1 is y x^-1 = e2 (-e1) = e3
    assert np.allclose((leaf.b.conjugate() / leaf.a).as_floats(), E(3).as_floats())
    assert abs(leaf.a + leaf.c - 1.0) < 1e-15


def test_leaf_equality_of_a_batch_names_the_batch():
    p = PointD2(from_array(np.ones((3, 8))), from_array(np.zeros((3, 8))))
    with pytest.raises(TypeError, match="batch"):
        classify(p) == classify(p)


def test_same_leaf_exact_rationals():
    x = AlgebraElement((Fraction(3, 5), Fraction(4, 5)) + (Fraction(0),) * 6)
    m = AlgebraElement((Fraction(1, 2), Fraction(1, 3)) + (Fraction(0),) * 6)
    p = PointD2(x, m * x)
    q = PointD2(E(0), m * E(0))  # same slope, same norm: |x| = 1
    assert same_leaf(p, q, tol=0)
    m2 = m + E(4)
    assert not same_leaf(p, PointD2(x, m2 * x), tol=0)


def test_same_leaf_float_scaling():
    rng = np.random.default_rng(0)
    x = from_array(rng.normal(size=8))
    m = from_array(rng.normal(size=8))
    p = PointD2(x, m * x)
    u = from_array(rng.normal(size=8))
    norm = math.sqrt(float(x.norm_sq()) / float(u.norm_sq()))
    q = PointD2(u.scale(norm), (m * u).scale(norm))
    assert same_leaf(p, q, tol=1e-9)


def _coords(pts):
    """(n, 2 dim) float rows of a batch of points."""
    return np.hstack([pts.x.as_floats(), pts.y.as_floats()])


def test_sample_leaf_origin_and_determinism():
    pts = sample_leaf(origin_leaf(8), 3, seed=5)
    # exact +0.0 rows, not -0.0
    assert _coords(pts).shape == (3, 16) and not np.any(np.signbit(_coords(pts)) | (_coords(pts) != 0))
    a = sample_leaf(slope_leaf(E(1), 1.0), 10, seed=42)
    b = sample_leaf(slope_leaf(E(1), 1.0), 10, seed=42)
    assert np.array_equal(_coords(a), _coords(b))
    # a stream continues in place: two draws of 4 and 6 are one draw of 10
    rng = derived_rng(42, 0)
    parts = [sample_leaf(slope_leaf(E(1), 1.0), k, seed=rng) for k in (4, 6)]
    assert np.array_equal(np.vstack([_coords(p) for p in parts]), _coords(a))
    with pytest.raises(ValueError):
        sample_leaf(origin_leaf(8), 0, seed=1)


def test_sample_leaf_infinity():
    for dim in (1, 4, 8):  # the dimension is read off the leaf
        leaf = infinity_leaf(dim, 1.0)
        pts = sample_leaf(leaf, 10, seed=3)
        assert _coords(pts).shape == (10, 2 * dim)
        assert not np.any(pts.x.as_floats())
        assert np.max(np.abs(pts.y.norm_sq() - 1.0)) < 1e-12
        assert np.all(on_leaf(pts, leaf, tol=1e-12))


def test_sample_leaf_finite_slope():
    leaf = slope_leaf(E(1), 1.0)
    pts = sample_leaf(leaf, 100, seed=9)
    assert _coords(pts).shape == (100, 16)
    assert np.max(np.abs(pts.x.norm_sq() + pts.y.norm_sq() - 1.0)) < 1e-12
    assert np.all(on_leaf(pts, leaf, tol=1e-9))
    # y = e1 * x exactly by construction
    assert np.max(((E(1) * pts.x) - pts.y).norm_sq()) < 1e-24


def test_export_csv(tmp_path):
    path = tmp_path / "leaf.csv"
    pts = sample_leaf(slope_leaf(E(2), 2.25), 7, seed=1)
    export_csv(pts, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x%d" % i for i in range(8)] + ["y%d" % i for i in range(8)]
    assert len(rows) == 8
    floats = [float(v) for v in rows[1]]
    assert abs(sum(f * f for f in floats) - 2.25) < 1e-12


def test_counterexample_values():
    report = right_mult_counterexample(seed=0)
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["first_equation"].info["u3"] == ["0", "-1", "0", "0", "0", "0", "0", "0"]
    assert by_name["second_equation"].info["u3"] == ["0", "1", "0", "0", "0", "0", "0", "0"]


@pytest.mark.parametrize("dim", (1, 2, 4, 8))
def test_leaf_suite(dim):
    report = verify_leaves(dim, 32, seed=2, tol=1e-9)
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_nan_leaf_point_fails_and_is_reported(monkeypatch):
    from ohopf import leaves

    real = leaves.sample_leaf

    def with_nan(leaf, n, seed):
        pts = real(leaf, n, seed)
        x, y = pts.x.as_floats(), pts.y.as_floats()
        x[0] = y[0] = float("nan")
        return PointD2(from_array(x), from_array(y))

    monkeypatch.setattr(leaves, "sample_leaf", with_nan)
    report = verify_leaves(4, 16, seed=3, tol=1e-9)
    check = {c.name: c for c in report.checks}["sampled_points_on_leaf"]
    assert not check.passed
    assert math.isnan(check.info["max_sphere_residual"])


def _row(p, i):
    return PointD2(from_array(p.x.as_floats()[i]), from_array(p.y.as_floats()[i]))


def test_mixed_batch_equals_its_rows():
    # rows: finite slope, infinity line (x = 0), origin, a NaN row, and q
    # either on p's leaf (a rotation along it) or off it
    rng = np.random.default_rng(17)
    n = 9
    x, y = rng.normal(size=(n, 8)), rng.normal(size=(n, 8))
    x[[1, 5]] = 0.0
    x[[2, 6]] = y[[2, 6]] = 0.0
    x[7, 3] = float("nan")
    p = PointD2(from_array(x), from_array(y))
    u = from_array(rng.normal(size=(n, 8)))
    q = PointD2(p.x * u, p.y * u)  # off the leaf at dim 8 except on the special rows
    leaf = classify(p)
    for tol in (0.0, 1e-9):
        for other in (p, q):
            batch = same_leaf(p, other, tol)
            for i in range(n):
                assert batch[i] == same_leaf(_row(p, i), _row(other, i), tol), (tol, i)
    on = on_leaf(q, leaf, 1e-9)
    for i in range(n):
        row_leaf = classify(_row(p, i))
        assert on[i] == on_leaf(_row(q, i), row_leaf, 1e-9)
        assert np.array_equal(leaf.b.as_floats()[i], row_leaf.b.as_floats(), equal_nan=True)
    assert list(same_leaf(p, p, 1e-9)) == [i != 7 for i in range(n)]
    assert list(same_leaf(p, q, 1e-9)) == [i in (2, 6) for i in range(n)]


@pytest.mark.parametrize("dim", (1, 2, 4, 8))
def test_same_leaf_separation_needs_the_slope_invariant(monkeypatch, dim):
    # m' is rescaled to |m|, so (x, m x) and (x, m' x) share |x|^2 and |y|^2:
    # with pi_2 dropped from classify the check must fail
    from ohopf import leaves

    def without_pi2(p):
        return LeafId(p.x.norm_sq(), AlgebraElement.zero(p.x.dim), p.y.norm_sq())

    monkeypatch.setattr(leaves, "classify", without_pi2)
    report = verify_leaves(dim, 32, seed=2, tol=1e-9)
    assert not {c.name: c for c in report.checks}["same_leaf_separates_slopes"].passed
