"""Leaf classification, sampling, CSV export, the fibration counterexample."""

import csv
import math
from fractions import Fraction

import numpy as np
import pytest

from ohopf.algebra import AlgebraElement, from_array
from ohopf.leaves import (
    INFINITY,
    LeafId,
    ORIGIN,
    PointD2,
    classify,
    export_csv,
    on_leaf,
    right_mult_counterexample,
    same_leaf,
    sample_leaf,
    verify_leaves,
)


def E(i, dim=8):
    return AlgebraElement.basis(dim, i)


def test_classify_origin_and_infinity():
    z = AlgebraElement.zero(8)
    assert classify(PointD2(z, z)).is_origin
    leaf = classify(PointD2(z, E(1).scale(2.0)))
    assert leaf.is_infinite_slope and leaf.radius_sq == 4.0


def test_classify_basis_point():
    leaf = classify(PointD2(E(0), E(1)))
    assert leaf.slope == E(1)
    assert leaf.radius_sq == 2


def test_classify_slope_through_table():
    s = 1.0 / math.sqrt(2.0)
    leaf = classify(PointD2(E(1).scale(s), E(2).scale(s)))
    # y x^-1 = e2 (-e1) = e3 after the inverse flips the sign
    assert np.allclose(leaf.slope.as_floats(), E(3).as_floats())
    assert abs(leaf.radius_sq - 1.0) < 1e-15


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
    pts = sample_leaf(LeafId(ORIGIN, 0), 3, seed=5)
    assert _coords(pts).shape == (3, 16) and not np.any(_coords(pts))
    a = sample_leaf(LeafId(E(1), 1.0), 10, seed=42)
    b = sample_leaf(LeafId(E(1), 1.0), 10, seed=42)
    assert np.array_equal(_coords(a), _coords(b))
    # a Generator continues its stream: two draws of 4 and 6 are one draw of 10
    rng = np.random.default_rng(42)
    parts = [sample_leaf(LeafId(E(1), 1.0), k, seed=rng) for k in (4, 6)]
    assert np.array_equal(np.vstack([_coords(p) for p in parts]), _coords(a))
    with pytest.raises(ValueError):
        sample_leaf(LeafId(ORIGIN, 0), 0, seed=1)


def test_sample_leaf_infinity():
    pts = sample_leaf(LeafId(INFINITY, 1.0), 10, seed=3)
    assert _coords(pts).shape == (10, 16)
    assert not np.any(pts.x.as_floats())
    assert np.max(np.abs(pts.y.norm_sq() - 1.0)) < 1e-12


def test_sample_leaf_finite_slope():
    leaf = LeafId(E(1), 1.0)
    pts = sample_leaf(leaf, 100, seed=9)
    assert _coords(pts).shape == (100, 16)
    assert np.max(np.abs(pts.x.norm_sq() + pts.y.norm_sq() - 1.0)) < 1e-12
    assert np.all(on_leaf(pts, leaf, tol=1e-9))
    # y = e1 * x exactly by construction
    assert np.max(((E(1) * pts.x) - pts.y).norm_sq()) < 1e-24


def test_export_csv(tmp_path):
    path = tmp_path / "leaf.csv"
    pts = sample_leaf(LeafId(E(2), 2.25), 7, seed=1)
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

    def with_nan(leaf, n, seed, dim=None):
        pts = real(leaf, n, seed, dim=dim)
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
    # rows: finite slope, infinity line (x = 0), origin, and q either on p's
    # leaf (a rotation along it) or off it
    rng = np.random.default_rng(17)
    n = 9
    x, y = rng.normal(size=(n, 8)), rng.normal(size=(n, 8))
    x[[1, 5]] = 0.0
    x[[2, 6]] = y[[2, 6]] = 0.0
    p = PointD2(from_array(x), from_array(y))
    u = from_array(rng.normal(size=(n, 8)))
    q = PointD2(p.x * u, p.y * u)  # off the leaf at dim 8 except on the special rows
    leaf = classify(p, 1e-9)
    assert list(leaf.origin) == [i in (2, 6) for i in range(n)]
    assert list(leaf.infinite) == [i in (1, 5) for i in range(n)]
    for tol in (0.0, 1e-9):
        for other in (p, q):
            batch = same_leaf(p, other, tol)
            for i in range(n):
                assert batch[i] == same_leaf(_row(p, i), _row(other, i), tol), (tol, i)
    on = on_leaf(q, leaf, 1e-9)
    for i in range(n):
        row_leaf = classify(_row(p, i), 1e-9)
        assert on[i] == on_leaf(_row(q, i), row_leaf, 1e-9)
        assert np.max(np.abs(leaf.slope.as_floats()[i] - row_leaf.slope.as_floats())) == 0.0
    assert all(same_leaf(p, p, 1e-9))
