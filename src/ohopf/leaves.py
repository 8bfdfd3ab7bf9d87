"""Octonionic lines and the singular Hopf leaf decomposition of D^2.

A line of slope m is {(x, m*x)}; the line of slope infinity is {(0, y)}.
Leaves are intersections of lines with spheres |x|^2 + |y|^2 = r^2, plus the
origin.  They are exactly the fibres of pi(x, y) = (|x|^2, x*conj(y), |y|^2),
the octonionic Hopf map together with the radius: on the leaf of slope m and
squared radius r^2, pi = r^2 / (1 + |m|^2) * (1, conj(m), |m|^2); on the
infinity line pi = (0, 0, |y|^2); at the origin pi = 0.  Alternativity gives
both directions at dims 1, 2, 4, 8 (x*conj(m*x) = |x|^2 conj(m), and where
pi_1 > 0 the slope is conj(pi_2) / pi_1).  So pi is the leaf label, and
membership compares it: no case split, no division, row by row for batches
(elements with (N,) array coefficients).  The leaf suite proves its slope
laws from pi(x, m*x) = |x|^2 (1, conj(m), |m|^2) as polynomials, and only
its leaf samples, which take square roots, use floats.  The module also
reproduces the failure of right multiplication by unit octonions to
fibrate the 15-sphere.
"""

from __future__ import annotations

import csv
import math
from typing import NamedTuple

from .algebra import (
    AlgebraElement, coordinate_elements, from_array, random_integer_element, random_rational_element
)
from .exactsolve import dense_rank
from .polyring import PolyRing
from .report import LazyNumpy, VerificationReport, chunks, derived_random, derived_rng, timed_report

np = LazyNumpy(globals())


class PointD2(NamedTuple):
    x: AlgebraElement
    y: AlgebraElement


class LeafId(NamedTuple):
    """Leaf label pi = (|x|^2, x*conj(y), |y|^2), row by row for a batch."""

    a: object
    b: AlgebraElement
    c: object

    # b first: its TypeError names a batch, where a would raise numpy's ambiguous truth value
    def __eq__(self, other):
        return self.b == other.b and self.a == other.a and self.c == other.c

    def __ne__(self, other):
        return not self == other


def classify(p: PointD2) -> LeafId:
    """The leaf through a point: pi(p), on every scalar backend."""
    x, y = p
    return LeafId(x.norm_sq(), x * y.conjugate(), y.norm_sq())


def slope_leaf(m: AlgebraElement, radius_sq) -> LeafId:
    """The leaf of slope m and squared radius r^2: r^2 / (1 + |m|^2) * (1, conj(m), |m|^2)."""
    n = m.norm_sq()
    k = radius_sq / (1 + n)
    return LeafId(k, m.conjugate().scale(k), k * n)


def infinity_leaf(dim: int, radius_sq) -> LeafId:
    """The leaf {(0, y) : |y|^2 = r^2} of the infinity line."""
    return LeafId(0, AlgebraElement.zero(dim), radius_sq)


def origin_leaf(dim: int) -> LeafId:
    return LeafId(0, AlgebraElement.zero(dim), 0)


def leaf_distance_sq(leaf: LeafId, other: LeafId):
    """|leaf - other|^2 over the dim + 2 components of pi, row by row."""
    return (leaf.a - other.a) ** 2 + (leaf.b - other.b).norm_sq() + (leaf.c - other.c) ** 2


def on_leaf(p: PointD2, leaf: LeafId, tol: float = 0.0):
    """|pi(p) - leaf| <= tol * (1 + |p|^2) row by row (pi is quadratic in p);
    with tol 0 this is exact equality, and a NaN row fails."""
    pi = classify(p)
    return leaf_distance_sq(pi, leaf) <= (tol * (1 + pi.a + pi.c)) ** 2


def same_leaf(p: PointD2, q: PointD2, tol: float = 0.0):
    """Whether two points lie on the same leaf, up to tolerance, row by row."""
    return on_leaf(p, classify(q), tol)


def sample_leaf(leaf: LeafId, n: int, seed) -> PointD2:
    """A batch of n points of the leaf, deterministic in the seed: an int,
    which draws from stream 0 of that root seed (report.derived_rng), or a
    stream, drawn from in place, so consecutive calls continue it.

    With u uniform on the unit sphere of dimension leaf.b.dim: x = sqrt(a) u
    and y = m*x for the slope m = conj(b) / a when a > 0, else x = 0 and
    y = sqrt(c) u (the origin when c = 0).
    """
    if n < 1:
        raise ValueError("need n >= 1 points")
    rng = derived_rng(seed, 0) if isinstance(seed, int) else seed
    units = rng.normal(size=(n, leaf.b.dim))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    u = from_array(units)
    a = float(leaf.a)
    if a > 0:
        x = u.scale(math.sqrt(a))
        return PointD2(x, leaf.b.conjugate().scale(1.0 / a) * x)
    # adding the +0.0 rows turns the -0.0 of 0 * u into +0.0
    zero = from_array(np.zeros((n, leaf.b.dim)))
    return PointD2(zero, zero + u.scale(math.sqrt(float(leaf.c))))


def export_csv(points: PointD2, path):
    """One row per point of a batch; float columns x0..x{d-1}, y0..y{d-1}, with header."""
    dim = points.x.dim
    # a block that is 0 at every point, as y on a slope-0 leaf, comes back as one row
    rows = np.hstack(np.broadcast_arrays(np.atleast_2d(points.x.as_floats()), points.y.as_floats()))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x%d" % i for i in range(dim)] + ["y%d" % i for i in range(dim)])
        for row in rows:
            writer.writerow(["%.17g" % v for v in row])


# -- the right-multiplication counterexample -------------------------------


def right_mult_counterexample(seed: int) -> VerificationReport:
    """Right multiplication by unit octonions does not fibrate the 15-sphere.

    With (x, y) proportional to (e1, e2) and u1 = e5, u2 = e4, the two
    equations (x*u1)*u2 = x*u3 and (y*u1)*u2 = y*u3 demand different u3:
    -e1 and +e1.  Solutions are computed exactly over the rationals; they do
    not depend on the positive scaling that puts (x, y) on the unit sphere.
    In the associative algebras the same construction always yields the
    single solution u3 = u1*u2, checked exactly on 20 random rational
    quaternion quadruples drawn from stream 0 of the root seed.
    """
    with timed_report("counterexample", {"seed": seed}) as report:
        e = [AlgebraElement.basis(8, i) for i in range(8)]
        x, y = e[1], e[2]
        u1, u2 = e[5], e[4]
        u3_first = x.inverse() * ((x * u1) * u2)
        u3_second = y.inverse() * ((y * u1) * u2)
        report.add(
            "first_equation",
            "(x*u1)*u2 = x*u3 solved by u3 = -e1",
            u3_first == -e[1] and ((x * u1) * u2 == x * u3_first),
            u3=[str(c) for c in u3_first.coeffs],
        )
        report.add(
            "second_equation",
            "(y*u1)*u2 = y*u3 solved by u3 = +e1",
            u3_second == e[1] and ((y * u1) * u2 == y * u3_second),
            u3=[str(c) for c in u3_second.coeffs],
        )
        report.add(
            "no_common_unit",
            "the two solutions disagree, so the 7-spheres are not fibers",
            u3_first != u3_second,
        )
        # associative control: quaternions admit the common solution u1*u2
        rng = derived_random(seed, 0)
        ok = True
        for _ in range(20):
            qx = random_rational_element(rng, 4)
            qy = random_rational_element(rng, 4)
            q1 = random_rational_element(rng, 4)
            q2 = random_rational_element(rng, 4)
            if qx.is_zero() or qy.is_zero():
                continue
            s1 = qx.inverse() * ((qx * q1) * q2)
            s2 = qy.inverse() * ((qy * q1) * q2)
            if not (s1 == q1 * q2 and s2 == q1 * q2):
                ok = False
        report.add(
            "quaternion_control",
            "at dim 4 both equations give u3 = u1*u2 (associativity)",
            ok,
            samples=20,
        )
    return report


# -- leaf suite -------------------------------------------------------------


def leaf_dimension_at(x: AlgebraElement, y: AlgebraElement) -> int:
    """Dimension of the leaf through an integer point: the nullity of J there.

    The rank of the integer matrix of J is exact.  J is linear in (x, y), so
    its rank at a point p equals its rank at p/|p| on the unit sphere S(1).
    """
    from .foliation import _J_matrix

    return 2 * x.dim - dense_rank(_J_matrix(x, y))


def slope_label_identity(dim: int) -> bool:
    """pi(x, m*x) = |x|^2 (1, conj(m), |m|^2) as polynomials in x and m (the
    ring's y); it holds by alternativity at dims 1, 2, 4, 8 and gives both
    slope laws.

    Scale: pi is homogeneous of degree 2, so the slope conj(pi_2) / pi_1 of
    (l*x, l*m*x) reads back m at every real l != 0 (x != 0).  Separation:
    the labels of (x, m*x) and (x, m'*x) differ in pi_2 by |x|^2 conj(m - m'),
    nonzero for m != m', while same_leaf(p, p) compares a label with itself.
    """
    x, m = coordinate_elements(PolyRing(dim), dim)
    nx = x.norm_sq()
    return classify(PointD2(x, m * x)) == LeafId(nx, m.conjugate().scale(nx), nx * m.norm_sq())


def verify_leaves(dim: int, samples: int, seed: int, tol: float) -> VerificationReport:
    """Leaf-decomposition suite: slope laws proved (slope_label_identity),
    sampled leaf points compared with their leaf by pi, exact leaf dimensions."""
    with timed_report(
        "leaves", {"dim": dim, "samples": samples, "seed": seed, "tol": tol}
    ) as report:
        slopes = slope_label_identity(dim)
        report.add(
            "slope_scale_invariance",
            "classify((l*x, l*m*x)) has the slope of classify((x, m*x))",
            slopes,
        )

        # sampled leaves live on their sphere and line
        rng = derived_rng(seed, 1)
        sphere = []
        slope_ok = True
        for k in range(4):
            r2 = float(rng.uniform(0.25, 4.0))
            if k < 3:
                leaf = slope_leaf(from_array(rng.normal(size=dim)), r2)
            else:
                leaf = infinity_leaf(dim, r2)
            # stream 10 + k: apart from streams 1 and 3 and from other seeds
            stream = derived_rng(seed, 10 + k)
            for n in chunks(max(samples // 4, 8)):
                pts = sample_leaf(leaf, n, stream)
                sphere.append(np.abs((pts.x.norm_sq() + pts.y.norm_sq()) - r2))
                slope_ok = slope_ok and bool(np.all(on_leaf(pts, leaf, tol)))
        worst_sphere = float(np.max(np.concatenate(sphere)))  # keeps a NaN, unlike max()
        report.add(
            "sampled_points_on_leaf",
            "|p|^2 = r^2 and y = m*x for every sampled leaf point",
            worst_sphere <= tol and slope_ok,
            max_sphere_residual=worst_sphere,
        )

        report.add(
            "same_leaf_separates_slopes",
            "same_leaf(p, p) and not same_leaf((x, m*x), (x, m'*x)) for m != m'",
            slopes,
        )

        # unit-sphere leaf dimension per algebra (0, 1, 3, 7 along the tower),
        # exact at nonzero integer points, each standing for its direction on S(1)
        expected = {1: 0, 2: 1, 4: 3, 8: 7}[dim]
        rng = derived_random(seed, 3)
        dims_seen = set()
        for _ in range(8):
            x, y = random_integer_element(rng, dim), random_integer_element(rng, dim)
            dims_seen.add(leaf_dimension_at(x, y))
        report.add(
            "unit_sphere_leaf_dimension",
            "leaves through generic points of S(1) have dimension %d" % expected,
            dims_seen == {expected},
            observed=sorted(dims_seen),
        )
    return report
