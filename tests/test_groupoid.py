"""Groupoid structure maps, composition laws, the G2 action."""

import json
import math

import numpy as np
import pytest

from ohopf import groupoid
from ohopf.algebra import AlgebraElement, from_array
from ohopf.cli import main
from ohopf.groupoid import (
    MAX_DRAWS,
    Arrow,
    G2Automorphism,
    compose,
    connecting_arrow,
    g2_from_basic_triple,
    inverse,
    phi_group_element,
    random_arrow,
    random_basic_triple,
    rebase,
    rescale,
    rescale_sq,
    rescale_sq_identity,
    source,
    target,
    unit,
    verify_g2_equivariance,
    verify_phi_morphism,
    verify_structure,
)
from ohopf.leaves import PointD2, same_leaf


def E(i, dim=8):
    return AlgebraElement.basis(dim, i)


def _rand_point(rng, dim=8):
    return PointD2(from_array(rng.normal(size=dim)), from_array(rng.normal(size=dim)))


def test_rescale_on_degenerate_arrows():
    rng = np.random.default_rng(1)
    p = _rand_point(rng)
    z = AlgebraElement.zero(8)
    assert abs(rescale(Arrow(z, z, p.x, p.y)) - 1.0) < 1e-15
    F, G = from_array(rng.normal(size=8)), from_array(rng.normal(size=8))
    assert abs(rescale(Arrow(F, G, z, z)) - 1.0) < 1e-15


def test_rescale_sq_symbolic_at_zero_arrow_coordinates():
    # the radicand with F = G = 0 is the constant polynomial 1
    from ohopf.polyring import PolyRing
    from ohopf.algebra import coordinate_elements

    ring = PolyRing(8)
    x, y = coordinate_elements(ring, 8)
    z = AlgebraElement(tuple(ring.zero for _ in range(8)), 8)
    assert rescale_sq(Arrow(z, z, x, y)) == 1


def test_rescale_sq_identity_symbolic():
    assert rescale_sq_identity(8)
    assert rescale_sq_identity(4)


def test_unit_arrow_is_neutral():
    rng = np.random.default_rng(2)
    p = _rand_point(rng)
    u = unit(p)
    t = target(u)
    assert float((t.x - p.x).norm_sq() + (t.y - p.y).norm_sq()) < 1e-28
    g = random_arrow(rng, 8)
    again = compose(unit(target(g)), g)
    assert float((again.F - g.F).norm_sq() + (again.G - g.G).norm_sq()) < 1e-24


def test_target_preserves_norm_and_slope():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = random_arrow(rng, 8)
        s, t = source(g), target(g)
        assert abs(float(t.x.norm_sq() + t.y.norm_sq()) - float(s.x.norm_sq() + s.y.norm_sq())) < 1e-12
        res = t.y * t.x.conjugate() - s.y * s.x.conjugate()
        assert math.sqrt(float(res.norm_sq())) < 1e-12
        assert same_leaf(s, t, 1e-9)


def test_compose_inverse_laws():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = random_arrow(rng, 8)
        gi = inverse(g)
        assert abs(rescale(gi) * rescale(g) - 1.0) < 1e-12
        left = compose(gi, g)
        assert float(left.F.norm_sq() + left.G.norm_sq()) < 1e-24
        right = compose(g, gi)
        assert float(right.F.norm_sq() + right.G.norm_sq()) < 1e-24
        ti = target(gi)
        s = source(g)
        assert float((ti.x - s.x).norm_sq() + (ti.y - s.y).norm_sq()) < 1e-24


def test_lambda_multiplicative_and_associative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g1 = random_arrow(rng, 8)
        g2 = rebase(random_arrow(rng, 8), target(g1))
        g21 = compose(g2, g1)
        assert abs(rescale(g21) - rescale(g2) * rescale(g1)) < 1e-12
        g3 = rebase(random_arrow(rng, 8), target(g2))
        lhs = compose(g3, g21)
        rhs = compose(compose(g3, g2), g1)
        gap = float(
            (lhs.F - rhs.F).norm_sq()
            + (lhs.G - rhs.G).norm_sq()
            + (lhs.x - rhs.x).norm_sq()
            + (lhs.y - rhs.y).norm_sq()
        )
        assert gap < 1e-24


def test_compose_rejects_mismatched_arrows():
    rng = np.random.default_rng(6)
    g1 = random_arrow(rng, 8)
    g2 = random_arrow(rng, 8)  # generic source does not match target(g1)
    with pytest.raises(ValueError):
        compose(g2, g1, tol=1e-9)


def test_a_lambda_sq_fault_fails_the_groupoid_suite_instead_of_aborting(monkeypatch, capsys):
    # +|x|^2 makes lambda non-multiplicative, so target(g2 g1) leaves target(g2)
    # and g3 does not compose with g2 g1: the laws of that group FAIL with NaN
    monkeypatch.setattr(groupoid, "rescale_sq", lambda g: rescale_sq(g) + g.x.norm_sq())
    argv = ["verify", "--suite", "groupoid", "--dim", "4", "--samples", "8", "--format", "json"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert not any(c["passed"] for name, c in checks.items() if name.startswith("groupoid."))
    assert math.isnan(checks["groupoid.assoc"]["info"]["max_residual"])
    # any other error still aborts the suite
    monkeypatch.setattr(groupoid, "_unit_and_inverse_laws", lambda *args: 1 / 0)
    assert main(argv) == 1
    assert "error: suite aborted: ZeroDivisionError" in capsys.readouterr().err


def _nan_first_coordinate(a):
    return AlgebraElement((float("nan"),) + a.coeffs[1:], a.dim)


def test_rescale_rejects_nan_arrow():
    g = random_arrow(np.random.default_rng(8), 8)
    with pytest.raises(ValueError):
        rescale(Arrow(_nan_first_coordinate(g.F), g.G, g.x, g.y))


def test_compose_rejects_nan_target(monkeypatch):
    rng = np.random.default_rng(9)
    g1 = random_arrow(rng, 8, min_rescale_sq=1e-2)
    g2 = rebase(random_arrow(rng, 8, min_rescale_sq=1e-2), target(g1))
    t1 = target(g1)
    monkeypatch.setattr(groupoid, "target", lambda g: PointD2(_nan_first_coordinate(t1.x), t1.y))
    with pytest.raises(ValueError):
        compose(g2, g1, tol=1e-9)


def test_connecting_arrow_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = _rand_point(rng)
        g = connecting_arrow(p)
        t = target(g)
        assert math.sqrt(float((t.x - p.x).norm_sq() + (t.y - p.y).norm_sq())) < 1e-12
        # rescaling of the connecting arrow is |x|
        assert abs(rescale(g) - math.sqrt(float(p.x.norm_sq()))) < 1e-12


def test_connecting_arrow_infinity_line():
    rng = np.random.default_rng(8)
    z = AlgebraElement.zero(8)
    p = PointD2(z, from_array(rng.normal(size=8)))
    g = connecting_arrow(p)
    t = target(g)
    assert float(t.x.norm_sq()) < 1e-24
    assert math.sqrt(float((t.y - p.y).norm_sq())) < 1e-12
    with pytest.raises(ValueError):
        connecting_arrow(PointD2(z, z))


def test_phi_on_units():
    rng = np.random.default_rng(9)
    p = PointD2(from_array(rng.normal(size=4)), from_array(rng.normal(size=4)))
    u = phi_group_element(unit(p))
    assert float((u - AlgebraElement.one(4)).norm_sq()) < 1e-24
    # the formula is defined at dim 8 too, for the failure witness
    assert abs(float(phi_group_element(random_arrow(rng, 8)).norm_sq()) - 1.0) < 1e-12


@pytest.mark.parametrize("dim", (1, 2, 4))
def test_phi_morphism_associative_dims(dim):
    report = verify_phi_morphism(dim, 100, seed=3, tol=1e-9)
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_phi_fails_at_dim8():
    report = verify_phi_morphism(8, 100, seed=3, tol=1e-9)
    assert report.passed
    assert report.checks[0].info["witness_residual"] > 1e-3


def test_g2_standard_triple_is_identity():
    A = g2_from_basic_triple(E(1), E(2), E(4))
    assert np.array_equal(A.matrix, np.eye(8))


def test_g2_rejects_bad_triples():
    with pytest.raises(ValueError):
        g2_from_basic_triple(E(1), E(1), E(4))
    with pytest.raises(ValueError):
        g2_from_basic_triple(AlgebraElement.one(8), E(2), E(4))
    with pytest.raises(ValueError):
        # t3 = e3 = e1 e2 is not orthogonal to t1 t2
        g2_from_basic_triple(E(1), E(2), E(3))


def test_g2_random_is_automorphism():
    rng = np.random.default_rng(10)
    A = g2_from_basic_triple(*random_basic_triple(rng))
    assert isinstance(A, G2Automorphism)
    assert A.automorphism_residual() < 1e-12
    assert A.orthogonality_residual() < 1e-12


@pytest.mark.parametrize("dim", (1, 2, 4, 8))
def test_structure_suite(dim):
    report = verify_structure(dim, 100, seed=0, tol=1e-9)
    assert report.passed, [(c.name, c.info) for c in report.checks if not c.passed]


def test_g2_suite():
    report = verify_g2_equivariance(10, seed=0, tol=1e-8)
    assert report.passed, [(c.name, c.info) for c in report.checks if not c.passed]


def test_g2_composition_gets_the_tol_as_given(monkeypatch):
    seen = []
    real = groupoid.compose

    def spy(g2, g1, tol=1e-9):
        seen.append(tol)
        return real(g2, g1, tol)

    monkeypatch.setattr(groupoid, "compose", spy)
    assert verify_g2_equivariance(10, seed=0, tol=1e-9).passed
    assert seen and set(seen) == {1e-9}


def test_wrong_composition_rule_is_detected():
    # scaling the wrong factor in the product breaks multiplicativity of
    # the rescaling; guards against a vacuous lambda_mult check
    rng = np.random.default_rng(13)
    violated = False
    for _ in range(20):
        g1 = random_arrow(rng, 8, min_rescale_sq=1e-2)
        g2 = rebase(random_arrow(rng, 8, min_rescale_sq=1e-2), target(g1))
        lam1 = rescale(g1)
        wrong = Arrow(g1.F.scale(lam1) + g2.F, g1.G.scale(lam1) + g2.G, g1.x, g1.y)
        if abs(rescale(wrong) - rescale(g2) * lam1) > 1e-6:
            violated = True
    assert violated


class RejectingRng:
    """rng stub: every arrow row is F = -e0, x = x0 e0, G = y = 0.

    At x0 = 2 the arrow has lambda^2 = 1 but rebasing it to x = e0 puts it on
    the zero locus; at x0 = 1 every arrow is on it; a draw for basic triples
    is the degenerate draw 0.  Each call is one round of a masked redraw.
    """

    def __init__(self, x0=1.0):
        self.x0 = x0
        self.calls = 0

    def normal(self, loc=0.0, scale=1.0, size=None):
        v = np.zeros(size)
        if v.shape[-2] == 4:  # (rows, F G x y, dim) arrow draws
            v[:, 0, 0] = -1.0
            v[:, 2, 0] = self.x0
        self.calls += 1
        return v


def test_rejection_loops_are_bounded():
    # one arrow and a batch of 3 alike: each round redraws the rejected rows
    for n in (None, 3):
        rng = RejectingRng()
        with pytest.raises(ValueError, match="%d draws" % MAX_DRAWS):
            random_arrow(rng, 4, n=n)
        assert rng.calls == MAX_DRAWS
        at = PointD2(AlgebraElement.basis(4, 0), AlgebraElement.zero(4))
        rng = RejectingRng(x0=2.0)
        with pytest.raises(ValueError, match="given source.*%d draws" % MAX_DRAWS):
            random_arrow(rng, 4, groupoid.SUITE_MARGIN, n, at)
        assert rng.calls == MAX_DRAWS
        rng = RejectingRng()
        with pytest.raises(ValueError, match="no basic triple in %d draws" % MAX_DRAWS):
            random_basic_triple(rng, n)
        assert rng.calls == MAX_DRAWS


class OneBadRow:
    """rng stub: in the first round row 1 is on the zero locus; later rounds draw fine rows."""

    def __init__(self):
        self.sizes = []
        self.rng = np.random.default_rng(14)

    def normal(self, loc=0.0, scale=1.0, size=None):
        v = self.rng.normal(loc, scale, size)
        if not self.sizes:
            v[1] = 0.0
            v[1, 0, 0], v[1, 2, 0] = -1.0, 1.0
        self.sizes.append(size)
        return v


def test_masked_redraw_draws_only_rejected_rows():
    rng = OneBadRow()
    g = random_arrow(rng, 4, n=3)
    assert rng.sizes == [(3, 4, 4), (1, 4, 4)]
    first = np.random.default_rng(14).normal(0.0, 0.7, (3, 4, 4))
    for row in (0, 2):
        assert np.array_equal(g.F.as_floats()[row], first[row, 0])
    assert np.all(rescale_sq(g) > groupoid.MEMBERSHIP_EPS)


def _flat(obj):
    """Float coordinates of an element, point or arrow: (k,) for one, (N, k) for a batch."""
    parts = [obj] if isinstance(obj, AlgebraElement) else list(obj)
    return np.hstack([p.as_floats() for p in parts])


def _row(obj, i):
    """Row i of a batched point or arrow as a single one with float coefficients."""
    return type(obj)(*(from_array(e.as_floats()[i]) for e in obj))


@pytest.mark.parametrize("dim", (4, 8))
def test_batch_maps_equal_their_rows(dim):
    rng = np.random.default_rng(15)
    n = 7
    g1 = random_arrow(rng, dim, min_rescale_sq=1e-2, n=n)
    g2 = rebase(random_arrow(rng, dim, min_rescale_sq=1e-2, n=n), target(g1))
    x, y = rng.normal(0.0, 0.7, (n, dim)), rng.normal(0.0, 0.7, (n, dim))
    x[[1, 4]] = 0.0  # two rows on the infinity line
    p = PointD2(from_array(x), from_array(y))
    maps = {
        "target": lambda a, b, q: _flat(target(a)),
        "rescale": lambda a, b, q: rescale(a),
        "compose": lambda a, b, q: _flat(compose(b, a)),
        "inverse": lambda a, b, q: _flat(inverse(a)),
        "connecting_arrow": lambda a, b, q: _flat(connecting_arrow(q)),
    }
    for name, f in maps.items():
        batch = f(g1, g2, p)
        for i in range(n):
            row = f(_row(g1, i), _row(g2, i), _row(p, i))
            assert np.max(np.abs(batch[i] - row)) == 0.0, (name, i)


def _with_row(g, i, F, x):
    """g with row i replaced by the arrow (F e0, 0, x e0, 0)."""
    cols = [e.as_floats() for e in g]
    for c in cols:
        c[i] = 0.0
    cols[0][i, 0], cols[2][i, 0] = F, x
    return Arrow(*(from_array(c) for c in cols))


@pytest.mark.parametrize("F, x", [(float("nan"), 1.0), (-1.0, 1.0)], ids=["nan", "zero_locus"])
def test_one_bad_row_makes_the_batch_raise(F, x):
    rng = np.random.default_rng(16)
    g1 = random_arrow(rng, 8, min_rescale_sq=1e-2, n=5)
    g2 = rebase(random_arrow(rng, 8, min_rescale_sq=1e-2, n=5), target(g1))
    bad = _with_row(g1, 3, F, x)
    with pytest.raises(ValueError):
        rescale(bad)
    with pytest.raises(ValueError):
        compose(g2, bad)
    with pytest.raises(ValueError):
        compose(_with_row(g2, 3, F, x), g1)
