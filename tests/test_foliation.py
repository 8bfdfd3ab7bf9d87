"""Tangency map, exact nullspaces, metric checks, exact elimination."""

import random
from fractions import Fraction

import numpy as np
import pytest

from ohopf import exactsolve
from ohopf.algebra import AlgebraElement, coordinate_elements, random_integer_element
from ohopf.foliation import (
    J_map,
    _J_matrix,
    _linear_field,
    _unknown_names,
    lie_derivative_flat,
    linear_nullspace,
    linear_obstruction_report,
    planar_rotation_identity,
    sampled_nullspace_dimension,
    is_tangent_symbolic,
    verify_foliation,
)
from ohopf.leaves import (
    LeafId,
    PointD2,
    classify,
    infinity_leaf,
    leaf_dimension_at,
    origin_leaf,
    slope_leaf,
)
from ohopf.polyring import PolyRing
from ohopf.report import derived_rng


def test_J_of_zero_field():
    ring = PolyRing(8)
    zero = AlgebraElement(tuple(ring.zero for _ in range(8)), 8)
    assert is_tangent_symbolic(zero, zero, ring)


def test_J_of_euler_field():
    ring = PolyRing(8)
    x, y = coordinate_elements(ring, 8)
    first, middle, last = J_map(x, y, ring)
    assert first == x.norm_sq()
    assert last == y.norm_sq()
    assert (middle - (x * y.conjugate()).scale(2)).is_zero()
    assert not is_tangent_symbolic(x, y, ring)


def test_J_matrix_exact_columns():
    x = AlgebraElement(tuple(range(1, 9)), 8)
    y = AlgebraElement(tuple(range(2, 10)), 8)
    M = [list(row) for row in _J_matrix(x, y)]
    assert len(M) == 10 and len(M[0]) == 16
    # integer point, integer entries
    assert all(type(e) is int for row in M for e in row)
    # first row is (x, 0), last row (0, y)
    assert M[0] == list(range(1, 9)) + [0] * 8
    assert M[9] == [0] * 8 + list(range(2, 10))
    # column p of the middle block is e_p conj(y): check p = 0 gives conj(y)
    middle_col0 = [M[1 + k][0] for k in range(8)]
    assert middle_col0 == [2, -3, -4, -5, -6, -7, -8, -9]


def test_nullspace_at_point_dimension():
    rng = random.Random(4)
    for dim, expected in ((1, 0), (2, 1), (4, 3), (8, 7)):
        x, y = random_integer_element(rng, dim), random_integer_element(rng, dim)
        assert leaf_dimension_at(x, y) == expected


def test_linear_nullspace_dimensions():
    assert linear_nullspace(8)[0] == 0
    dim4, basis4 = linear_nullspace(4)
    assert dim4 == 3 and len(basis4) == 3
    dim2, basis2 = linear_nullspace(2)
    assert dim2 == 1 and len(basis2) == 1
    with pytest.raises(ValueError):
        linear_nullspace(16)


def test_linear_nullspace_basis_is_tangent():
    base = PolyRing(4)
    for vec in linear_nullspace(4)[1]:
        assert all(type(value) is int for value in vec.values())
        u, v = _linear_field(lambda c: vec.get(c, 0), base, 4)
        assert is_tangent_symbolic(u, v, base)


def test_linear_field_columns_follow_the_unknown_names():
    # column c of the system is the unknown named _unknown_names(dim)[c]
    names = _unknown_names(2)
    ring = PolyRing(2, names)
    u, v = _linear_field(lambda c: ring.poly(names[c]), ring, 2)
    assert [str(p) for p in (*u.coeffs, *v.coeffs)] == [
        "x0*A0_0 + x1*A0_1 + y0*B0_0 + y1*B0_1",
        "x0*A1_0 + x1*A1_1 + y0*B1_0 + y1*B1_1",
        "x0*C0_0 + x1*C0_1 + y0*D0_0 + y1*D0_1",
        "x0*C1_0 + x1*C1_1 + y0*D1_0 + y1*D1_1",
    ]


def test_solver_rediscovers_vanishing_cross_blocks():
    # the ansatz allows u to depend on y and v on x; the elimination must
    # force those blocks, columns n^2 .. 3 n^2 - 1, to zero on its own
    for dim in (2, 4):
        cross = range(dim * dim, 3 * dim * dim)
        for vec in linear_nullspace(dim)[1]:
            assert vec and not any(vec.get(c, 0) for c in cross)


def test_degree_mismatch_rejected():
    from ohopf.lie3 import Sec2, d1

    with pytest.raises(TypeError):
        d1(Sec2(1), PolyRing(8))


def test_sampled_oracle_agreement():
    for dim in (2, 4):
        sym = linear_nullspace(dim)[0]
        sampled, neq, certificate = sampled_nullspace_dimension(dim, seed=23)
        assert sampled == sym
        assert neq >= 4 * dim * dim
        assert certificate == "exact_elimination"


def test_right_multiplication_fields_span_quaternion_case():
    # u = x c, v = y c with c imaginary: tangent, and 3 = the nullity at dim 4
    base = PolyRing(4)
    x, y = coordinate_elements(base, 4)
    for k in (1, 2, 3):
        c = AlgebraElement.basis(4, k)
        lifted = AlgebraElement(tuple(base.const(int(v)) for v in c.coeffs), 4)
        assert is_tangent_symbolic(x * lifted, y * lifted, base)


def test_lie_derivative_rotation_and_euler():
    ring = PolyRing(1)
    x, y = ring.x(0), ring.y(0)
    rotation = [-y, x]
    lie = lie_derivative_flat(rotation, ring)
    assert all(p.is_zero() for row in lie for p in row)
    euler = [x, y]
    lie = lie_derivative_flat(euler, ring)
    assert lie[0][0] == 2 and lie[1][1] == 2 and lie[0][1].is_zero()


def test_planar_rotation_identity():
    assert planar_rotation_identity()


def test_obstruction_report():
    report = linear_obstruction_report()
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["no_linear_tangent_fields"].info["nullspace_dimension"] == 0
    assert by_name["generators_vanish_quadratically"].info["min_total_degree"] == 2


@pytest.mark.parametrize("dim", (2, 4, 8))
def test_foliation_suite(dim):
    report = verify_foliation(dim, seed=6)
    assert report.passed, [(c.name, c.info) for c in report.checks if not c.passed]


@pytest.mark.parametrize("dim", (2, 4, 8))
def test_classify_is_a_function_of_the_leaf_invariants(dim):
    # classify(p) = pi(p) is what the leaf constructors give for the leaf
    # through p: slope y*x^-1 and squared radius |p|^2 off the infinity line,
    # |y|^2 on it, and nothing at the origin; exact at integer points
    rng = random.Random(dim)
    zero = AlgebraElement.zero(dim)
    nonzero = random_integer_element(rng, dim)
    assert classify(PointD2(zero, zero)) == origin_leaf(dim)
    assert classify(PointD2(zero, nonzero)) == infinity_leaf(dim, nonzero.norm_sq())
    points = [(nonzero, zero)]
    for _ in range(6):
        x = random_integer_element(rng, dim)
        points.append((x, AlgebraElement(tuple(rng.randint(-3, 3) for _ in range(dim)), dim)))
    for x, y in points:
        leaf = classify(PointD2(x, y))
        assert leaf == LeafId(x.norm_sq(), x * y.conjugate(), y.norm_sq())
        assert leaf == slope_leaf(y * x.inverse(), Fraction(x.norm_sq() + y.norm_sq()))


# -- exact elimination ---------------------------------------------------------


def test_exactsolve_known_nullspace():
    # x0 + x1 = 0, x1 + x2 = 0 over 3 unknowns: nullspace (1, -1, 1)
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    rank, basis = exactsolve.nullspace(rows, 3)
    assert rank == 2 and len(basis) == 1
    vec = basis[0]
    for row in rows:
        assert sum(v * vec.get(c, 0) for c, v in row.items()) == 0
    assert vec[0] == -vec[1] == vec[2]


def test_exactsolve_full_rank():
    rows = [{0: 2}, {1: -3}, {0: 1, 1: 1}]
    rank, basis = exactsolve.nullspace(rows, 2)
    assert rank == 2 and basis == []


def test_exactsolve_duplicate_rows_and_scaling():
    rows = [{0: 2, 1: 4}, {0: 1, 1: 2}, {0: -3, 1: -6}]
    rank, basis = exactsolve.nullspace(rows, 2)
    assert rank == 1 and len(basis) == 1
    assert sum(v * basis[0].get(c, 0) for c, v in rows[0].items()) == 0


def _sparse(M):
    return [{j: int(v) for j, v in enumerate(row) if v} for row in M]


def test_modular_rank_matches_sparse():
    rng = np.random.default_rng(5)
    M = rng.integers(-4, 5, size=(12, 7))
    M[5] = M[1] + 2 * M[2]  # force a dependence
    rows = [list(map(int, row)) for row in M]
    sparse, _ = exactsolve.nullspace(_sparse(M), 7, want_basis=False)
    for p in exactsolve.PRIMES:
        assert exactsolve.rank_mod_p(rows, 7, p) == sparse
    assert exactsolve.certified_rank(rows, 7) == (sparse, "full_rank_mod_p")
    assert sparse == int(np.linalg.matrix_rank(M)) == 7


def test_elimination_matches_numpy_rank_randomized():
    rng = np.random.default_rng(6)
    for _ in range(15):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 10))
        M = rng.integers(-3, 4, size=(rows, cols))
        if rng.random() < 0.5 and rows >= 2:
            M[-1] = M[0] - M[rows // 2]
        expected = int(np.linalg.matrix_rank(M))
        dense = [list(map(int, r)) for r in M]
        sparse, basis = exactsolve.nullspace(_sparse(M), cols)
        assert sparse == expected
        for p in exactsolve.PRIMES:
            assert exactsolve.rank_mod_p(dense, cols, p) == sparse
        rank, certificate = exactsolve.certified_rank(dense, cols)
        assert rank == sparse
        assert certificate == ("full_rank_mod_p" if sparse == cols else "exact_elimination")
        assert len(basis) == cols - expected
        for vec in basis:
            for r in M:
                assert sum(int(r[j]) * v for j, v in vec.items()) == 0


def test_modular_rank_reduces_huge_and_negative_entries():
    # neither 2**64 + 3 nor -(2**63) - 1 fits int64 unreduced
    rows = [[2**64 + 3, -1], [-(2**63) - 1, 2**70]]
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    for p in exactsolve.PRIMES:
        assert det % p != 0
        assert exactsolve.rank_mod_p(rows, 2, p) == 2
    assert exactsolve.certified_rank(rows, 2) == (2, "full_rank_mod_p")
    # a negative multiple of a huge row is dependent modulo p too
    dependent = [[2**65, -7, 3], [-(2**66), 14, -6]]
    for p in exactsolve.PRIMES:
        assert exactsolve.rank_mod_p(dependent, 3, p) == 1
    assert exactsolve.certified_rank(dependent, 3) == (1, "exact_elimination")


def test_rank_that_drops_modulo_both_primes_is_decided_exactly():
    p1, p2 = exactsolve.PRIMES
    rows = [[p1 * p2, 0], [0, 1]]
    assert [exactsolve.rank_mod_p(rows, 2, p) for p in (p1, p2)] == [1, 1]
    assert exactsolve.certified_rank(rows, 2) == (2, "exact_elimination")


@pytest.mark.parametrize(
    "rows",
    [[[1.5, 1], [1.25, 1]], [[Fraction(1, 2), 1], [Fraction(1, 3), 1]], np.array([[1.5, 1], [1.25, 1]])],
    ids=["float", "fraction", "float_array"],
)
def test_exact_ranks_refuse_non_integer_entries(rows):
    # truncating the entries would report rank 1 where the rank is 2
    with pytest.raises(TypeError):
        exactsolve.dense_rank(rows)
    with pytest.raises(TypeError):
        exactsolve.certified_rank(rows, 2)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_oracle_rows_give_one_rank_as_array_and_as_lists(monkeypatch, dim):
    # the sampled oracle hands certified_rank one int64 array; at dims 2 and
    # 4 certified_rank falls back to dense_rank
    seen = []
    certified_rank = exactsolve.certified_rank
    monkeypatch.setattr(
        exactsolve, "certified_rank", lambda rows, ncols: seen.append(rows) or certified_rank(rows, ncols)
    )
    sampled_nullspace_dimension(dim, 101)
    (rows,) = seen
    assert rows.dtype == np.int64 and np.abs(rows).max() <= 9
    # the reference: J at one point at a time, in Python ints
    rng, lists = derived_rng(101, 0), []
    for _ in range(len(rows) // (dim + 2)):
        coords = rng.integers(-3, 4, 2 * dim).tolist()
        coords[0] = coords[0] if any(coords) else 1
        x, y = coords[:dim], coords[dim:]
        J = _J_matrix(AlgebraElement(tuple(x), dim), AlgebraElement(tuple(y), dim))
        for row in J:
            lists.append([a * b for u in (row[:dim], row[dim:]) for c in (x, y) for a in u for b in c])
    assert rows.tolist() == lists
    assert certified_rank(rows, 4 * dim * dim) == certified_rank(lists, 4 * dim * dim)
    for p in exactsolve.PRIMES:
        assert exactsolve.rank_mod_p(rows, 4 * dim * dim, p) == exactsolve.rank_mod_p(lists, 4 * dim * dim, p)
    assert rows.tolist() == lists  # the ranks left the caller's array as it was


@pytest.mark.parametrize(
    "dim, sampled, certificate",
    [(2, 1, "exact_elimination"), (4, 3, "exact_elimination"), (8, 0, "full_rank_mod_p")],
)
def test_foliation_records_the_rank_certificate(dim, sampled, certificate):
    report = verify_foliation(dim, 101)
    oracle = {c.name: c for c in report.checks}["linear_nullspace_sampled_oracle"]
    assert oracle.passed
    assert oracle.info["sampled_dimension"] == sampled
    assert oracle.info["rank_certificate"] == certificate
