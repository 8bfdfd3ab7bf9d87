"""Cayley-Dickson tower: tables, products, identity suites."""

import random
from fractions import Fraction

import numpy as np
import pytest

from ohopf.algebra import (
    AlgebraElement,
    DIMS,
    associator,
    doubling_table,
    from_array,
    mult_table,
    octonion_table,
    random_rational_element,
    verify_algebra_identities,
)
from ohopf.polyring import Deferred, ExponentOverflow, Polynomial, PolyRing


def E(i, dim=8):
    return AlgebraElement.basis(dim, i)


def test_doubling_reproduces_octonion_table():
    assert doubling_table(8) == octonion_table()


def test_unit_and_diagonal():
    sign, index = mult_table(8)
    for i in range(8):
        assert sign[0][i] == sign[i][0] == 1
        assert index[0][i] == index[i][0] == i
    for i in range(1, 8):
        assert sign[i][i] == -1 and index[i][i] == 0


@pytest.mark.parametrize(
    "i,j,expected",
    [
        (1, 2, (1, 3)),
        (2, 1, (-1, 3)),
        (1, 4, (1, 5)),
        (5, 4, (-1, 1)),
        (1, 7, (1, 6)),
        (2, 5, (1, 7)),
        (3, 4, (1, 7)),
        (3, 6, (1, 5)),
        (6, 5, (1, 3)),
    ],
)
def test_octonion_products(i, j, expected):
    s, k = expected
    assert E(i) * E(j) == E(k).scale(s)


def test_epsilon_relations_fix_all_signs():
    # e_i e_j = -delta_ij + eps_ijk e_k must hold for every i, j >= 1
    sign, index = mult_table(8)
    for i in range(1, 8):
        for j in range(1, 8):
            prod = E(i) * E(j)
            if i == j:
                assert prod == -E(0)
            else:
                k = index[i][j]
                assert k != 0
                assert prod == E(k).scale(sign[i][j])
                # total antisymmetry
                assert E(j) * E(i) == -prod


def test_scalar_dimensions_and_errors():
    with pytest.raises(ValueError):
        AlgebraElement((1, 2, 3))
    with pytest.raises(ValueError):
        E(1, 4) * E(1, 8)


@pytest.mark.parametrize("rows", (1, 3))
def test_truth_of_a_batch_names_the_batch(rows):
    batch = from_array(np.zeros((rows, 8)))
    for ask in (batch.is_zero, lambda: batch == batch, lambda: E(0) == batch):
        with pytest.raises(TypeError, match="batch.*as_floats"):
            ask()


def test_conjugate_norm_inner():
    a = AlgebraElement((1, 2, 0, 0, 0, 0, 0, 3))
    assert a.conjugate() == AlgebraElement((1, -2, 0, 0, 0, 0, 0, -3))
    assert a.norm_sq() == 1 + 4 + 9
    assert (AlgebraElement.one(8) + E(1)).norm_sq() == 2
    for i in range(8):
        for j in range(8):
            assert E(i).inner(E(j)) == (1 if i == j else 0)


def test_inverse_exact():
    rng = random.Random(0)
    for dim in (2, 4, 8):
        a = random_rational_element(rng, dim)
        b = random_rational_element(rng, dim)
        assert (a * (a.inverse() * b) - b).is_zero()
        assert ((b * a.inverse()) * a - b).is_zero()
    assert E(1).inverse() == -E(1)
    two = AlgebraElement.one(8).scale(2)
    assert two.inverse() == AlgebraElement.one(8).scale(Fraction(1, 2))


def test_inverse_rejections():
    with pytest.raises(ZeroDivisionError):
        AlgebraElement.zero(8).inverse()
    from ohopf.polyring import PolyRing
    from ohopf.algebra import vector_symbol

    ring = PolyRing(0, ["a%d" % i for i in range(8)])
    with pytest.raises(TypeError):
        vector_symbol(ring, "a", 8).inverse()


def test_associator_values():
    # alternative at dim 8, associative at dim 4, nonzero witness e1, e2, e4
    a = E(1) * 2 + E(3)
    b = E(2) - E(5)
    assert associator(a, a, b).is_zero()
    assert not associator(E(1), E(2), E(4)).is_zero()
    assert associator(E(1, 4), E(2, 4), E(3, 4)).is_zero()


@pytest.mark.parametrize("dim", DIMS)
def test_identity_suite_passes(dim):
    report = verify_algebra_identities(dim, seed=1)
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_sedenion_norm_witness_recorded():
    report = verify_algebra_identities(16, seed=1)
    by_name = {c.name: c for c in report.checks}
    witness = by_name["norm_multiplicativity_fails"]
    assert witness.passed and witness.info["witness_a"] is not None


# -- symbolic products against integer evaluation ----------------------------


def _random_poly(ring, rng):
    p = ring.zero
    for _ in range(rng.randint(1, 3)):
        mono = ring.const(rng.choice((-3, -2, -1, 1, 2, 3)))
        for v in rng.sample(ring.variables, 2):
            mono = mono * ring.poly(v) ** rng.randint(0, 2)
        p = p + mono
    return p


@pytest.mark.parametrize("dim", (2, 4, 8, 16))
def test_symbolic_product_and_inner_match_integer_evaluation(dim, monkeypatch):
    # operands whose nonzero coefficients are all Polynomials give deferred
    # sums, which are filled when they are first evaluated; a nonzero int
    # coefficient sends them through the generic loop, which builds no
    # Deferred
    summed = []
    fill = Deferred.__getattr__

    def counting(self, name):
        summed.append(1)  # reached only by the first read of the terms
        return fill(self, name)

    monkeypatch.setattr(Deferred, "__getattr__", counting)
    rng = random.Random(dim)
    ring = PolyRing(0, ["s%d" % i for i in range(4)])
    p = AlgebraElement([_random_poly(ring, rng) for _ in range(dim)])
    q = AlgebraElement([_random_poly(ring, rng) for _ in range(dim)])
    with_zeros = AlgebraElement([0 if i % 3 == 1 else c for i, c in enumerate(p.coeffs)])
    with_int = AlgebraElement([5 if i == dim - 1 else c for i, c in enumerate(q.coeffs)])
    for a, b, symbolic in (
        (p, q, True),
        (q, p, True),
        (with_zeros, q, True),
        (q, with_zeros, True),
        (p, with_int, False),
        (with_int, with_zeros, False),
    ):
        for _ in range(3):
            point = {v.name: rng.randint(-5, 5) for v in ring.variables}

            def at(c):
                return int(c.evaluate(point)) if isinstance(c, Polynomial) else c

            def at_element(e):
                return AlgebraElement([at(c) for c in e.coeffs])

            del summed[:]
            product = a * b
            assert at_element(product) == at_element(a) * at_element(b)
            assert bool(summed) is symbolic
            del summed[:]
            inner = a.inner(b)
            assert at(inner) == at_element(a).inner(at_element(b))
            assert bool(summed) is symbolic


def test_symbolic_product_keeps_the_exponent_guard():
    x = PolyRing(1).x(0)
    a = AlgebraElement((x**16, x, 0, 0))
    b = AlgebraElement((x, 0, x, 0))
    for compute in (lambda: a * b, lambda: b * a, lambda: a.inner(b)):
        with pytest.raises(ExponentOverflow):
            compute()
