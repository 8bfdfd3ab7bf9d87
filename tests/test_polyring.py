"""Exact polynomial kernel: ring axioms, derivation, evaluation."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ohopf.polyring import (
    Deferred,
    ExponentOverflow,
    Polynomial,
    PolyRing,
    RingMismatch,
    VarKind,
    sum_of_products,
)

RING = PolyRing(1, ("s0", "s1"))
NAMES = ("x0", "y0", "s0", "s1")


@st.composite
def polys(draw, ring=RING, names=NAMES):
    p = ring.zero
    for _ in range(draw(st.integers(0, 5))):
        c = draw(st.integers(-4, 4))
        mono = ring.one
        for name in names:
            mono = mono * ring.poly(name) ** draw(st.integers(0, 2))
        p = p + mono * c
    return p


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_derive_leibniz(p, q):
    lhs = (p * q).derive("x0")
    rhs = p.derive("x0") * q + p * q.derive("x0")
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_evaluate_is_ring_morphism(p, q):
    at = {"x0": Fraction(2), "y0": Fraction(-1, 2), "s0": Fraction(3), "s1": Fraction(0)}
    assert (p * q).evaluate(at) == p.evaluate(at) * q.evaluate(at)
    assert (p + q).evaluate(at) == p.evaluate(at) + q.evaluate(at)


def test_product_difference_of_squares():
    ring = PolyRing(1)
    x, y = ring.x(0), ring.y(0)
    assert (x + y) * (x - y) == x * x - y * y


def test_additive_inverse_cancels():
    p = RING.poly("s0") * 3 + RING.poly("x0") * RING.poly("s1")
    assert (p + (-p)).is_zero()
    assert not p.is_zero()


def test_square_keeps_coefficient_one():
    ring = PolyRing(1)
    x = ring.x(0)
    sq = x * x
    assert list(sq.terms.values()) == [1]
    assert sq.min_total_degree() == 2


def test_derive_examples():
    ring = PolyRing(8)
    x0 = ring.x(0)
    assert (x0 * x0).derive("x0") == 2 * x0
    assert ring.y(3).derive("x0").is_zero()
    norm_sq = ring.zero
    for i in range(8):
        norm_sq = norm_sq + ring.x(i) * ring.x(i)
    assert norm_sq.derive("x1") == 2 * ring.x(1)


def test_derive_rejects_section_variables():
    with pytest.raises(ValueError):
        RING.poly("s0").derive("s0")


def test_evaluate_requires_full_assignment():
    p = RING.poly("x0") + RING.poly("s0")
    with pytest.raises(ValueError):
        p.evaluate({"x0": 1})
    assert p.evaluate({"x0": 1, "s0": Fraction(1, 2)}) == Fraction(3, 2)


def test_zero_polynomial_evaluates_to_zero():
    assert RING.zero.evaluate({}) == 0


def test_vanishes_at_base_origin_examples():
    ring = PolyRing(2, ("s0",))
    s0 = ring.poly("s0")
    assert ring.zero.vanishes_at_base_origin()
    assert (ring.y(1) * s0 + ring.x(0) * ring.x(1)).vanishes_at_base_origin()
    assert not (ring.y(1) * s0 + s0 * s0).vanishes_at_base_origin()
    assert not ring.one.vanishes_at_base_origin()
    # a deferred sum is read first: x0 s0 + s0 - s0 has no term free of x and y
    assert Deferred(ring, [(1, ring.x(0), s0), (1, s0, ring.one), (-1, ring.one, s0)]).vanishes_at_base_origin()
    # a ring without base variables: only zero vanishes
    bare = PolyRing(0, ("s0",))
    assert bare.zero.vanishes_at_base_origin()
    assert not bare.poly("s0").vanishes_at_base_origin()


def test_ring_mismatch_raises():
    other = PolyRing(1, ("s0", "s1"))
    with pytest.raises(RingMismatch):
        RING.poly("x0") + other.poly("x0")


def test_min_total_degree():
    p = RING.poly("x0") * RING.poly("x0") + RING.poly("x0") * RING.poly("y0") * RING.poly("s0")
    assert p.min_total_degree() == 2
    assert (p - RING.poly("x0") * RING.poly("x0")).min_total_degree() == 3
    assert RING.zero.min_total_degree() is None


def test_section_linear_terms():
    ring = PolyRing(1, ["a", "b"])
    x, y, a, b = ring.x(0), ring.y(0), ring.poly("a"), ring.poly("b")
    terms = (3 * x * y * a - b + y * b).section_linear_terms()
    assert sorted((str(Polynomial(ring, {k: 1})), i, c) for k, i, c in terms) == [
        ("1", 1, -1),
        ("x0*y0", 0, 3),
        ("y0", 1, 1),
    ]
    for bad in (x, a * a, a * b, x * a + a * b):
        with pytest.raises(ValueError):
            bad.section_linear_terms()


def test_section_degree_part():
    ring = PolyRing(1, ["a", "b"])
    x, y, a, b = ring.x(0), ring.y(0), ring.poly("a"), ring.poly("b")
    p = 2 + x * x * y - 3 * x * a + b + a * b * y - a**3
    assert p.section_degree_part(0) == 2 + x * x * y
    assert p.section_degree_part(1) == b - 3 * x * a
    assert p.section_degree_part(2) == a * b * y
    assert p.section_degree_part(3) == -(a**3)
    assert p.section_degree_part(4).is_zero()


def test_variable_kinds():
    assert RING.variable("x0").kind is VarKind.BASE_X
    assert RING.variable("y0").kind is VarKind.BASE_Y
    assert RING.variable("s1").kind is VarKind.SECTION


def test_canonical_string():
    ring = PolyRing(1)
    x, y = ring.x(0), ring.y(0)
    p = y * y - x * x * 2 + 1
    assert str(p) == "-2*x0^2 + y0^2 + 1"


def test_exponent_overflow_raises():
    # five bits per variable: x0^32 would carry into x1
    x = PolyRing(2).x(0)
    with pytest.raises(ExponentOverflow):
        x**32
    assert str(x**16) == "x0^16"
    assert issubclass(ExponentOverflow, ValueError)


# -- sum of products ----------------------------------------------------------


FACTORS = st.sampled_from((-2, -1, 1, 2, Fraction(1, 3)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(FACTORS, polys(), polys()), max_size=4))
def test_sum_of_products_matches_chained_arithmetic(triples):
    expected = RING.zero
    for s, a, b in triples:
        expected = expected + a * b * s
    got = sum_of_products(RING, triples)
    assert got == expected
    assert all(got.terms.values())


def test_sum_of_products_cancels_exactly():
    x, y = RING.x(0), RING.y(0)
    a, b = x * x + y + 3, x - y * RING.poly("s0")
    got = sum_of_products(RING, [(1, a, b), (-1, a, b)])
    assert got.terms == {}
    assert sum_of_products(RING, []).terms == {}


def test_sum_of_products_guards_every_pair():
    ring = PolyRing(2)
    x, y = ring.x(0), ring.y(1)
    fine = [(1, x, y), (-1, y * y, x)]
    sum_of_products(ring, fine)
    for bad in ((1, x**16, ring.one), (1, y, x**16)):
        with pytest.raises(ExponentOverflow):
            sum_of_products(ring, fine + [bad])
        with pytest.raises(ExponentOverflow):
            sum_of_products(ring, [bad] + fine)


def test_sum_of_products_refuses_mixed_rings():
    other = PolyRing(1, ("s0", "s1"))
    x = RING.x(0)
    for triple in ((1, x, other.x(0)), (1, other.x(0), x)):
        with pytest.raises(RingMismatch):
            sum_of_products(RING, [(1, x, x), triple])
    with pytest.raises(RingMismatch):
        sum_of_products(other, [(1, x, x)])


# -- signed permutations of variables ------------------------------------------

# two blocks of two section variables with a fixed variable c between them
SWAP_NAMES = ("x0", "y0", "a0", "a1", "c", "b0", "b1")
SWAP_RING = PolyRing(1, SWAP_NAMES[2:])
X0, Y0, A0, A1, C, B0, B1 = (SWAP_RING.poly(name) for name in SWAP_NAMES)
# sigma swaps the blocks (a0, a1) and (b0, b1), as the mirror of a Jacobi term does
SIGMA = SWAP_RING.permutation(zip((A0, A1, B0, B1), (B0, B1, A0, A1)))
# tau moves base variables too, with signs: x0 -> -y0, y0 -> x0, and the cycle
# a0 -> b1 -> -a1 -> a0 with c -> -c, as a symmetry of the base and the fibres does
TAU = SWAP_RING.permutation([(X0, -Y0), (Y0, X0), (A0, B1), (B1, -A1), (A1, A0), (C, -C)])


@settings(max_examples=60, deadline=None)
@given(polys(SWAP_RING, SWAP_NAMES), polys(SWAP_RING, SWAP_NAMES))
def test_swap_is_an_involutive_automorphism_that_commutes_with_derive(p, q):
    assert SIGMA(SIGMA(p)) == p
    assert SIGMA(p * q) == SIGMA(p) * SIGMA(q)
    assert SIGMA(p + q) == SIGMA(p) + SIGMA(q)
    for name in ("x0", "y0"):
        assert SIGMA(p.derive(name)) == SIGMA(p).derive(name)
    # the order of the pairs does not matter
    assert SWAP_RING.permutation(zip((B0, B1, A0, A1), (A0, A1, B0, B1)))(p) == SIGMA(p)


def test_swap_maps_each_variable_to_its_partner():
    p = 3 * A0**15 * B1 * C * X0**2 * Y0 - 5 * A1 + B0 * B1 + 7
    assert SIGMA(p) == 3 * B0**15 * A1 * C * X0**2 * Y0 - 5 * B1 + A0 * A1 + 7
    assert SIGMA(X0 * Y0 * C) == X0 * Y0 * C


@settings(max_examples=60, deadline=None)
@given(polys(SWAP_RING, SWAP_NAMES), polys(SWAP_RING, SWAP_NAMES))
def test_a_signed_permutation_is_an_automorphism_under_the_chain_rule(p, q):
    assert TAU(p * q) == TAU(p) * TAU(q)
    assert TAU(p - q) == TAU(p) - TAU(q)
    # tau(p)(x0, y0) = p(-y0, x0), so d/dy0 of it is -tau(dp/dx0) and d/dx0 is tau(dp/dy0)
    assert TAU(p.derive("x0")) == -TAU(p).derive("y0")
    assert TAU(p.derive("y0")) == TAU(p).derive("x0")
    # tau has order 12: 4 on the base, 6 on the cycle of a0, 2 on c
    image = p
    for _ in range(12):
        image = TAU(image)
    assert image == p


def test_a_signed_permutation_maps_each_variable_to_its_image():
    p = 3 * A0**15 * B1 * C * X0**2 * Y0 - 5 * A1 + B0 * B1 + 7
    assert TAU(p) == 3 * B1**15 * (-A1) * (-C) * Y0**2 * X0 - 5 * A0 + B0 * (-A1) + 7
    assert TAU(B0) == B0


@pytest.mark.parametrize(
    "pairs",
    [
        [(A0, SWAP_RING.one)],
        [(A0, SWAP_RING.zero)],
        [(A0, 2 * B0), (B0, A0)],
        [(A0, A0 + B0)],
        [(A0, A0 * B0)],
        [(-A0, B0), (B0, A0)],
        [(A0, B0), (A0, B1), (B0, A0)],
        [(A0, B0)],
        [(A0, B0), (B0, B1), (B1, B0)],
    ],
    ids=["one", "zero", "scaled", "sum", "product", "negated_variable", "overlap", "open_cycle", "two_to_one"],
)
def test_permutation_refuses_what_is_not_a_signed_permutation(pairs):
    with pytest.raises(ValueError):
        SWAP_RING.permutation(pairs)


def test_swap_refuses_another_rings_polynomial():
    other = PolyRing(1, SWAP_NAMES[2:])
    with pytest.raises(RingMismatch):
        SIGMA(other.poly("a0"))
    with pytest.raises(RingMismatch):
        SWAP_RING.permutation([(A0, other.poly("b0")), (B0, A0)])


# -- independent CAS oracle -----------------------------------------------


def _to_sympy(p, symbols):
    import sympy

    total = sympy.Integer(0)
    for exps, coeff in p.sorted_terms():
        term = sympy.Rational(coeff.numerator, coeff.denominator) if isinstance(
            coeff, Fraction
        ) else sympy.Integer(coeff)
        for sym, e in zip(symbols, exps):
            term *= sym ** e
        total += term
    return sympy.expand(total)


@settings(max_examples=25, deadline=None)
@given(polys(), polys())
@example(RING.x(0), RING.x(0) * RING.y(0) + RING.poly("s1") * 2 - 1)
def test_arithmetic_matches_sympy(p, q):
    import sympy

    symbols = sympy.symbols(" ".join(NAMES))
    sp, sq = _to_sympy(p, symbols), _to_sympy(q, symbols)
    assert _to_sympy(p * q, symbols) == sympy.expand(sp * sq)
    assert _to_sympy(p + q, symbols) == sympy.expand(sp + sq)
    assert _to_sympy(p - q, symbols) == sympy.expand(sp - sq)
    assert _to_sympy(q - p, symbols) == sympy.expand(sq - sp)
    # the shorter operand on the left: __add__ copies the longer one
    short, long = sorted((p, q), key=lambda r: len(r.terms))
    assert _to_sympy(short + long, symbols) == sympy.expand(sp + sq)
    assert _to_sympy(p.derive("x0"), symbols) == sympy.expand(sympy.diff(sp, symbols[0]))


@settings(max_examples=40, deadline=None)
@given(polys())
@example(RING.x(0) * RING.poly("s0") + RING.y(0) ** 2)
@example(RING.x(0) * RING.poly("s0") - RING.poly("s1"))
def test_vanishes_at_base_origin_matches_sympy(p):
    import sympy

    symbols = sympy.symbols(" ".join(NAMES))
    at_origin = _to_sympy(p, symbols).subs({symbols[0]: 0, symbols[1]: 0})
    assert p.vanishes_at_base_origin() == (sympy.expand(at_origin) == 0)


# -- deferred sums ----------------------------------------------------------


def _eager(triples):
    out = RING.zero
    for s, a, b in triples:
        out = out + a * b * s
    return out


def _sympy_sum(triples, symbols):
    import sympy

    total = sympy.Integer(0)
    for s, a, b in triples:
        total += sympy.Rational(s) * _to_sympy(a, symbols) * _to_sympy(b, symbols)
    return sympy.expand(total)


TRIPLES = st.lists(st.tuples(FACTORS, polys(), polys()), max_size=3)


@settings(max_examples=30, deadline=None)
@given(TRIPLES, TRIPLES, polys(), FACTORS)
@example([(1, RING.x(0), RING.y(0))], [(-1, RING.y(0), RING.x(0))], RING.one, 2)
def test_deferred_arithmetic_matches_eager(t1, t2, p, c):
    import sympy

    symbols = sympy.symbols(" ".join(NAMES))
    e1, e2 = _eager(t1), _eager(t2)
    s1, s2, sp = _sympy_sum(t1, symbols), _sympy_sum(t2, symbols), _to_sympy(p, symbols)
    # counts the times a Deferred fills its terms
    calls = []
    fill = Deferred.__getattr__

    def counting(self, name):
        calls.append(1)  # reached only by the first read of the terms
        return fill(self, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Deferred, "__getattr__", counting)
        d1, d2 = Deferred(RING, t1), Deferred(RING, t2)
        shared = Deferred(RING, t2)  # summed into two results below
        cases = [
            (d1 + d2, e1 + e2, s1 + s2),
            (d1 - d2, e1 - e2, s1 - s2),
            (-d1, -e1, -s1),
            (d1 * c, e1 * c, s1 * c),
            (c * d2, e2 * c, s2 * c),
            (d1 + p, e1 + p, s1 + sp),
            (p - d2, p - e2, sp - s2),
            (3 - d1, 3 - e1, 3 - s1),
            (shared + d1, e2 + e1, s2 + s1),
            (p - shared, p - e2, sp - s2),
        ]
        assert calls == []  # nothing is summed before a read
        for got, want, oracle in cases:
            assert isinstance(got, Deferred)
            del calls[:]
            assert got == want
            assert str(got) == str(want) and got.is_zero() is want.is_zero()
            assert calls == [1]  # read three times, summed once
            assert all(got.terms.values())
            assert _to_sympy(got, symbols) == sympy.expand(oracle)
        # a deferred factor is summed when the product is formed, once
        del calls[:]
        product = d1 * p
        assert calls == [1] and product == e1 * p and d1 * p == product
        assert _to_sympy(product, symbols) == sympy.expand(s1 * sp)
        # a read value joins a later sum as one materialized addend
        assert d1 + d2 == e1 + e2 and calls == [1, 1]


def test_deferred_keeps_the_guards_eager():
    ring = PolyRing(2)
    x, y = ring.x(0), ring.y(1)
    with pytest.raises(ExponentOverflow):
        Deferred(ring, [(1, x, y), (1, x**16, y)])
    with pytest.raises(RingMismatch):
        Deferred(ring, [(1, x, RING.x(0))])
    d = Deferred(ring, [(1, x, y)])
    with pytest.raises(RingMismatch):
        d + RING.x(0)
    with pytest.raises(RingMismatch):
        d * RING.x(0)
    # an addend the guard would refuse as a factor is added at once, not refused
    for got in (d + x**16, x**16 + d, d - x**16):
        assert got.__class__ is Polynomial
    assert d - x**16 == x * y - x**16
    assert str(d + x**16) == "x0^16 + x0*y1"
