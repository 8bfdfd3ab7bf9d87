"""Tangency to the Hopf leaves and the non-existence of linear tangent fields.

A vector field (u, v) on D^2 is tangent to the leaf decomposition iff

    <x, u> = 0,   u*conj(y) + x*conj(v) = 0,   <y, v> = 0,

which this module packages as the map J from fields to R + D + R valued
functions.  J is written once, as a function of the field and a base point
(x, y) on any scalar backend; on top of it the module provides:

  * the exact symbolic tangency test for polynomial fields,
  * the matrix of J at a point, whose exact rank at integer points gives
    the leaf dimensions,
  * the exact nullspace of J on fields linear in (x, y), assembled
    coefficient-wise over the rationals and solved by fraction-free
    elimination, cross-checked against a system sampled at integer points
    whose rank is certified modulo a prime (exact elimination when that
    certificate does not close),
  * the exact proof that the leaf invariants pi = (|x|^2, x*conj(y), |y|^2)
    are first integrals of every anchor field, so that anchor flows stay on
    their leaves,
  * Lie derivatives of the flat metric and the planar rotation example
    separating geometric from module-compatible metrics.

The linear ansatz deliberately keeps the cross blocks: u = A x + B y and
v = C x + D y with 4 n^2 unknowns, so the solver has to rediscover that the
cross terms vanish rather than assume it.  The unknowns are the columns of
the system, block by block (A, B, C, D) and row-major within a block, and
the basis of linear_nullspace is the solver's integer vectors over them.
"""

from __future__ import annotations

from . import exactsolve
from .algebra import AlgebraElement, coordinate_elements
from .algebroid import _e0_basis, _sym_sections, anchor, vf_apply
from .leaves import PointD2, classify
from .polyring import PolyRing
from .report import LazyNumpy, VerificationReport, derived_rng, timed_report

np = LazyNumpy(globals())

EXPECTED_NULLITY = {2: 1, 4: 3, 8: 0}


# -- the characterization map J --------------------------------------------


def _tangency(u: AlgebraElement, v: AlgebraElement, x: AlgebraElement, y: AlgebraElement):
    """J(u, v) = (<x,u>, u*conj(y) + x*conj(v), <y,v>) at the base point (x, y)."""
    return x.inner(u), u * y.conjugate() + x * v.conjugate(), y.inner(v)


def _flatten(first, middle: AlgebraElement, last):
    return [first, *middle.coeffs, last]


def J_map(u: AlgebraElement, v: AlgebraElement, ring: PolyRing):
    """J of a field with symbolic base point."""
    return _tangency(u, v, *coordinate_elements(ring, ring.base_dim))


def J_components(u: AlgebraElement, v: AlgebraElement, ring: PolyRing):
    """J flattened to dim+2 polynomials."""
    return _flatten(*J_map(u, v, ring))


def is_tangent_symbolic(u: AlgebraElement, v: AlgebraElement, ring: PolyRing) -> bool:
    """Exact tangency of a polynomial field: every J component vanishes."""
    return not any(J_components(u, v, ring))


def _columns_to_rows(cols):
    """Row-major matrix from its list of columns."""
    return tuple(zip(*cols))


def _J_matrix(x: AlgebraElement, y: AlgebraElement):
    """Matrix of J at the point (x, y), columns ordered u_0..u_{n-1}, v_0..v_{n-1}.

    Entries stay in the scalar backend of the point, so integer points give
    integer matrices.
    """
    return _columns_to_rows([_flatten(*_tangency(s.u, s.v, x, y)) for s in _e0_basis(x.dim)])


# -- linear tangent fields ---------------------------------------------------


def _linear_field(entry, ring: PolyRing, dim: int):
    """u = A x + B y, v = C x + D y, the 4 n^2 unknowns in column order.

    entry(c) is the unknown of column c = (k n + p) n + l: row p, column l
    of block k = 0..3 (A..D), the order of _unknown_names.
    """

    def component(first, p):
        out = ring.zero
        for l in range(dim):
            c = (first * dim + p) * dim + l
            out = out + entry(c) * ring.x(l) + entry(c + dim * dim) * ring.y(l)
        return out

    u = AlgebraElement(tuple(component(0, p) for p in range(dim)), dim)
    v = AlgebraElement(tuple(component(2, p) for p in range(dim)), dim)
    return u, v


def _unknown_names(dim: int):
    """The names of the unknowns of _linear_field, in column order."""
    return [
        "%s%d_%d" % (blk, p, l)
        for blk in ("A", "B", "C", "D")
        for p in range(dim)
        for l in range(dim)
    ]


def _ansatz_rows(dim: int):
    """Homogeneous system on the 4 n^2 unknowns, one row per (component,
    base monomial) pair of the symbolic expansion of J(ansatz)."""
    ring = PolyRing(dim, _unknown_names(dim))
    unknowns = [ring.poly(v) for v in ring.variables[2 * dim :]]
    comps = J_components(*_linear_field(unknowns.__getitem__, ring, dim), ring)

    grouped: dict = {}
    for ci, pol in enumerate(comps):
        for base_key, unknown, coeff in pol.section_linear_terms():
            row = grouped.setdefault((ci, base_key), {})
            row[unknown] = row.get(unknown, 0) + coeff
    rows = [{c: v for c, v in row.items() if v} for row in grouped.values()]
    return [r for r in rows if r], 4 * dim * dim


def linear_nullspace(dim: int):
    """Exact dimension and basis of the linear tangent fields.

    Returns (dimension, basis), basis the integer vectors {column: value}
    of exactsolve.nullspace in the column order of _linear_field, which
    turns vec into its field with entry = lambda c: vec.get(c, 0).  The
    answer is 0 at dimension 8: non-associativity kills every linear field.
    """
    if dim not in (2, 4, 8):
        raise ValueError("linear nullspace is computed for dims 2, 4, 8")
    rows, ncols = _ansatz_rows(dim)
    rank, basis = exactsolve.nullspace(rows, ncols)
    return ncols - rank, basis


def sampled_nullspace_dimension(dim: int, seed: int):
    """Independent oracle: the same unknowns constrained at random points.

    Evaluates J on the ansatz at random integer points, giving at least
    4 n^2 equations.  J has rank n+1 at a generic point, so roughly
    4 n^2 / (n+1) points are needed before the sampled rank can saturate.
    Solutions of the symbolic system satisfy every sampled equation, so
    equal nullities certify the symbolic computation.

    Returns (nullity, equations, certificate).  The exact rank comes from
    ``exactsolve.certified_rank``: "full_rank_mod_p" when the system has
    full rank modulo a prime, which proves nullity 0 (the dim 8 case), and
    "exact_elimination" when sparse exact elimination had to decide (dims 2
    and 4, where the nullity is positive).

    The system is one int64 array: the coordinates are in [-3, 3], every
    entry of J at a point is a coordinate or 0, so every entry of the system
    is at most 9 in absolute value.
    """
    rng = derived_rng(seed, 0)
    ncols = 4 * dim * dim
    # ceil(4 n^2 / (n + 1)) points, and three more for a margin
    needed = -(-ncols // (dim + 1)) + 3
    blocks = []
    for _ in range(needed):
        coords = rng.integers(-3, 4, 2 * dim)
        if not coords.any():
            coords[0] = 1
        x, y = coords[:dim], coords[dim:]
        J = _J_matrix(AlgebraElement(tuple(x.tolist()), dim), AlgebraElement(tuple(y.tolist()), dim))
        M = np.array(J, dtype=np.int64)
        Mu, Mv = M[:, :dim], M[:, dim:]
        # row c, unknown (block, p, l): the J entry (c, p) of the block times coordinate l
        blocks.append(np.hstack([np.kron(Mu, x), np.kron(Mu, y), np.kron(Mv, x), np.kron(Mv, y)]))
    rows = np.vstack(blocks)
    rank, certificate = exactsolve.certified_rank(rows, ncols)
    return ncols - rank, len(rows), certificate


# -- metric compatibility -----------------------------------------------------


def lie_derivative_flat(components, ring: PolyRing):
    """(L_X g)_ij = d_i X_j + d_j X_i for the flat metric.

    components: one polynomial per base variable, in the ring's base
    variable order x0..x{d-1}, y0..y{d-1}.
    """
    names = [v.name for v in ring.variables[: 2 * ring.base_dim]]
    if len(components) != len(names):
        raise ValueError("field must have one component per base variable")
    n = len(names)
    return [
        [
            components[j].derive(names[i]) + components[i].derive(names[j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def symmetrized_outer(alpha, beta, ring: PolyRing):
    """alpha_i beta_j + alpha_j beta_i (twice the symmetric product)."""
    n = len(alpha)
    return [[alpha[i] * beta[j] + alpha[j] * beta[i] for j in range(n)] for i in range(n)]


def planar_rotation_identity() -> bool:
    """Cleared-denominator identity of the planar example.

    For V = (x^2+y^2)(x d_y - y d_x) on R^2 the Lie derivative of the flat
    metric equals 4 (x dx + y dy)/(x^2+y^2) symmetrized with g_flat(V); after
    clearing (x^2+y^2) both sides are polynomial and must agree exactly.
    """
    ring = PolyRing(1)
    x, y = ring.x(0), ring.y(0)
    r2 = x * x + y * y
    field = [r2 * (-y), r2 * x]
    lie = lie_derivative_flat(field, ring)
    alpha = [x, y]
    cleared = symmetrized_outer(alpha, field, ring)
    residual = [
        [r2 * lie[i][j] - 2 * cleared[i][j] for j in range(2)] for i in range(2)
    ]
    return all(p.is_zero() for row in residual for p in row)


# -- suites -------------------------------------------------------------------


def linear_obstruction_report(nullspace=None) -> VerificationReport:
    """The two computational pillars of the no-module-metric argument.

    (a) no nonzero linear field is tangent at dimension 8, and (b) every
    generator of the tangency module vanishes to second order at the origin,
    so nothing in the module can repair a first-order metric defect.
    ``nullspace`` is linear_nullspace(8), solved here when not given.
    """
    with timed_report("linear_obstruction", {}) as report:
        nullity, _ = nullspace or linear_nullspace(8)
        report.add(
            "no_linear_tangent_fields",
            "the space of linear fields tangent to the octonionic leaves is 0",
            nullity == 0,
            nullspace_dimension=nullity,
        )
        ring = PolyRing(8)
        min_deg = None
        for sec in _e0_basis(8):
            for comp in anchor(sec, ring).components():
                d = comp.min_total_degree()
                if d is not None:
                    min_deg = d if min_deg is None else min(min_deg, d)
        report.add(
            "generators_vanish_quadratically",
            "every component of every basis generator has total degree >= 2",
            min_deg == 2,
            min_total_degree=min_deg,
        )
        report.add(
            "planar_rotation_identity",
            "(x^2+y^2) L_V g = 4 (x dx + y dy) sym g_flat(V) for V = (x^2+y^2)(x d_y - y d_x)",
            planar_rotation_identity(),
        )
    return report


def verify_foliation(dim: int, seed: int, nullspace=None) -> VerificationReport:
    """Tangency suite: symbolic kernel facts, the exact nullspace ladder, and
    the proof that anchor flows stay on their leaves.

    Every check is exact; the seed only picks the integer points of the
    sampled nullspace oracle.  ``nullspace`` is linear_nullspace(dim),
    solved here when not given.  anchor_image_tangent computes the residual
    of algebroid_symbolic.anchor_image_in_kernel (algebroid._tangent_zero),
    which cites it in a call that runs both suites (algebroid.CITES); the
    flow check below reads the same anchor field rho(u, v), built once.

    The leaves are the fibres of pi = (|x|^2, x*conj(y), |y|^2), the dim + 2
    polynomial components that leaves.classify computes.  The flow check
    applies classify to the polynomial point (x, y) and proves X(f) = 0 for
    every component f of pi and X = rho(u, v) with symbolic constant (u, v),
    as polynomials in (x, y, u, v).  So pi is constant along the flow of an
    anchor field, which stays in one fibre of pi, its leaf, for all start
    points and all times:

      * rho is C-infinity-linear, so rho(s) at a point equals rho of the
        constant section s(p); every anchor field, not only a constant one,
        kills pi;
      * |x|^2 + |y|^2 = pi_1 + pi_3 is conserved, so the flows stay on a
        compact sphere and are complete.
    """
    if dim not in (2, 4, 8):
        raise ValueError("foliation suite runs at dims 2, 4, 8")

    with timed_report("foliation", {"dim": dim, "seed": seed}) as report:
        # anchor image sits inside ker J, symbolically in all 4n variables
        s = _sym_sections(dim)
        X = anchor(s.X, s.ring)
        report.add(
            "anchor_image_tangent",
            "J(rho(u, v)) = 0 for symbolic constant (u, v)",
            is_tangent_symbolic(X.u, X.v, s.ring),
        )

        # the Euler field is not tangent: J(x, y) = (|x|^2, 2 x conj(y), |y|^2)
        base = PolyRing(dim)
        x, y = coordinate_elements(base, dim)
        first, middle, last = J_map(x, y, base)
        pi = classify(PointD2(x, y))
        euler_ok = (
            first == pi.a
            and last == pi.c
            and (middle - pi.b.scale(2)).is_zero()
            and not is_tangent_symbolic(x, y, base)
        )
        report.add(
            "euler_field_not_tangent",
            "J(x, y) = (|x|^2, 2 x*conj(y), |y|^2) != 0",
            euler_ok,
        )
        zero_field = AlgebraElement(tuple(base.zero for _ in range(dim)), dim)
        report.add(
            "zero_field_tangent",
            "J(0, 0) = 0",
            is_tangent_symbolic(zero_field, zero_field, base),
        )

        # exact linear nullspace and its sampled cross-check
        nullity, basis = nullspace or linear_nullspace(dim)
        expected = EXPECTED_NULLITY[dim]
        report.add(
            "linear_nullspace_dimension",
            "dim of linear tangent fields is %d" % expected,
            nullity == expected,
            dimension=nullity,
        )
        sampled, neq, certificate = sampled_nullspace_dimension(dim, seed)
        report.add(
            "linear_nullspace_sampled_oracle",
            "point-sampled system of >= 4 n^2 equations has the same nullity",
            sampled == nullity,
            sampled_dimension=sampled,
            equations=neq,
            rank_certificate=certificate,
        )
        report.add(
            "nullspace_basis_tangent",
            "every basis ansatz satisfies J = 0 symbolically",
            all(
                is_tangent_symbolic(*_linear_field(lambda c: vec.get(c, 0), base, dim), base)
                for vec in basis
            ),
            basis_size=len(basis),
        )
        if dim in (2, 4):
            # the surviving fields are right multiplications by imaginaries
            imaginaries = [AlgebraElement.basis(dim, k) for k in range(1, dim)]
            report.add(
                "right_multiplication_generators",
                "u = x*c, v = y*c is tangent for every imaginary basis c",
                all(is_tangent_symbolic(x * c, y * c, base) for c in imaginaries),
                count=dim - 1,
            )

        # the leaf invariants are first integrals of every anchor field
        invariants = _flatten(*classify(PointD2(*coordinate_elements(s.ring, dim))))
        report.add(
            "tangent_flow_stays_on_leaf",
            "rho(u, v)(pi) = 0 for pi = (|x|^2, x*conj(y), |y|^2) and symbolic constant (u, v)",
            not any(vf_apply(X, f, s.ring) for f in invariants),
        )
    return report
