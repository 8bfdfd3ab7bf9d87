"""The graded resolution of the tangency module and its Lie 3-algebroid.

The graded bundle over O^2 is E_0 = O^2 (rank 16), E_-1 = R + O + R
(rank 10), E_-2 = R (rank 1).  The differentials

    d1(mu, a, nu) = (mu x + a y,  nu y + conj(a) x)
    d2(t)         = (-|y|^2 t,  (x conj(y)) t,  -|x|^2 t)

extend the anchor to a chain complex resolving the module of tangent
fields; composing with the tangency map J gives zero, and everything
vanishes at the origin (minimality).  The 2-bracket acts by

    [(u,v), (mu,a,nu)] = ( -2<y, conj(a) u> + 2<y,v> mu,
                           x (conj(u) a) + (a v) conj(y) - mu (x conj(v))
                                                         - nu (u conj(y)),
                           -2<x, a v> + 2<x,u> nu )
    [(u,v), t]         = 2 (<x,u> + <y,v>) t
    [(mu,a,nu), (mu',a',nu')] = 4<a,a'> - 2 mu nu' - 2 mu' nu

with the degree-0/degree-0 case the algebroid bracket; every other degree
pair brackets to zero, and all k-brackets with k >= 3 vanish.  On
polynomial-coefficient sections the 2-bracket picks up the single Leibniz
correction rho(degree-0 argument) applied to the other argument's
coefficients.  The sections Sec1 and Sec2 of E_-1 and E_-2 live in
algebroid next to E_0's; their arithmetic is the Section arithmetic, in which
int, Fraction and Polynomial coefficients mix, so no section needs lifting
into the polynomial ring before a bracket or a differential.

The rows of CHECKS, which algebroid.prove_rows proves on
algebroid._sym_sections, the one ring of symbolic sections of the
algebroid, lie3 and foliation proofs, establish: the complex property,
graded antisymmetry, the Leibniz compatibility of the differentials with
the bracket for the pairs (0,-1), (0,-2), (-1,-1), the graded Jacobi
identity for the degree triples (0,0,0), (0,0,-1), (0,0,-2), (0,-1,-1),
and minimality at the origin.  Remaining degree combinations are
exercised too: every term in them hits a bracket that is zero by degree.
The (0,0,-1) Jacobiator, the costliest proof, evaluates one of its two
degree-0 bracket terms and gets the other as its mirror image, under the
ring automorphism that swaps the two degree-0 sections' variables
(_mirrored_jacobiator).

d1 and d2, like the anchor and J they extend, are each written once as a
function of a section and a base point (x, y) on any scalar backend.  One
matrix builder applies J, rho, d1 and d2 to the basis sections at a point.
At the symbolic point it gives the polynomial matrices of the resolution.
generic_ranks proves four identities on them (rho / |p|^2 is a projection,
J = d1^T, a Schur complement of d1^T d1, and |d2|^2 > 0), which decide the
fiberwise ranks (7, 9, 1) at every real point p != 0.  At numeric points the
builder gives numeric matrices, so the ranks can also be eliminated exactly
at integer points, as an independent check of those identities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement, coordinate_elements, vector_names
from .algebroid import (
    E0Section,
    Sec1,
    Sec2,
    _e0_basis,
    _rho,
    _section_constant,
    _Symbols,
    _vanishes_at_origin,
    _weight,
    anchor,
    bracket_e0,
    degree,
    vf_apply,
)
from .exactsolve import nullspace
from .foliation import _columns_to_rows, _J_matrix
from .leaves import PointD2, classify
from .polyring import PolyRing, Polynomial, sum_of_products
from .report import VerificationReport, timed_report


# -- differentials ------------------------------------------------------------


def _d1(s: Sec1, x: AlgebraElement, y: AlgebraElement) -> E0Section:
    """(mu x + a y, nu y + conj(a) x) at the base point (x, y)."""
    return E0Section(x.scale(s.mu) + s.a * y, y.scale(s.nu) + s.a.conjugate() * x)


def _d2(s: Sec2, x: AlgebraElement, y: AlgebraElement) -> Sec1:
    """(-|y|^2 t, (x conj(y)) t, -|x|^2 t) = t (-pi_3, pi_2, -pi_1) at the base point (x, y)."""
    pi = classify(PointD2(x, y))
    return Sec1(-(pi.c * s.t), pi.b.scale(s.t), -(pi.a * s.t))


def d1(s: Sec1, ring: PolyRing) -> E0Section:
    """d1 with symbolic base point."""
    if not isinstance(s, Sec1):
        raise TypeError("d1 acts on degree -1 sections, got degree %s" % degree(s))
    return _d1(s, *coordinate_elements(ring, s.a.dim))


def d2(s: Sec2, ring: PolyRing) -> Sec1:
    """d2 with symbolic base point."""
    if not isinstance(s, Sec2):
        raise TypeError("d2 acts on degree -2 sections, got degree %s" % degree(s))
    return _d2(s, *coordinate_elements(ring, ring.base_dim))


def l1(section, ring: PolyRing):
    """The unary bracket: zero on E_0, d1 on E_-1, d2 on E_-2."""
    deg = degree(section)
    if deg == 0:
        return None
    return d1(section, ring) if deg == -1 else d2(section, ring)


# -- the 2-bracket -------------------------------------------------------------


def bracket(s1, s2, ring: PolyRing):
    """Graded 2-bracket; returns None for pairs that are zero by degree."""
    pair = (degree(s1), degree(s2))
    if pair == (0, 0):
        return bracket_e0(s1, s2, ring)
    if pair in ((0, -1), (0, -2)):
        x, y = coordinate_elements(ring, s1.dim)
        if pair == (0, -1):
            u, v, a = s1.u, s1.v, s2.a
            out = Sec1(
                -2 * y.inner(a.conjugate() * u) + 2 * (y.inner(v) * s2.mu),
                x * (u.conjugate() * a)
                + (a * v) * y.conjugate()
                - (x * v.conjugate()).scale(s2.mu)
                - (u * y.conjugate()).scale(s2.nu),
                -2 * x.inner(a * v) + 2 * (x.inner(u) * s2.nu),
            )
        else:
            out = Sec2(2 * _weight(s1, x, y) * s2.t)
        if not _section_constant(s2):
            X = anchor(s1, ring)
            out = out + s2.map(lambda c: vf_apply(X, c, ring))
        return out
    if pair == (-1, -1):
        return Sec2(4 * s1.a.inner(s2.a) - 2 * s1.mu * s2.nu - 2 * s2.mu * s1.nu)
    if pair in ((-1, 0), (-2, 0)):
        inner = bracket(s2, s1, ring)
        return None if inner is None else -inner
    return None


def jacobiator(x, y, z, ring: PolyRing):
    """(-1)^{|x||z|}[x,[y,z]] + (-1)^{|y||x|}[y,[z,x]] + (-1)^{|z||y|}[z,[x,y]].

    Returns None when every term is zero by degree bookkeeping.
    """
    terms = (
        (degree(x) * degree(z), x, y, z),
        (degree(y) * degree(x), y, z, x),
        (degree(z) * degree(y), z, x, y),
    )
    total = None
    for exponent, outer, first, second in terms:
        inner = bracket(first, second, ring)
        if inner is None:
            continue
        term = bracket(outer, inner, ring)
        if term is None:
            continue
        if exponent % 2:
            term = -term
        total = term if total is None else total + term
    return total


def leibniz_residual(s1, s2, ring: PolyRing):
    """d([s1,s2]) - [l1 s1, s2] - (-1)^{|s1|} [s1, l1 s2]; None if all degrees die."""
    br = bracket(s1, s2, ring)
    total = None if br is None else l1(br, ring)
    d_first = l1(s1, ring)
    if d_first is not None:
        term = bracket(d_first, s2, ring)
        if term is not None:
            total = -term if total is None else total - term
    d_second = l1(s2, ring)
    if d_second is not None:
        term = bracket(s1, d_second, ring)
        if term is not None:
            if degree(s1) % 2:
                term = -term
            total = -term if total is None else total - term
    return total


# -- symbolic verification ------------------------------------------------------


def _section_zero(section) -> bool:
    return section is None or section.is_zero()


def _jacobi(picks: str):
    """The proof that the Jacobiator of the named sections vanishes."""
    return lambda s: _section_zero(jacobiator(*(getattr(s, k) for k in picks.split()), s.ring))


def _mirrored_jacobiator(s: _Symbols):
    """The Jacobiator of X, Y, Z1 from one bracket term and its mirror image.

    On the degrees (0,0,-1) every sign of the Jacobiator is +, so it is
    T + [Y,[Z1,X]] + [Z1,[X,Y]] with T = [X,[Y,Z1]].  Let sigma be the ring
    automorphism that swaps X's coefficient variables (u, v) with Y's (p, q)
    and fixes x, y and every other variable.  Symbolic evaluation commutes
    with a ring homomorphism that fixes the base variables: bracket, the
    anchor and the differentials are sums and products of coefficients and
    their derivatives in x and y, and sigma commutes with each of those.
    That is the fact that lets one symbolic pass cover every section, and
    here it gives sigma(T) = [sigma X, [sigma Y, Z1]] = [Y,[X,Z1]].  By
    bracket's (-1,0) rule [Z1,X] = -[X,Z1], and bracket is linear, so
    [Y,[Z1,X]] = -sigma(T).  The Jacobiator is therefore
    T - sigma(T) + [Z1,[X,Y]], and T is evaluated once.
    """
    ring, dim = s.ring, s.ring.base_dim
    sigma = ring.swap(
        vector_names("u", dim) + vector_names("v", dim), vector_names("p", dim) + vector_names("q", dim)
    )
    T = bracket(s.X, bracket(s.Y, s.Z1, ring), ring)
    return T - T.map(sigma) + bracket(s.Z1, bracket(s.X, s.Y, ring), ring)


def _leibniz(picks: str):
    """The proof that the Leibniz residual of the named sections vanishes."""
    return lambda s: _section_zero(leibniz_residual(*(getattr(s, k) for k in picks.split()), s.ring))


def _minimal_at_origin(s: _Symbols) -> bool:
    """rho, d1 and d2 vanish at the origin; rho's part is the proof of
    algebroid_symbolic.anchor_vanishes_at_origin."""
    d1_d2 = (*d1(s.Z1, s.ring).components(), *d2(s.T1, s.ring).components())
    return _vanishes_at_origin(s) and all(c.vanishes_at_base_origin() for c in d1_d2)


# The checks of the lie3 report in order: (name, law, proof), where proof
# takes the symbolic sections of algebroid._sym_sections and returns the pass
# flag; algebroid.prove_rows proves them.
CHECKS = (
    ("complex_rho_d1", "rho . d1 = 0", lambda s: anchor(d1(s.Z1, s.ring), s.ring).is_zero()),
    ("complex_d1_d2", "d1 . d2 = 0", lambda s: d1(d2(s.T1, s.ring), s.ring).is_zero()),
    (
        "antisymmetry_0_0",
        "[x,y] + [y,x] = 0 on two degree-0 sections",
        lambda s: (bracket(s.X, s.Y, s.ring) + bracket(s.Y, s.X, s.ring)).is_zero(),
    ),
    (
        "antisymmetry_0_m1",
        "[x,z] + [z,x] = 0 for degrees (0,-1)",
        lambda s: (bracket(s.X, s.Z1, s.ring) + bracket(s.Z1, s.X, s.ring)).is_zero(),
    ),
    (
        "antisymmetry_0_m2",
        "[x,t] + [t,x] = 0 for degrees (0,-2)",
        lambda s: (bracket(s.X, s.T1, s.ring) + bracket(s.T1, s.X, s.ring)).is_zero(),
    ),
    (
        "symmetry_m1_m1",
        "[z,z'] = [z',z] for degrees (-1,-1)",
        lambda s: (bracket(s.Z1, s.Z2, s.ring) - bracket(s.Z2, s.Z1, s.ring)).is_zero(),
    ),
    ("leibniz_0_m1", "d1[x,z] = [x, d1 z] for degrees (0,-1)", _leibniz("X Z1")),
    ("leibniz_0_m2", "d2[x,t] = [x, d2 t] for degrees (0,-2)", _leibniz("X T1")),
    ("leibniz_m1_m1", "d2[z,z'] = [d1 z, z'] - [z, d1 z'] for degrees (-1,-1)", _leibniz("Z1 Z2")),
    ("jacobi_0_0_0", "graded Jacobi on degrees (0,0,0)", _jacobi("X Y W")),
    (
        "jacobi_0_0_m1",
        "graded Jacobi on degrees (0,0,-1)",
        lambda s: _section_zero(_mirrored_jacobiator(s)),
    ),
    ("jacobi_0_0_m2", "graded Jacobi on degrees (0,0,-2)", _jacobi("X Y T1")),
    ("jacobi_0_m1_m1", "graded Jacobi on degrees (0,-1,-1)", _jacobi("X Z1 Z2")),
    ("jacobi_0_m1_m2", "Jacobiator dies by degree on (0,-1,-2)", _jacobi("X Z1 T1")),
    ("jacobi_0_m2_m2", "Jacobiator dies by degree on (0,-2,-2)", _jacobi("X T1 T2")),
    ("jacobi_m1_m1_m1", "Jacobiator dies by degree on (-1,-1,-1)", _jacobi("Z1 Z2 Z1")),
    ("jacobi_m1_m1_m2", "Jacobiator dies by degree on (-1,-1,-2)", _jacobi("Z1 Z2 T1")),
    ("jacobi_m1_m2_m2", "Jacobiator dies by degree on (-1,-2,-2)", _jacobi("Z1 T1 T2")),
    ("jacobi_m2_m2_m2", "Jacobiator dies by degree on (-2,-2,-2)", _jacobi("T1 T2 T1")),
    (
        "degree_pairs_zero",
        "brackets of degree pairs (-1,-2), (-2,-2) vanish",
        lambda s: bracket(s.Z1, s.T1, s.ring) is None
        and bracket(s.T1, s.Z1, s.ring) is None
        and bracket(s.T1, s.T2, s.ring) is None,
    ),
    ("minimal_at_origin", "rho, d1, d2 all vanish at (0, 0)", _minimal_at_origin),
)


# -- matrices of the resolution --------------------------------------------------


@dataclass(frozen=True)
class ResolutionMatrices:
    """Matrices of J, rho, d1, d2 in the standard bases, as tuples of rows."""

    J: tuple
    Rho: tuple
    D1: tuple
    D2: tuple


def _maps_at(x: AlgebraElement, y: AlgebraElement) -> ResolutionMatrices:
    """J, rho, d1, d2 applied to the basis sections at the point (x, y)."""
    return ResolutionMatrices(_J_matrix(x, y), *_resolution_at(x, y))


def _resolution_at(x: AlgebraElement, y: AlgebraElement) -> tuple:
    """The matrices Rho, D1, D2 at the point (x, y).

    Columns follow the bases (e_i, 0), (0, e_i) of E_0, (1, 0, 0), (0, e_i, 0),
    (0, 0, 1) of E_-1 and 1 of E_-2; entries stay in the scalar backend of
    the point.
    """
    dim = x.dim
    z = AlgebraElement.zero(dim)
    e1 = [Sec1(0, AlgebraElement.basis(dim, i), 0) for i in range(dim)]
    e1 = [Sec1(1, z, 0), *e1, Sec1(0, z, 1)]
    return (
        _columns_to_rows([_rho(s, x, y).components() for s in _e0_basis(dim)]),
        _columns_to_rows([_d1(s, x, y).components() for s in e1]),
        _columns_to_rows([_d2(Sec2(1), x, y).components()]),
    )


def resolution_matrices() -> ResolutionMatrices:
    """Assemble J (10 x 16), Rho (16 x 16), D1 (16 x 10), D2 (10 x 1) at dimension 8."""
    ring = PolyRing(8)
    mats = _maps_at(*coordinate_elements(ring, 8))
    return ResolutionMatrices(
        *(
            tuple(tuple(c if isinstance(c, Polynomial) else ring.const(c) for c in row) for row in M)
            for M in (mats.J, mats.Rho, mats.D1, mats.D2)
        )
    )


# The tangency matrix as transcribed once by hand from the octonion product,
# kept literal so the generated matrix is compared against an independent
# record rather than against itself.
TRANSCRIBED_TANGENCY_MATRIX = (
    (" x0", " x1", " x2", " x3", " x4", " x5", " x6", " x7", "  0", "  0", "  0", "  0", "  0", "  0", "  0", "  0"),
    (" y0", " y1", " y2", " y3", " y4", " y5", " y6", " y7", " x0", " x1", " x2", " x3", " x4", " x5", " x6", " x7"),
    ("-y1", " y0", "-y3", " y2", "-y5", " y4", " y7", "-y6", " x1", "-x0", " x3", "-x2", " x5", "-x4", "-x7", " x6"),
    ("-y2", " y3", " y0", "-y1", "-y6", "-y7", " y4", " y5", " x2", "-x3", "-x0", " x1", " x6", " x7", "-x4", "-x5"),
    ("-y3", "-y2", " y1", " y0", "-y7", " y6", "-y5", " y4", " x3", " x2", "-x1", "-x0", " x7", "-x6", " x5", "-x4"),
    ("-y4", " y5", " y6", " y7", " y0", "-y1", "-y2", "-y3", " x4", "-x5", "-x6", "-x7", "-x0", " x1", " x2", " x3"),
    ("-y5", "-y4", " y7", "-y6", " y1", " y0", " y3", "-y2", " x5", " x4", "-x7", " x6", "-x1", "-x0", "-x3", " x2"),
    ("-y6", "-y7", "-y4", " y5", " y2", "-y3", " y0", " y1", " x6", " x7", " x4", "-x5", "-x2", " x3", "-x0", "-x1"),
    ("-y7", " y6", "-y5", "-y4", " y3", " y2", "-y1", " y0", " x7", "-x6", " x5", " x4", "-x3", "-x2", " x1", "-x0"),
    ("  0", "  0", "  0", "  0", "  0", "  0", "  0", "  0", " y0", " y1", " y2", " y3", " y4", " y5", " y6", " y7"),
)


def verify_matrix_vs_transcription(mats=None) -> VerificationReport:
    """Entrywise comparison of the generated tangency matrix with the record.

    Entries are single signed variables or zero, so comparing canonical
    string forms is an exact test.  ``mats`` is resolution_matrices(),
    built here when not given.
    """
    with timed_report("tangency_matrix", {}) as report:
        generated = (mats or resolution_matrices()).J
        mismatches = []
        for i in range(10):
            for j in range(16):
                expected = TRANSCRIBED_TANGENCY_MATRIX[i][j].replace(" ", "")
                got = str(generated[i][j])
                if got != expected:
                    mismatches.append((i, j, got, expected))
        report.add(
            "matrix_matches_transcription",
            "all 160 entries of the generated tangency matrix equal the transcription",
            not mismatches,
            mismatches=mismatches[:8],
            entries=160,
        )
        report.add(
            "first_row",
            "row 0 is (x0..x7, 0..0)",
            [str(p) for p in generated[0]] == ["x%d" % i for i in range(8)] + ["0"] * 8,
        )
        report.add(
            "last_row",
            "row 9 is (0..0, y0..y7)",
            [str(p) for p in generated[9]] == ["0"] * 8 + ["y%d" % i for i in range(8)],
        )
    return report


# -- fiberwise ranks ---------------------------------------------------------------
# Each certificate takes the symbolic matrices and |x|^2, |y|^2.  It returns
# whether its identities hold and the info its check reports; generic_ranks
# reads the ranks off that info.


def _rho_certificate(mats: ResolutionMatrices, x2: Polynomial, y2: Polynomial):
    """rho^T = rho, rho^2 = |p|^2 rho and tr rho = k |p|^2, k the trace coefficient."""
    R, p2 = mats.Rho, x2 + y2
    cols = tuple(zip(*R))
    trace = sum(R[i][i] for i in range(len(R)))
    k = trace.terms.get(next(iter(p2.terms)), 0)
    # once R is symmetric, so is R^2 - |p|^2 R: its upper triangle decides it
    holds = (
        R == cols
        and trace == k * p2
        and not any(
            sum_of_products(p2.ring, [(1, a, b) for a, b in zip(R[i], cols[j])] + [(-1, p2, R[i][j])])
            for i in range(len(R))
            for j in range(i, len(R))
        )
    )
    return holds, {"trace_coefficient": k}


def _tangency_certificate(mats: ResolutionMatrices, x2: Polynomial, y2: Polynomial):
    """J = d1^T entry by entry."""
    return mats.J == tuple(zip(*mats.D1)), {}


def _d1_certificate(mats: ResolutionMatrices, x2: Polynomial, y2: Polynomial):
    """Q = d1^T d1, columns (mu, a, nu), has a-block |p|^2 I_8 and |p|^2 C - B^T B = v v^T."""
    ring, p2 = x2.ring, x2 + y2
    cols = tuple(zip(*mats.D1))
    Q = [[sum_of_products(ring, [(1, a, b) for a, b in zip(ci, cj)]) for cj in cols] for ci in cols]
    block, ends, v = range(1, 9), (0, 9), (x2, -y2)
    holds = all(Q[i][j] == (p2 if i == j else 0) for i in block for j in block) and all(
        sum_of_products(ring, [(1, p2, Q[i][j])] + [(-1, Q[a][i], Q[a][j]) for a in block])
        == v[s] * v[t]
        for s, i in enumerate(ends)
        for t, j in enumerate(ends)
    )
    return holds, {"a_block": len(block), "schur_rank": 1 if v[0] - v[1] == p2 else 0}


def _d2_certificate(mats: ResolutionMatrices, x2: Polynomial, y2: Polynomial):
    """|d2|^2 = |x|^4 + |x|^2 |y|^2 + |y|^4 for the one column of d2."""
    norm = sum_of_products(x2.ring, [(1, c, c) for (c,) in mats.D2])
    return norm == x2 * x2 + x2 * y2 + y2 * y2, {"columns": len(mats.D2[0])}


def _rho0_rank(mats: ResolutionMatrices) -> int:
    """rank rho_0: the rank over Q of the 16 basis fields, the columns of Rho.

    Each column is flattened to one sparse row of its coefficients, one
    column index per (entry, monomial) pair.
    """
    index: dict = {}
    rows = [
        {index.setdefault((i, k), len(index)): c for i, p in enumerate(col) for k, c in p.terms.items()}
        for col in zip(*mats.Rho)
    ]
    return nullspace(rows, len(index), want_basis=False)[0]


def generic_ranks(mats=None) -> VerificationReport:
    """Fiberwise ranks of (rho, d1, d2): (7, 9, 1) at every real point p != 0.

    Four polynomial identities on the symbolic matrices of the resolution
    decide the ranks at every real point p = (x, y) != 0, the infinity line
    x = 0 included.  Write |p|^2 = |x|^2 + |y|^2, which is positive there.

    - rho^T = rho, rho^2 = |p|^2 rho and tr rho = k |p|^2 for a constant k:
      rho / |p|^2 is an orthogonal projection, so its rank is its trace k.
    - J = d1^T entry by entry, so rank J = rank d1.
    - Q = d1^T d1, with columns ordered (mu, a, nu), has the a-block
      |p|^2 I_8.  With B the (a, (mu, nu)) block and C the ((mu, nu),
      (mu, nu)) block, |p|^2 C - B^T B = v v^T for v = (|x|^2, -|y|^2), so
      the Schur complement of the a-block is v v^T / |p|^2.  Over the reals
      rank d1 = rank Q = 8 + rank v v^T, and v v^T has rank 1 because
      v_0 - v_1 = |p|^2 != 0.
    - |d2|^2 = |x|^4 + |x|^2 |y|^2 + |y|^4 > 0, so the one column of d2 has
      rank 1.

    The reported ranks are read off the certificates: the trace coefficient
    k, the a-block size plus the rank of v v^T, and the columns of d2.  The
    rank checks pass only if every certificate holds.  At the origin every
    entry of the three matrices is zero.

    minimal_rank_consequence counts the generators of the module F of
    tangent fields.  F is spanned by the images rho(s) of the 16 constant
    sections, the columns of Rho, and each is a homogeneous quadratic field.
    With m the ideal of the origin, mF lies in degrees >= 3, so F/mF is the
    span of those 16 fields over R and dim F/mF = rank rho_0, computed
    exactly from their coefficients.  By graded Nakayama, F needs exactly
    that many generators, and E_0 is of minimal rank iff rank rho_0 =
    rank E_0 = 16.

    ``mats`` is resolution_matrices(), built here when not given.
    """
    with timed_report("generic_ranks", {}) as report:
        mats = mats or resolution_matrices()
        x, y = coordinate_elements(mats.Rho[0][0].ring, 8)
        args = (mats, x.norm_sq(), y.norm_sq())
        certified, info = True, {}
        for name, law, certificate in (
            (
                "rho_is_scaled_projection",
                "rho^T = rho, rho^2 = |p|^2 rho and tr rho = k |p|^2 for a constant k",
                _rho_certificate,
            ),
            ("tangency_is_d1_transpose", "J = d1^T, all 160 entries", _tangency_certificate),
            (
                "d1_gram_schur_complement",
                "d1^T d1 has a-block |p|^2 I_8 and |p|^2 C - B^T B = v v^T, v = (|x|^2, -|y|^2)",
                _d1_certificate,
            ),
            ("d2_norm_positive", "|d2|^2 = |x|^4 + |x|^2 |y|^2 + |y|^4", _d2_certificate),
        ):
            holds, found = certificate(*args)
            report.add(name, law, holds, **found)
            certified = certified and holds
            info.update(found)
        ranks = (info["trace_coefficient"], info["a_block"] + info["schur_rank"], info["columns"])
        report.add(
            "generic_point_ranks",
            "fiberwise ranks (rho, d1, d2) = (7, 9, 1) at generic points",
            certified and ranks == (7, 9, 1),
            observed=[ranks],
        )
        report.add(
            "rank_exactness",
            "rank d2 + rank d1 = 10 and rank d1 + rank rho = 16",
            certified and ranks[2] + ranks[1] == 10 and ranks[1] + ranks[0] == 16,
        )
        z = AlgebraElement.zero(8)
        report.add(
            "origin_ranks",
            "all three maps vanish at the origin: ranks (0, 0, 0)",
            all(c == 0 for M in _resolution_at(z, z) for row in M for c in row),
        )
        report.add(
            "infinity_line_ranks",
            "points with x = 0, y != 0 also show ranks (7, 9, 1)",
            certified and ranks == (7, 9, 1),
            observed=[ranks],
        )
        rank_e0, rank_rho0 = len(_e0_basis(8)), _rho0_rank(mats)
        report.add(
            "minimal_rank_consequence",
            "minimality at the origin pins rank E_0 = 16 = generators of the tangency module",
            rank_e0 == rank_rho0 == 16,
            rank_e0=rank_e0,
            rank_rho0=rank_rho0,
        )
    return report
