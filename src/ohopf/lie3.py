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
coefficients.  Sec1 and Sec2 declare only their fields and their degree;
their arithmetic is the Section arithmetic shared with E_0, in which int,
Fraction and Polynomial coefficients mix, so no section needs lifting into
the polynomial ring before a bracket or a differential.

verify_lie3 proves, with every section component a symbolic indeterminate:
the complex property, graded antisymmetry, the Leibniz compatibility of the
differentials with the bracket for the pairs (0,-1), (0,-2), (-1,-1), the
graded Jacobi identity for the degree triples (0,0,0), (0,0,-1), (0,0,-2),
(0,-1,-1), and minimality at the origin.  Remaining degree combinations are
exercised too: every term in them hits a bracket that is zero by degree.

d1 and d2, like the anchor and J they extend, are each written once as a
function of a section and a base point (x, y) on any scalar backend.  One
matrix builder applies J, rho, d1 and d2 to the basis sections at a point:
at the symbolic point it gives the polynomial matrices of the resolution, at
integer points the integer matrices whose exact fiberwise ranks
generic_ranks decides.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraElement,
    coordinate_elements,
    random_integer_element,
    vector_names,
    vector_symbol,
)
from .algebroid import (
    E0Section,
    Section,
    _e0_basis,
    _rho,
    _section_constant,
    _weight,
    anchor,
    bracket_e0,
    vf_apply,
)
from .exactsolve import dense_rank
from .foliation import _columns_to_rows, _J_matrix
from .leaves import PointD2, classify
from .polyring import PolyRing, Polynomial
from .report import VerificationReport, derived_random, timed_report


@dataclass(frozen=True)
class Sec1(Section):
    """Degree -1 section: scalar mu, octonion a, scalar nu."""

    DEGREE = -1

    mu: object
    a: AlgebraElement
    nu: object


@dataclass(frozen=True)
class Sec2(Section):
    """Degree -2 section: a single scalar."""

    DEGREE = -2

    t: object


def degree(section) -> int:
    deg = getattr(section, "DEGREE", None)
    if deg is None:
        raise TypeError("not a graded section: %r" % (section,))
    return deg


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


def _sym_sections(dim: int):
    """One ring holding symbolic copies of every section shape."""
    names = []
    for prefix in ("u", "v", "p", "q", "r", "s", "a", "b"):
        names += vector_names(prefix, dim)
    names += ["mu1", "nu1", "mu2", "nu2", "t1", "t2"]
    ring = PolyRing(dim, names)
    X = E0Section(vector_symbol(ring, "u", dim), vector_symbol(ring, "v", dim))
    Y = E0Section(vector_symbol(ring, "p", dim), vector_symbol(ring, "q", dim))
    W = E0Section(vector_symbol(ring, "r", dim), vector_symbol(ring, "s", dim))
    Z1 = Sec1(ring.poly("mu1"), vector_symbol(ring, "a", dim), ring.poly("nu1"))
    Z2 = Sec1(ring.poly("mu2"), vector_symbol(ring, "b", dim), ring.poly("nu2"))
    T1 = Sec2(ring.poly("t1"))
    T2 = Sec2(ring.poly("t2"))
    return ring, X, Y, W, Z1, Z2, T1, T2


def verify_lie3() -> VerificationReport:
    """Prove the Lie 3-algebroid structure equations at dimension 8.

    Every section component is an indeterminate, so each residual must
    cancel coefficient-wise: a pass covers every section, not a sample.
    """
    dim = 8
    with timed_report("lie3", {"dim": dim}) as report:
        ring, X, Y, W, Z1, Z2, T1, T2 = _sym_sections(dim)
        report.add("complex_rho_d1", "rho . d1 = 0", anchor(d1(Z1, ring), ring).is_zero())
        report.add("complex_d1_d2", "d1 . d2 = 0", d1(d2(T1, ring), ring).is_zero())
        report.add(
            "antisymmetry_0_0",
            "[x,y] + [y,x] = 0 on two degree-0 sections",
            (bracket(X, Y, ring) + bracket(Y, X, ring)).is_zero(),
        )
        report.add(
            "antisymmetry_0_m1",
            "[x,z] + [z,x] = 0 for degrees (0,-1)",
            (bracket(X, Z1, ring) + bracket(Z1, X, ring)).is_zero(),
        )
        report.add(
            "antisymmetry_0_m2",
            "[x,t] + [t,x] = 0 for degrees (0,-2)",
            (bracket(X, T1, ring) + bracket(T1, X, ring)).is_zero(),
        )
        report.add(
            "symmetry_m1_m1",
            "[z,z'] = [z',z] for degrees (-1,-1)",
            (bracket(Z1, Z2, ring) - bracket(Z2, Z1, ring)).is_zero(),
        )
        for name, law, (sa, sb) in (
            ("leibniz_0_m1", "d1[x,z] = [x, d1 z] for degrees (0,-1)", (X, Z1)),
            ("leibniz_0_m2", "d2[x,t] = [x, d2 t] for degrees (0,-2)", (X, T1)),
            ("leibniz_m1_m1", "d2[z,z'] = [d1 z, z'] - [z, d1 z'] for degrees (-1,-1)", (Z1, Z2)),
        ):
            report.add(name, law, _section_zero(leibniz_residual(sa, sb, ring)))
        for name, law, (sa, sb, sc) in (
            ("jacobi_0_0_0", "graded Jacobi on degrees (0,0,0)", (X, Y, W)),
            ("jacobi_0_0_m1", "graded Jacobi on degrees (0,0,-1)", (X, Y, Z1)),
            ("jacobi_0_0_m2", "graded Jacobi on degrees (0,0,-2)", (X, Y, T1)),
            ("jacobi_0_m1_m1", "graded Jacobi on degrees (0,-1,-1)", (X, Z1, Z2)),
            ("jacobi_0_m1_m2", "Jacobiator dies by degree on (0,-1,-2)", (X, Z1, T1)),
            ("jacobi_0_m2_m2", "Jacobiator dies by degree on (0,-2,-2)", (X, T1, T2)),
            ("jacobi_m1_m1_m1", "Jacobiator dies by degree on (-1,-1,-1)", (Z1, Z2, Z1)),
            ("jacobi_m1_m1_m2", "Jacobiator dies by degree on (-1,-1,-2)", (Z1, Z2, T1)),
            ("jacobi_m1_m2_m2", "Jacobiator dies by degree on (-1,-2,-2)", (Z1, T1, T2)),
            ("jacobi_m2_m2_m2", "Jacobiator dies by degree on (-2,-2,-2)", (T1, T2, T1)),
        ):
            report.add(name, law, _section_zero(jacobiator(sa, sb, sc, ring)))
        report.add(
            "degree_pairs_zero",
            "brackets of degree pairs (-1,-2), (-2,-2) vanish",
            bracket(Z1, T1, ring) is None
            and bracket(T1, Z1, ring) is None
            and bracket(T1, T2, ring) is None,
        )
        origin = {v.name: 0 for v in ring.variables[: 2 * dim]}
        components = [
            *anchor(X, ring).components(),
            *d1(Z1, ring).components(),
            *d2(T1, ring).components(),
        ]
        report.add(
            "minimal_at_origin",
            "rho, d1, d2 all vanish at (0, 0)",
            all(c.substitute(origin).is_zero() for c in components),
        )
    return report


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


def resolution_matrices(dim: int = 8) -> ResolutionMatrices:
    """Assemble J (n+2 x 2n), Rho (2n x 2n), D1 (2n x n+2), D2 (n+2 x 1)."""
    ring = PolyRing(dim)
    mats = _maps_at(*coordinate_elements(ring, dim))
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


def verify_matrix_vs_transcription() -> VerificationReport:
    """Entrywise comparison of the generated tangency matrix with the record.

    Entries are single signed variables or zero, so comparing canonical
    string forms is an exact test.
    """
    with timed_report("tangency_matrix", {}) as report:
        generated = resolution_matrices(8).J
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


def _ranks_at(x: AlgebraElement, y: AlgebraElement) -> tuple:
    """Exact fiberwise ranks of (rho, d1, d2) at an integer point."""
    return tuple(dense_rank(M) for M in _resolution_at(x, y))


def generic_ranks(samples: int, seed: int) -> VerificationReport:
    """Fiberwise ranks of (rho, d1, d2): (7, 9, 1) away from the origin.

    The ranks are exact: at an integer point the maps are integer matrices,
    eliminated over Q.  One point with ranks (7, 9, 1) pins the generic ranks
    at exactly (7, 9, 1).  Rank is lower semicontinuous, so the ranks are at
    least (7, 9, 1) on a dense open set around such a point.  The proved
    identities rho . d1 = 0 and d1 . d2 = 0 give rank rho + rank d1 <= 16 and
    rank d1 + rank d2 <= 10 at every point, and d2 has one column, so on that
    set the ranks are also at most (7, 9, 1).  At the origin all three maps
    vanish.  Coordinates are nonzero integers in +-[1, 4]: stream 0 draws the
    generic points, stream 1 the points of the infinity line x = 0.
    """
    with timed_report("generic_ranks", {"samples": samples, "seed": seed}) as report:
        rng = derived_random(seed, 0)
        ok_generic = samples > 0  # no sampled point fails: all() of nothing is no proof
        seen = set()
        for _ in range(samples):
            ranks = _ranks_at(random_integer_element(rng, 8), random_integer_element(rng, 8))
            seen.add(ranks)
            if ranks != (7, 9, 1):
                ok_generic = False
        report.add(
            "generic_point_ranks",
            "fiberwise ranks (rho, d1, d2) = (7, 9, 1) at generic points",
            ok_generic,
            observed=sorted(seen),
        )
        report.add(
            "rank_exactness",
            "rank d2 + rank d1 = 10 and rank d1 + rank rho = 16",
            bool(seen) and all(r[2] + r[1] == 10 and r[1] + r[0] == 16 for r in seen),
        )
        z = AlgebraElement.zero(8)
        report.add(
            "origin_ranks",
            "all three maps vanish at the origin: ranks (0, 0, 0)",
            _ranks_at(z, z) == (0, 0, 0),
        )
        # the infinity stratum x = 0, y != 0 keeps the generic ranks
        rng = derived_random(seed, 1)
        inf_ranks = {
            _ranks_at(z, random_integer_element(rng, 8)) for _ in range(max(samples // 10, 4))
        }
        report.add(
            "infinity_line_ranks",
            "points with x = 0, y != 0 also show ranks (7, 9, 1)",
            inf_ranks == {(7, 9, 1)},
            observed=sorted(inf_ranks),
        )
        # E_0 has one basis section per generator of the tangency module,
        # and J has one column per basis section
        rank_e0 = len(_e0_basis(8))
        generators = len(_J_matrix(z, z)[0])
        report.add(
            "minimal_rank_consequence",
            "minimality at the origin pins rank E_0 = 16 = generators of the tangency module",
            rank_e0 == generators == 16,
            rank_e0=rank_e0,
        )
    return report
