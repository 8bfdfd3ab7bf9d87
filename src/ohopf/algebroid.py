"""The Lie algebroid induced by differentiating the rescaling groupoid.

The bundle is the trivial rank-2n bundle over D^2; a section is an O-valued
pair (u, v).  The anchor sends it to the vector field

    rho(u, v) = ( |x|^2 u + (x conj(y)) v - (<x,u> + <y,v>) x,
                  |y|^2 v + (y conj(x)) u - (<x,u> + <y,v>) y )

and the bracket on constant sections is

    [(u,v), (u',v')] = c(u,v) (u',v') - c(u',v') (u,v),
    c(u,v) = <x,u> + <y,v>.

On polynomial-coefficient sections the bracket carries the two Leibniz
corrections: [X, Y] also picks up rho(X) applied to the coefficients of Y
minus rho(Y) applied to the coefficients of X.  With those corrections the
anchor is a morphism onto the commutator of vector fields, which is proved
symbolically here, and the whole structure is consistent with the groupoid:
the derivative of the target map at the units along arrow directions is
the anchor, and the derivative of the rescaling function along the F_i
direction is x^i, both proved as polynomial identities.

The weight c and the anchor are each written once, as functions of a
section and a base point (x, y) whose coefficients may be exact numbers,
floats or polynomials.  The symbolic forms pass the coordinate elements of a
polynomial ring as the point; the numeric checks pass numbers.

E is the degree-0 part of the Lie 3-algebroid of lie3, so the sections of
degrees -1 and -2 (Sec1, Sec2) are declared here too.  Sections, vector
fields and the graded sections share one fieldwise arithmetic (Section).
Numbers and polynomials mix in it, so a section with numeric
coefficients goes into the symbolic maps as it is, with no lifting into the
polynomial ring; a Leibniz correction is one map of vf_apply over the
coefficients, and a constant coefficient derives to zero.

Every symbolic proof of this module, lie3 and foliation takes its sections
from _sym_sections: one ring holds symbolic copies of every section shape,
so a claim that two suites check is one residual polynomial in both.
prove_rows is the one prover of a (name, law, proof) table, SYMBOLIC_CHECKS
here and lie3.CHECKS.

The structure is equivariant under a finite group of signed permutations:
g, an automorphism of order 7 of the octonion table acting on every
octonion factor, and kappa, which swaps the two factors of O^2
(SYMMETRIES).  The costliest proofs, the Jacobi identities and the anchor
morphism, are multilinear in constant sections, so they are proved with one
argument at a few orbit representatives, given an exact equivariance
premise proved in the same call (_commutes, prove_rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import groupoid
from .algebra import AlgebraElement, coordinate_elements, mult_table, vector_names, vector_symbol
from .polyring import Deferred, PolyRing, Polynomial
from .report import VerificationReport, timed_report


class Section:
    """Fieldwise arithmetic shared by the section and vector-field types.

    Each subclass is a frozen dataclass whose fields are AlgebraElements or
    scalars.  Every operation acts field by field, an AlgebraElement field
    coefficient by coefficient; int, Fraction and Polynomial coefficients mix
    freely, so no section is ever lifted into a polynomial ring first.
    """

    __slots__ = ()

    def _values(self):
        return [getattr(self, name) for name in self.__match_args__]

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(*(a + b for a, b in zip(self._values(), other._values())))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(*(a - b for a, b in zip(self._values(), other._values())))

    def __neg__(self):
        return type(self)(*(-a for a in self._values()))

    def scale(self, f):
        return self.map(lambda c: f * c)

    def map(self, fn):
        """Apply fn to every scalar coefficient."""
        return type(self)(
            *(
                AlgebraElement(tuple(fn(c) for c in v.coeffs), v.dim)
                if isinstance(v, AlgebraElement)
                else fn(v)
                for v in self._values()
            )
        )

    def components(self):
        out = []
        for v in self._values():
            if isinstance(v, AlgebraElement):
                out.extend(v.coeffs)
            else:
                out.append(v)
        return tuple(out)

    def is_zero(self):
        return not any(self.components())


@dataclass(frozen=True)
class E0Section(Section):
    """Section of the algebroid bundle: an O-valued pair (u, v)."""

    DEGREE = 0

    u: AlgebraElement
    v: AlgebraElement

    @property
    def dim(self):
        return self.u.dim


@dataclass(frozen=True)
class VectorField(Section):
    """Vector field on D^2 in the (d/dx, d/dy) block form, components polynomial."""

    u: AlgebraElement
    v: AlgebraElement


@dataclass(frozen=True)
class Sec1(Section):
    """Degree -1 section of the Lie 3-algebroid: scalar mu, octonion a, scalar nu."""

    DEGREE = -1

    mu: object
    a: AlgebraElement
    nu: object


@dataclass(frozen=True)
class Sec2(Section):
    """Degree -2 section of the Lie 3-algebroid: a single scalar."""

    DEGREE = -2

    t: object


def degree(section) -> int:
    deg = getattr(section, "DEGREE", None)
    if deg is None:
        raise TypeError("not a graded section: %r" % (section,))
    return deg


def constant_section(dim: int, i: int, slot: int) -> E0Section:
    """Basis section: (e_i, 0) for slot 0, (0, e_i) for slot 1."""
    e = AlgebraElement.basis(dim, i)
    z = AlgebraElement.zero(dim)
    return E0Section(e, z) if slot == 0 else E0Section(z, e)


def _e0_basis(dim: int):
    """The basis sections (e_0, 0)..(e_{n-1}, 0), (0, e_0)..(0, e_{n-1}) in order."""
    return [constant_section(dim, i, slot) for slot in (0, 1) for i in range(dim)]


def _weight(sec: E0Section, x: AlgebraElement, y: AlgebraElement):
    """c(u, v) = <x, u> + <y, v> at the base point (x, y)."""
    return x.inner(sec.u) + y.inner(sec.v)


def _rho(sec: E0Section, x: AlgebraElement, y: AlgebraElement) -> VectorField:
    """The anchor field of a section at the base point (x, y)."""
    c = _weight(sec, x, y)
    return VectorField(
        sec.u.scale(x.norm_sq()) + (x * y.conjugate()) * sec.v - x.scale(c),
        sec.v.scale(y.norm_sq()) + (y * x.conjugate()) * sec.u - y.scale(c),
    )


def anchor(sec: E0Section, ring: PolyRing) -> VectorField:
    """The anchor field of a section, with symbolic base point."""
    return _rho(sec, *coordinate_elements(ring, sec.dim))


def vf_apply(X: VectorField, f, ring: PolyRing):
    """X acting on a function as a derivation; a constant gives zero.

    X(f) is the sum over the base variables of component times partial
    derivative, kept as a Deferred polynomial that is summed in one dict on
    first read; a numeric component enters as a constant polynomial.  A
    deferred f is a Polynomial like any other: its terms are read here and
    derived, so it never counts as a constant.
    """
    if not isinstance(f, Polynomial):
        return ring.zero
    names = [v.name for v in ring.variables[: 2 * ring.base_dim]]
    triples = []
    for comp, name in zip(X.components(), names):
        if comp:
            df = f.derive(name)
            if df:
                triples.append((1, comp if isinstance(comp, Polynomial) else ring.const(comp), df))
    return Deferred(ring, triples) if triples else ring.zero


def _section_constant(sec) -> bool:
    """No component of a graded section depends on the base point."""
    return not any(isinstance(c, Polynomial) and c.depends_on_base() for c in sec.components())


def vf_commutator(X: VectorField, Y: VectorField, ring: PolyRing) -> VectorField:
    """[X, Y]_k = X(Y_k) - Y(X_k)."""
    return Y.map(lambda c: vf_apply(X, c, ring)) - X.map(lambda c: vf_apply(Y, c, ring))


def bracket_e0(s1: E0Section, s2: E0Section, ring: PolyRing) -> E0Section:
    """Algebroid bracket; Leibniz corrections activate on non-constant input."""
    x, y = coordinate_elements(ring, s1.dim)
    out = s2.scale(_weight(s1, x, y)) - s1.scale(_weight(s2, x, y))
    if not _section_constant(s2):
        X = anchor(s1, ring)
        out = out + s2.map(lambda c: vf_apply(X, c, ring))
    if not _section_constant(s1):
        Y = anchor(s2, ring)
        out = out - s1.map(lambda c: vf_apply(Y, c, ring))
    return out


# -- symbolic suite ----------------------------------------------------------


class _Symbols(NamedTuple):
    """The symbolic sections of _sym_sections, and the premises proved on them."""

    ring: PolyRing
    X: E0Section
    Y: E0Section
    W: E0Section
    Z1: Sec1
    Z2: Sec1
    T1: Sec2
    T2: Sec2
    proved: dict

    def holds(self, premise) -> bool:
        """premise(self), proved on the first call and kept for the later ones,
        so the rows of one prove_rows call prove a premise they share once."""
        if premise not in self.proved:
            self.proved[premise] = premise(self)
        return self.proved[premise]


def _sym_sections(dim: int) -> _Symbols:
    """One ring holding symbolic copies of every section shape, the sections
    of every symbolic proof of this module, lie3 and foliation."""
    names = []
    for prefix in ("u", "v", "p", "q", "r", "s", "a", "b"):
        names += vector_names(prefix, dim)
    names += ["mu1", "nu1", "mu2", "nu2", "t1", "t2"]
    ring = PolyRing(dim, names)
    return _Symbols(
        ring,
        E0Section(vector_symbol(ring, "u", dim), vector_symbol(ring, "v", dim)),
        E0Section(vector_symbol(ring, "p", dim), vector_symbol(ring, "q", dim)),
        E0Section(vector_symbol(ring, "r", dim), vector_symbol(ring, "s", dim)),
        Sec1(ring.poly("mu1"), vector_symbol(ring, "a", dim), ring.poly("nu1")),
        Sec1(ring.poly("mu2"), vector_symbol(ring, "b", dim), ring.poly("nu2")),
        Sec2(ring.poly("t1")),
        Sec2(ring.poly("t2")),
        {},
    )


# -- a finite symmetry and orbit representatives -------------------------------


class _Symmetry:
    """A linear symmetry h of the base O^2 and of the bundles E_0, E_-1, E_-2.

    h sends e_i of every octonion factor to sign * e_index, (sign, index) =
    images[i].  With swap it also exchanges the two factors of each pair:
    (x, y) -> (y, x), (u, v) -> (v, u), a vector field's two blocks, and
    (mu, a, nu) -> (nu, conj(a), mu).  It fixes E_-2 and every function.
    """

    def __init__(self, images: tuple, swap: bool):
        self.images, self.swap = images, swap

    def octonion(self, e: AlgebraElement) -> AlgebraElement:
        coeffs = [0] * e.dim
        for c, (sign, index) in zip(e.coeffs, self.images):
            coeffs[index] = c if sign > 0 else -c
        return AlgebraElement(coeffs, e.dim)

    def __call__(self, obj):
        if isinstance(obj, (E0Section, VectorField)):
            u, v = self.octonion(obj.u), self.octonion(obj.v)
            return type(obj)(v, u) if self.swap else type(obj)(u, v)
        if isinstance(obj, Sec1):
            a = self.octonion(obj.a)
            return Sec1(obj.nu, a.conjugate(), obj.mu) if self.swap else Sec1(obj.mu, a, obj.nu)
        return obj


# g, an automorphism of order 7 of the octonion table that permutes the basis
# up to sign, g(e_1..e_7) = (e_2, -e_4, -e_6, e_3, e_1, e_7, e_5): one of the
# 384 elements of order 7 among the 1344 such automorphisms, the group
# 2^3 . GL(3,2) (Baez, "The Octonions", Bull. AMS 39, 2002).  Its powers move
# e_1 through +-e_1 .. +-e_7.  kappa swaps the two factors of O^2.
SYMMETRIES = (
    _Symmetry(((1, 0), (1, 2), (-1, 4), (-1, 6), (1, 3), (1, 1), (1, 7), (1, 5)), False),
    _Symmetry(((1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7)), True),
)


def _point(s: _Symbols) -> VectorField:
    """The symbolic base point (x, y), in the pair form the symmetries act on."""
    return VectorField(*coordinate_elements(s.ring, s.ring.base_dim))


def _ring_map(h: _Symmetry, s: _Symbols):
    """phi_h, the ring automorphism of s.ring that gives the image under h of
    every symbolic object of s, the point (x, y) included, when applied to
    its coefficients; each variable goes to plus or minus a variable."""
    objects = (_point(s), s.X, s.Y, s.W, s.Z1, s.Z2, s.T1, s.T2)
    return s.ring.permutation(
        pair for o in objects for pair in zip(o.components(), h(o).components())
    )


def _single(e: AlgebraElement, i: int) -> AlgebraElement:
    """e with every coefficient but the i-th set to 0."""
    return AlgebraElement(tuple(c if k == i else 0 for k, c in enumerate(e.coeffs)), e.dim)


def _representatives(s: _Symbols):
    """Single-variable sections of s whose orbits under g and kappa span the
    fibres: (u0 e_0, 0), (u1 e_1, 0) of E_0 and (mu1, 0, 0), (0, a0 e_0, 0),
    (0, a1 e_1, 0) of E_-1, as the pair (E_0 list, E_-1 list)."""
    z = AlgebraElement.zero(s.ring.base_dim)
    return (
        [E0Section(_single(s.X.u, i), z) for i in (0, 1)],
        [Sec1(s.Z1.mu, z, 0), *(Sec1(0, _single(s.Z1.a, i), 0) for i in (0, 1))],
    )


def _commutes(s: _Symbols, maps, brackets) -> bool:
    """The equivariance premise under g and kappa (SYMMETRIES), exact.

    - g preserves the octonion table and its powers move e_1 through
      +-e_1 .. +-e_7; kappa is an involution.
    - _weight and _rho, and every (map, section) of ``maps``, commute with
      each h on symbolic constant sections: map(h s, h x, h y) = h map(s, x, y).
    - Every value in ``brackets``, a bracket of symbolic constant sections
      of s, commutes with each h: phi_h(B) = h B, compared through the ring
      map _ring_map.  phi_h(B) is the bracket of the images at the image of
      the point, since a bracket of constant sections is a polynomial in
      their coefficients and the point.
    - vf_apply commutes with each h on a symbolic constant field V and a
      generic affine f: phi_h((hV)(f)) = phi_h(V)(phi_h(f)), the chain rule.
      X(f) at a point is bilinear in the value of X and the differential of
      f there, an operator of order 1, so this covers every field and every
      function.
    """
    ring, point = s.ring, _point(s)
    x, y = point.u, point.v
    maps = [(_weight, s.X), (_rho, s.X), *maps]
    values = [m(sec, x, y) for m, sec in maps]
    V = VectorField(s.X.u, s.X.v)
    f = s.T1.t + x.inner(s.W.u) + y.inner(s.W.v)
    g, kappa = SYMMETRIES
    sign, index = mult_table(8)
    orbit = [AlgebraElement.basis(8, 1)]
    for _ in range(6):
        orbit.append(g.octonion(orbit[-1]))
    if not (
        # g(e_i e_j) = g(e_i) g(e_j) on every basis pair, read off the table
        all(
            g.images[index[i][j]] == (sign[i][j] * si * sj * sign[a][b], index[a][b])
            for i, (si, a) in enumerate(g.images)
            for j, (sj, b) in enumerate(g.images)
        )
        and sorted(i for e in orbit for i, c in enumerate(e.coeffs) if c) == list(range(1, 8))
        and all(kappa(kappa(o)) == o for o in (point, s.X, s.Z1, s.T1))
    ):
        return False
    for h in SYMMETRIES:
        phi, image = _ring_map(h, s), h(point)
        if not (
            all(m(h(sec), image.u, image.v) == h(v) for (m, sec), v in zip(maps, values))
            and all(b.map(phi) == h(b) for b in brackets)
            and phi(vf_apply(h(V), f, ring)) == vf_apply(V.map(phi), phi(f), ring)
        ):
            return False
    return True


def _equivariance(s: _Symbols) -> bool:
    """The premise of the reduced rows of SYMBOLIC_CHECKS: g and kappa commute
    with _weight, _rho, vf_apply and bracket_e0 (_commutes)."""
    return _commutes(s, [], [bracket_e0(s.X, s.Y, s.ring)])


def _antisymmetry_zero(s: _Symbols) -> bool:
    """[X, Y] + [Y, X] = 0, the claim of lie3.antisymmetry_0_0 (CITES):
    lie3.bracket is bracket_e0 on degrees (0, 0), so its residual is this one."""
    return (bracket_e0(s.X, s.Y, s.ring) + bracket_e0(s.Y, s.X, s.ring)).is_zero()


def _jacobi_zero(s: _Symbols) -> bool:
    """[s1,[s2,s3]] + [s2,[s3,s1]] + [s3,[s1,s2]] = 0, the claim of
    lie3.jacobi_0_0_0 (CITES): on degrees (0,0,0) every sign of
    lie3.jacobiator is + and lie3.bracket is bracket_e0, so its residual is
    this one.  Proved with s1 at each E_0 representative, given _equivariance
    (see prove_rows)."""
    ring, Y, W = s.ring, s.Y, s.W
    return s.holds(_equivariance) and all(
        (
            bracket_e0(X, bracket_e0(Y, W, ring), ring)
            + bracket_e0(Y, bracket_e0(W, X, ring), ring)
            + bracket_e0(W, bracket_e0(X, Y, ring), ring)
        ).is_zero()
        for X in _representatives(s)[0]
    )


def _anchor_morphism_zero(s: _Symbols) -> bool:
    """[rho(s1), rho(s2)] = rho([s1, s2]), proved with s1 at each E_0
    representative, given _equivariance (see prove_rows)."""
    ring = s.ring
    rho_Y = anchor(s.Y, ring)
    return s.holds(_equivariance) and all(
        (vf_commutator(anchor(X, ring), rho_Y, ring) - anchor(bracket_e0(X, s.Y, ring), ring)).is_zero()
        for X in _representatives(s)[0]
    )


def _tangent_zero(s: _Symbols) -> bool:
    """J(rho(X)) = 0, the claim of foliation.anchor_image_tangent (CITES),
    which computes this residual of the same sections with the same maps."""
    from .foliation import is_tangent_symbolic

    X = anchor(s.X, s.ring)
    return is_tangent_symbolic(X.u, X.v, s.ring)


def _leibniz_zero(s: _Symbols) -> bool:
    # [s, f s] = (rho(s) f) s for constant s and a sample function
    ring, s1, dim = s.ring, s.X, s.ring.base_dim
    f = ring.x(0) * ring.y(min(1, dim - 1)) + ring.x(dim - 1)
    lhs = bracket_e0(s1, s1.scale(f), ring)
    rhs = s1.scale(vf_apply(anchor(s1, ring), f, ring))
    return (lhs - rhs).is_zero()


def _vanishes_at_origin(s: _Symbols) -> bool:
    return all(c.vanishes_at_base_origin() for c in anchor(s.X, s.ring).components())


# The checks of the algebroid_symbolic report in order: (name, law, proof),
# where proof takes the symbolic sections and returns the pass flag.
SYMBOLIC_CHECKS = (
    ("antisymmetry", "[s1, s2] + [s2, s1] = 0", _antisymmetry_zero),
    ("jacobi", "[s1,[s2,s3]] + [s2,[s3,s1]] + [s3,[s1,s2]] = 0", _jacobi_zero),
    ("anchor_morphism", "[rho(s1), rho(s2)] = rho([s1, s2])", _anchor_morphism_zero),
    ("anchor_image_in_kernel", "J(rho(s)) = 0 for symbolic constant s", _tangent_zero),
    ("leibniz_rule", "[s, f s] = (rho(s) . f) s", _leibniz_zero),
    ("anchor_vanishes_at_origin", "rho(s)|_(0,0) = 0", _vanishes_at_origin),
)


# The one table of cites: the rows whose claim a check of another suite
# proves too, with that check.  A call that runs the source's suite cites it
# (cli._units); others prove it.
CITES = {
    "antisymmetry": "lie3.antisymmetry_0_0",
    "jacobi": "lie3.jacobi_0_0_0",
    "anchor_image_in_kernel": "foliation.anchor_image_tangent",
}


def prove_rows(report: str, rows) -> VerificationReport:
    """The report named ``report`` of (name, law, proof) rows at dimension 8.

    Each proof takes _sym_sections(8), every section component an
    indeterminate, so a residual must cancel coefficient-wise and a pass
    covers every section, not a sample.  ``rows`` is SYMBOLIC_CHECKS or
    lie3.CHECKS, or a part of one so that the proofs can be split across
    processes; a row may name a cited check in place of its proof
    (VerificationReport.add_rows).

    Four rows, jacobi and anchor_morphism here and lie3.jacobi_0_0_0 and
    lie3.jacobi_0_0_m1, prove their identity T = 0 with one argument fixed
    to each representative of _representatives and the others symbolic;
    the verdict is the conjunction of those proofs and the module's
    equivariance premise (_equivariance here, lie3._equivariance there),
    which the call proves once on its sections (_Symbols.holds).  The
    argument:

    - Linearity.  On constant sections T is R-linear in each argument:
      every bracket of constant sections is R-bilinear, and a Leibniz
      correction applies rho of a constant section, linear in it, to
      coefficients that are linear in the other arguments.
    - Equivariance.  h in SYMMETRIES acts on a section A by (hA)(p) =
      h A(h^-1 p), on a field by pushing it forward and on a function by
      f o h^-1.  The premise (_commutes) proves, on symbolic constant
      sections, that rho and each bracket the identity uses commute with
      h, and that (hV)(hf) = h(V f) for every field V and function f.  The
      package computes a bracket of non-constant sections as the
      constant-section formula applied to the coefficient values at each
      point, which commutes with h point by point, plus Leibniz corrections
      rho(s)(c) of a coefficient c, which commute with h by the premises on
      rho and vf_apply; rho of a non-constant section is pointwise too, and
      the commutator of fields is built from vf_apply.  So each Jacobiator
      term and the anchor-morphism residual satisfy T(hs1, hs2, ...) =
      h T(s1, s2, ...).
    - Orbits.  If T(r, s2, ...) = 0 for a representative r and symbolic
      s2, ..., then T(hr, s2, ...) = h T(r, h^-1 s2, ...) = 0: T vanishes
      on the orbit of r under the group g and kappa generate, and by
      linearity on the span of the orbits.  g fixes e_0 and its powers
      move e_1 through +-e_1 .. +-e_7, which the premise checks, so the
      orbits of (e_0, 0) and (e_1, 0) span O + 0 and kappa carries it to
      0 + O; those of (0, e_0, 0) and (0, e_1, 0) span the a slot of E_-1,
      and kappa sends (1, 0, 0) to (0, 0, 1).  So T = 0 on every constant
      section, which is what the full symbolic proof gave.

    A representative is a single-variable section of _sym_sections, such
    as (u1 e_1, 0): T is linear in its one variable, so its proof is the
    proof at the basis section.
    """
    with timed_report(report, {"dim": 8}) as out:
        out.add_rows(rows, _sym_sections(8))
    return out


# -- groupoid consistency ------------------------------------------------------


def _section_part(e: AlgebraElement, degree: int) -> AlgebraElement:
    return AlgebraElement(tuple(c.section_degree_part(degree) for c in e.coeffs), e.dim)


def verify_groupoid_consistency(dim: int = 8) -> VerificationReport:
    """Prove that the algebroid is the Lie algebroid of the groupoid.

    With the section (u, v) symbolic, the arrow (tau u, tau v, x, y) has
    target _shift(tau u, tau v, x, y) / lambda in the x block (and the swap
    in the y block), where lambda^2 = rescale_sq.  Splitting each map by its
    degree in the section variables gives the tau-expansion: with sq_0 = 1,
    lambda(0) = 1 and lambda'(0) = sq_1 / 2, so the target's derivative at
    the unit is shift_1 - shift_0 lambda'(0).  Each identity below holds
    coefficient-wise, so it covers every section and base point.
    """
    with timed_report("algebroid_vs_groupoid", {"dim": dim}) as report:
        sym = _sym_sections(dim)
        s, (x, y) = sym.X, coordinate_elements(sym.ring, dim)
        sq = groupoid.rescale_sq(groupoid.Arrow(s.u, s.v, x, y))
        lam1 = sq.section_degree_part(1) / 2
        derivative = VectorField(
            *(
                _section_part(shift, 1) - _section_part(shift, 0).scale(lam1)
                for shift in (groupoid._shift(s.u, s.v, x, y), groupoid._shift(s.v, s.u, y, x))
            )
        )
        report.add(
            "target_derivative_is_anchor",
            "d/dtau t(tau u, tau v, x, y)|_0 = rho(u, v)|_(x,y) as polynomials",
            (derivative - _rho(s, x, y)).is_zero(),
        )
        report.add(
            "lambda_derivative",
            "lambda(0) = 1 and d/dtau lambda|_0 = c(u, v): x^i along F_i, y^i along G_i",
            sq.section_degree_part(0) == 1 and lam1 == _weight(s, x, y),
        )
        report.add(
            "origin_is_fixed",
            "at (0,0) the target derivative vanishes",
            all(c.vanishes_at_base_origin() for c in derivative.components()),
        )
    return report
