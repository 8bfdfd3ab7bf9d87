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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import groupoid
from .algebra import AlgebraElement, coordinate_elements, vector_names, vector_symbol
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
    ring: PolyRing
    X: E0Section
    Y: E0Section
    W: E0Section
    Z1: Sec1
    Z2: Sec1
    T1: Sec2
    T2: Sec2


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
    )


def _antisymmetry_zero(s: _Symbols) -> bool:
    """[X, Y] + [Y, X] = 0, the claim of lie3.antisymmetry_0_0 (CITES):
    lie3.bracket is bracket_e0 on degrees (0, 0), so its residual is this one."""
    return (bracket_e0(s.X, s.Y, s.ring) + bracket_e0(s.Y, s.X, s.ring)).is_zero()


def _jacobi_zero(s: _Symbols) -> bool:
    """[X,[Y,W]] + [Y,[W,X]] + [W,[X,Y]] = 0, the claim of lie3.jacobi_0_0_0
    (CITES): on degrees (0,0,0) every sign of lie3.jacobiator is + and
    lie3.bracket is bracket_e0, so its residual is this one."""
    ring, X, Y, W = s.ring, s.X, s.Y, s.W
    jac = (
        bracket_e0(X, bracket_e0(Y, W, ring), ring)
        + bracket_e0(Y, bracket_e0(W, X, ring), ring)
        + bracket_e0(W, bracket_e0(X, Y, ring), ring)
    )
    return jac.is_zero()


def _anchor_morphism_zero(s: _Symbols) -> bool:
    ring = s.ring
    morph = vf_commutator(anchor(s.X, ring), anchor(s.Y, ring), ring) - anchor(
        bracket_e0(s.X, s.Y, ring), ring
    )
    return morph.is_zero()


def _tangent_zero(s: _Symbols) -> bool:
    """J(rho(X)) = 0, the claim of foliation.anchor_image_tangent (CITES),
    which runs this function."""
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
