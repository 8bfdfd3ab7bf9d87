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
central finite differences of the target map along arrow directions
reproduce the anchor, and the derivative of the rescaling function along
the F_i direction is x^i.

The weight c and the anchor are each written once, as functions of a
section and a base point (x, y) whose coefficients may be exact numbers,
floats or polynomials.  The symbolic forms pass the coordinate elements of a
polynomial ring as the point; the numeric checks pass numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import groupoid
from .algebra import AlgebraElement, coordinate_elements, vector_names, vector_symbol
from .polyring import PolyRing, Polynomial
from .report import VerificationReport, derived_rng, timed_report


@dataclass(frozen=True)
class E0Section:
    """Section of the algebroid bundle: an O-valued pair (u, v)."""

    u: AlgebraElement
    v: AlgebraElement

    @property
    def dim(self):
        return self.u.dim

    def __add__(self, other):
        return E0Section(self.u + other.u, self.v + other.v)

    def __sub__(self, other):
        return E0Section(self.u - other.u, self.v - other.v)

    def __neg__(self):
        return E0Section(-self.u, -self.v)

    def scale(self, f):
        return E0Section(self.u.scale(f), self.v.scale(f))

    def components(self):
        return (*self.u.coeffs, *self.v.coeffs)

    def is_zero(self):
        return self.u.is_zero() and self.v.is_zero()


@dataclass(frozen=True)
class VectorField:
    """Vector field on D^2 in the (d/dx, d/dy) block form, components polynomial."""

    u: AlgebraElement
    v: AlgebraElement

    def components(self):
        return (*self.u.coeffs, *self.v.coeffs)

    def __sub__(self, other):
        return VectorField(self.u - other.u, self.v - other.v)

    def is_zero(self):
        return self.u.is_zero() and self.v.is_zero()


def constant_section(dim: int, i: int, slot: int) -> E0Section:
    """Basis section: (e_i, 0) for slot 0, (0, e_i) for slot 1."""
    e = AlgebraElement.basis(dim, i)
    z = AlgebraElement.zero(dim)
    return E0Section(e, z) if slot == 0 else E0Section(z, e)


def _e0_basis(dim: int):
    """The basis sections (e_0, 0)..(e_{n-1}, 0), (0, e_0)..(0, e_{n-1}) in order."""
    z = AlgebraElement.zero(dim)
    es = [AlgebraElement.basis(dim, i) for i in range(dim)]
    return [E0Section(e, z) for e in es] + [E0Section(z, e) for e in es]


def lift(sec: E0Section, ring: PolyRing) -> E0Section:
    """Coerce numeric coefficients into the polynomial ring."""

    def lift_elem(e):
        coeffs = tuple(
            c if isinstance(c, Polynomial) else ring.const(c) for c in e.coeffs
        )
        return AlgebraElement(coeffs, e.dim)

    return E0Section(lift_elem(sec.u), lift_elem(sec.v))


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


def section_weight(sec: E0Section, ring: PolyRing) -> Polynomial:
    """c(u, v), the scalar that drives the bracket, with symbolic base point."""
    return _weight(lift(sec, ring), *coordinate_elements(ring, sec.dim))


def anchor(sec: E0Section, ring: PolyRing) -> VectorField:
    """The anchor field of a section, with symbolic base point."""
    return _rho(lift(sec, ring), *coordinate_elements(ring, sec.dim))


def vf_apply(X: VectorField, f: Polynomial, ring: PolyRing) -> Polynomial:
    """X acting on a function as a derivation."""
    names = [v.name for v in ring.variables[: 2 * ring.base_dim]]
    out = ring.zero
    for comp, name in zip(X.components(), names):
        if comp:
            out = out + comp * f.derive(name)
    return out


def _derive_section(X: VectorField, sec: E0Section, ring: PolyRing) -> E0Section:
    """Apply X to every polynomial coefficient of a section."""

    def derive_elem(e):
        return AlgebraElement(tuple(vf_apply(X, c, ring) for c in e.coeffs), e.dim)

    s = lift(sec, ring)
    return E0Section(derive_elem(s.u), derive_elem(s.v))


def _section_constant(sec) -> bool:
    """No component of a graded section depends on the base point."""
    return not any(isinstance(c, Polynomial) and c.depends_on_base() for c in sec.components())


def vf_commutator(X: VectorField, Y: VectorField, ring: PolyRing) -> VectorField:
    """[X, Y]_k = sum_j (X_j d_j Y_k - Y_j d_j X_k)."""
    names = [v.name for v in ring.variables[: 2 * ring.base_dim]]
    xc, yc = X.components(), Y.components()
    out = []
    for k in range(len(names)):
        acc = ring.zero
        for j, name in enumerate(names):
            if xc[j]:
                acc = acc + xc[j] * yc[k].derive(name)
            if yc[j]:
                acc = acc - yc[j] * xc[k].derive(name)
        out.append(acc)
    dim = X.u.dim
    return VectorField(
        AlgebraElement(tuple(out[:dim]), dim), AlgebraElement(tuple(out[dim:]), dim)
    )


def bracket_e0(s1: E0Section, s2: E0Section, ring: PolyRing) -> E0Section:
    """Algebroid bracket; Leibniz corrections activate on non-constant input."""
    a, b = lift(s1, ring), lift(s2, ring)
    c1 = section_weight(a, ring)
    c2 = section_weight(b, ring)
    out = b.scale(c1) - a.scale(c2)
    if not _section_constant(b):
        out = out + _derive_section(anchor(a, ring), b, ring)
    if not _section_constant(a):
        out = out - _derive_section(anchor(b, ring), a, ring)
    return out


# -- symbolic suite ----------------------------------------------------------


def verify_algebroid_symbolic(dim: int = 8) -> VerificationReport:
    """Exact bracket/anchor facts, all section components symbolic."""
    from .foliation import is_tangent_symbolic

    with timed_report("algebroid_symbolic", {"dim": dim}) as report:
        names = []
        for prefix in ("u", "v", "p", "q", "r", "s"):
            names += vector_names(prefix, dim)
        ring = PolyRing(dim, names)
        s1 = E0Section(vector_symbol(ring, "u", dim), vector_symbol(ring, "v", dim))
        s2 = E0Section(vector_symbol(ring, "p", dim), vector_symbol(ring, "q", dim))
        s3 = E0Section(vector_symbol(ring, "r", dim), vector_symbol(ring, "s", dim))

        report.add(
            "antisymmetry",
            "[s1, s2] + [s2, s1] = 0",
            (bracket_e0(s1, s2, ring) + bracket_e0(s2, s1, ring)).is_zero(),
        )
        jac = (
            bracket_e0(s1, bracket_e0(s2, s3, ring), ring)
            + bracket_e0(s2, bracket_e0(s3, s1, ring), ring)
            + bracket_e0(s3, bracket_e0(s1, s2, ring), ring)
        )
        report.add("jacobi", "[s1,[s2,s3]] + [s2,[s3,s1]] + [s3,[s1,s2]] = 0", jac.is_zero())
        morph = vf_commutator(anchor(s1, ring), anchor(s2, ring), ring) - anchor(
            bracket_e0(s1, s2, ring), ring
        )
        report.add(
            "anchor_morphism",
            "[rho(s1), rho(s2)] = rho([s1, s2])",
            morph.is_zero(),
        )
        X1 = anchor(s1, ring)
        report.add(
            "anchor_image_in_kernel",
            "J(rho(s)) = 0 for symbolic constant s",
            is_tangent_symbolic(X1.u, X1.v, ring),
        )
        # Leibniz: [s, f s] = (rho(s) f) s for constant s and a sample function
        f = ring.x(0) * ring.y(min(1, dim - 1)) + ring.x(dim - 1)
        lhs = bracket_e0(s1, lift(s1, ring).scale(f), ring)
        rhs = lift(s1, ring).scale(vf_apply(anchor(s1, ring), f, ring))
        report.add(
            "leibniz_rule",
            "[s, f s] = (rho(s) . f) s",
            (lhs - rhs).is_zero(),
        )
        # anchor vanishes at the origin
        origin = {v.name: 0 for v in ring.variables[: 2 * dim]}
        at0 = [c.substitute(origin) for c in X1.components()]
        report.add(
            "anchor_vanishes_at_origin",
            "rho(s)|_(0,0) = 0",
            all(c.is_zero() for c in at0),
        )
    return report


# -- groupoid consistency (finite differences) --------------------------------


def _target_state(F, G, x, y):
    t = groupoid.target(groupoid.Arrow(F, G, x, y))
    return np.array([*[float(c) for c in t.x.coeffs], *[float(c) for c in t.y.coeffs]])


def _central_difference(x, y, i, slot, h, dim):
    z = AlgebraElement.zero(dim)
    e = AlgebraElement.basis(dim, i, h)
    if slot == 0:
        plus, minus = _target_state(e, z, x, y), _target_state(-e, z, x, y)
    else:
        plus, minus = _target_state(z, e, x, y), _target_state(z, -e, x, y)
    return (plus - minus) / (2.0 * h)


def verify_groupoid_consistency(samples: int, seed: int, tol: float, dim: int = 8) -> VerificationReport:
    """Finite differences of the groupoid target against the anchor."""
    with timed_report(
        "algebroid_vs_groupoid", {"dim": dim, "samples": samples, "seed": seed, "tol": tol}
    ) as report:
        anchor_law = report.law(
            "target_derivative_is_anchor",
            "d/dtau t(tau e_i, 0, x, y)|_0 = rho(e_i, 0)|_(x,y) (and the G slot)",
            tol,
        )
        lambda_law = report.law(
            "lambda_derivative",
            "d/dtau lambda|_0 = x^i along F directions, y^i along G directions",
            tol,
        )
        rng = derived_rng(seed, 0)
        for _ in range(samples):
            x = AlgebraElement(tuple(rng.normal(0.0, 0.7, dim)), dim)
            y = AlgebraElement(tuple(rng.normal(0.0, 0.7, dim)), dim)
            scale = 1.0 + math.sqrt(float(x.norm_sq() + y.norm_sq()))
            h = 1e-5 * scale
            i = int(rng.integers(0, dim))
            slot = int(rng.integers(0, 2))
            z = AlgebraElement.zero(dim)
            expected = _rho(constant_section(dim, i, slot), x, y)
            expected_vec = np.array([float(c) for c in expected.components()])
            diff = _central_difference(x, y, i, slot, h, dim)
            res = float(np.max(np.abs(diff - expected_vec)))
            if res > tol:
                # Richardson extrapolation before judging
                fine = _central_difference(x, y, i, slot, h / 2.0, dim)
                diff = (4.0 * fine - diff) / 3.0
                res = float(np.max(np.abs(diff - expected_vec)))
            anchor_law.record(res)

            # derivative of lambda along the same curve
            he = AlgebraElement.basis(dim, i, h)
            if slot == 0:
                lp = groupoid.rescale(groupoid.Arrow(he, z, x, y))
                lm = groupoid.rescale(groupoid.Arrow(-he, z, x, y))
                coord = float(x.coeffs[i])
            else:
                lp = groupoid.rescale(groupoid.Arrow(z, he, x, y))
                lm = groupoid.rescale(groupoid.Arrow(z, -he, x, y))
                coord = float(y.coeffs[i])
            lambda_law.record(abs((lp - lm) / (2.0 * h) - coord))
        # both sides vanish at the origin
        z = AlgebraElement.zero(dim)
        a0 = _rho(constant_section(dim, 0, 0), z, z)
        d0 = _central_difference(z, z, 0, 0, 1e-5, dim)
        report.add(
            "origin_is_fixed",
            "at (0,0) the target derivative and the anchor both vanish",
            float(np.max(np.abs(d0))) <= tol and a0.is_zero(),
        )
    return report

