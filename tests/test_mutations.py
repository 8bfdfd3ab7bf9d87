"""Every check of the algebra, leaf, groupoid, algebroid and lie3 suites can
FAIL, and every term of the tangency map J is seen by some check.

A PASS is vacuous if no plausible fault turns it into a FAIL: a row of
algebra.IDENTITIES whose residual cancels by construction reports
nonzero_components 0 exactly like a proof, and byte-identical reports cannot
tell the two apart.  MUTATIONS are such faults, monkeypatches of a product
table, conjugation, the pairing, the associator, the commutator, the inverse,
the leaf label, the tangency map, lambda^2, the unit, the phi numerator, phi,
the G2 automorphism matrix, the anchor, the weight, the brackets, the
differentials, the shift or a sampler.  A fault of a map that lie3 imports
under its own name patches both names, as a fault in the one definition
would.  KILLS maps every check that ``verify --suite algebra``, ``verify
--suite leaves``, ``verify --suite groupoid``, ``verify --suite algebroid`` or
``verify --suite lie3`` emits, at any of its dims, to one mutation and a dim
at which that mutation FAILs the check; a check emitted at dim 8 is killed at
dim 8.  Checks run on the exact backend, except those of FLOAT_ONLY reports,
which ``--backend exact`` leaves out.  UNCOVERED lists the checks that no
mutation FAILs yet, each with its reason.

The reduced Jacobi and anchor-morphism rows rest on an equivariance premise
under the symmetries g and kappa (algebroid._commutes): a fault that breaks
only one of them FAILs the premise and all four rows.

The dual, TANGENCY_TERMS: each single-term mutant of foliation._tangency,
with the checks of the single reports that read J that it FAILs at dim 8.
"""

import pytest

from ohopf import algebra, algebroid, foliation, groupoid, leaves, lie3
from ohopf.algebra import AlgebraElement, coordinate_elements
from ohopf.algebroid import E0Section, Sec1, Sec2, _sym_sections, degree, prove_rows
from ohopf.cli import SUITE_DIMS, run_suite
from ohopf.leaves import LeafId, PointD2

TOL = 1e-9
# report -> the suite that emits it
SUITE_OF = {
    "algebra": "algebra",
    "counterexample": "algebra",
    "leaves": "leaves",
    "groupoid": "groupoid",
    "phi_morphism": "groupoid",
    "g2": "groupoid",
    "algebroid_symbolic": "algebroid",
    "algebroid_vs_groupoid": "algebroid",
    "lie3": "lie3",
    "tangency_matrix": "lie3",
    "generic_ranks": "lie3",
}
# the reports that only the float backend runs
FLOAT_ONLY = {"g2"}


def _backend(name):
    return "float" if name.split(".")[0] in FLOAT_ONLY else "exact"


def _verdicts(suite, dim, backend="exact"):
    """Check name -> pass flag of the reports of ``suite`` at dim, seed 101."""
    return {r.suite + "." + c.name: c.passed for r in run_suite(suite, dim, 101, 8, TOL, backend) for c in r.checks}


def _sign_flip(dim, i, j):
    """Flip the sign of e_i e_j in the product table of dim; at dim 8 in the
    oriented-triple table, which table_cross_check compares with the doubling."""
    sign, index = algebra.mult_table(dim)
    sign = [list(row) for row in sign]
    sign[i][j] = -sign[i][j]
    table = tuple(map(tuple, sign)), index
    if dim == 8:
        return [(algebra, "octonion_table", lambda: table)]
    original = algebra.mult_table
    return [(algebra, "mult_table", lambda d: table if d == dim else original(d))]


_INNER = AlgebraElement.inner
_SAMPLER = algebra.random_rational_element


def _conjugate_keeping_last_sign(a):
    c = a.coeffs
    return AlgebraElement((c[0],) + tuple(-v for v in c[1:-1]) + c[-1:], a.dim)


def _inner_dropping_last_term(a, b):
    return _INNER(AlgebraElement(a.coeffs[:-1] + (0,), a.dim), b)


def _real_sampler(rng, dim, num=3, den=2):
    # the real part only: reals multiply their norms, so no witness exists
    real = _SAMPLER(rng, dim, num, den).coeffs[0]
    return AlgebraElement((real,) + (0,) * (dim - 1), dim)


_CLASSIFY = leaves.classify
_SAMPLE_LEAF = leaves.sample_leaf
_RESCALE_SQ = groupoid.rescale_sq


def _classify_doubling_pi2(p):
    pi = _CLASSIFY(p)
    return LeafId(pi.a, pi.b.scale(2), pi.c)


def _sample_leaf_off_its_sphere(leaf, n, seed):
    return PointD2(*(e.scale(1.01) for e in _SAMPLE_LEAF(leaf, n, seed)))


def _tangency_reversing_a_product(u, v, x, y):
    # conj(y) u for u conj(y): equal only where the product commutes
    return x.inner(u), y.conjugate() * u + x * v.conjugate(), y.inner(v)


def _unit_carrying_x(p):
    return groupoid.Arrow(p.x, AlgebraElement.zero(p.x.dim), p.x, p.y)


def _phi_numerator_negating_G(g):
    return AlgebraElement.one(g.dim) + g.x.conjugate() * g.F - g.y.conjugate() * g.G


_G2_FROM_TRIPLE = groupoid.g2_from_basic_triple


def _g2_with_matrix(change):
    """g2_from_basic_triple with change(matrix) applied to every matrix it builds."""

    def g2(*triple, tol=1e-8):
        matrix = _G2_FROM_TRIPLE(*triple, tol=tol).matrix.copy()
        change(matrix)
        return groupoid.G2Automorphism(matrix)

    return g2


def _swap_columns_e3_e5(matrix):
    matrix[..., [3, 5]] = matrix[..., [5, 3]]


def _double_column_e7(matrix):
    matrix[..., 7] *= 2


# the faults below are factories of the faulty map from its original, so the
# unit tests of algebroid, lie3 and the runner apply them to their own maps


def _extra_rho_term(original):
    def rho(sec, x, y):
        X = original(sec, x, y)
        return algebroid.VectorField(X.u + x.scale(x.inner(sec.u) * y.inner(sec.v)), X.v)

    return rho


def _extra_weight_term(original):
    return lambda sec, x, y: original(sec, x, y) + x.inner(sec.v)


def _doubled_rho_v_part(original):
    # (x conj(y)) v counted twice; linear in the section, so the basis-column
    # matrices see it, unlike the quadratic _extra_rho_term
    def rho(sec, x, y):
        X = original(sec, x, y)
        return algebroid.VectorField(X.u + (x * y.conjugate()) * sec.v, X.v)

    return rho


def _rho_with_constant_u(original):
    # rho + (u, 0): the section itself survives at the origin
    def rho(sec, x, y):
        X = original(sec, x, y)
        return algebroid.VectorField(X.u + sec.u, X.v)

    return rho


def _shift_with_constant_F(original):
    # the target's x block moves by F even where x = y = 0
    return lambda F, G, x, y: original(F, G, x, y) + F


def _bracket_with_extra_weight(original):
    # [s1, s2] + <x, v1> s2 - <x, v2> s1: antisymmetric, but no longer matched to the anchor
    def bracket_e0(s1, s2, ring):
        x, _ = coordinate_elements(ring, s1.dim)
        return original(s1, s2, ring) + s2.scale(x.inner(s1.v)) - s1.scale(x.inner(s2.v))

    return bracket_e0


def _bracket_with_symmetric_weight(original):
    # c(s1) s2 + c(s2) s1: the sign of the second weight term flipped
    def bracket_e0(s1, s2, ring):
        x, y = coordinate_elements(ring, s1.dim)
        return original(s1, s2, ring) + s1.scale(2 * algebroid._weight(s2, x, y))

    return bracket_e0


def _bracket_with_flipped_second_leibniz(original):
    # - rho(s1)(s2) in place of + rho(s1)(s2) when s2 is not constant
    def bracket_e0(s1, s2, ring):
        out = original(s1, s2, ring)
        if algebroid._section_constant(s2):
            return out
        X = algebroid.anchor(s1, ring)
        return out - s2.map(lambda c: algebroid.vf_apply(X, c, ring)).scale(2)

    return bracket_e0


def _rho_with_fixed_coordinate_term(original):
    # rho + (x_1^2 u, y_1^2 v): kappa swaps the two terms, but g moves e_1
    def rho(sec, x, y):
        X = original(sec, x, y)
        return algebroid.VectorField(
            X.u + sec.u.scale(x.coeffs[1] * x.coeffs[1]), X.v + sec.v.scale(y.coeffs[1] * y.coeffs[1])
        )

    return rho


def _merged_rho_columns(original):
    # (e_1, 0) is sent to the field of (e_0, 0): two basis fields coincide
    def rho(sec, x, y):
        c = sec.u.coeffs
        return original(E0Section(AlgebraElement((c[0] + c[1], 0) + c[2:]), sec.v), x, y)

    return rho


def _d1_with_constant_term(original):
    # d1 + (a, 0) no longer vanishes at the origin
    return lambda s, x, y: original(s, x, y) + E0Section(s.a, AlgebraElement.zero(s.a.dim))


def _d2_with_constant_mu(original):
    # d2 + (t, 0, 0)
    def d2(s, x, y):
        out = original(s, x, y)
        return Sec1(out.mu + s.t, out.a, out.nu)

    return d2


def _bracket_unsigned_reversed(pair):
    """[z, x] = [x, z] for the reversed degree pair, (-1,0) or (-2,0), in
    place of -[x, z]."""

    def mutate(original):
        def bracket(s1, s2, ring):
            if (degree(s1), degree(s2)) == pair:
                return original(s2, s1, ring)
            return original(s1, s2, ring)

        return bracket

    return mutate


def _bracket_nonzero_by_degree(original):
    # a nonzero bracket for the degree pairs (-1,-2), (-2,-1), (-2,-2)
    def bracket(s1, s2, ring):
        if (degree(s1), degree(s2)) in ((-1, -2), (-2, -1), (-2, -2)):
            return Sec2(ring.one)
        return original(s1, s2, ring)

    return bracket


def _bracket_m1_m1_without_a_term(original):
    # 4<a,a'> - 2 mu nu' on degrees (-1,-1): the term - 2 mu' nu dropped, no longer symmetric
    def bracket(s1, s2, ring):
        if (degree(s1), degree(s2)) == (-1, -1):
            return Sec2(4 * s1.a.inner(s2.a) - 2 * s1.mu * s2.nu)
        return original(s1, s2, ring)

    return bracket


def _tangency_dropping_x_u(u, v, x, y):
    return x.inner(u) - x.inner(u), u * y.conjugate() + x * v.conjugate(), y.inner(v)


def _tangency_dropping_y_v(u, v, x, y):
    return x.inner(u), u * y.conjugate() + x * v.conjugate(), y.inner(v) - y.inner(v)


def _in_both(name, fault):
    """The monkeypatches of a fault of algebroid's map ``name``, which lie3
    binds under its own name too."""
    mutated = fault(getattr(algebroid, name))
    return [(algebroid, name, mutated), (lie3, name, mutated)]


# name -> the (owner, attribute, replacement) monkeypatches of one fault
MUTATIONS = {
    "octonion_e1e2_sign": _sign_flip(8, 1, 2),
    "octonion_e0e1_sign": _sign_flip(8, 0, 1),
    "octonion_e1e5_sign": _sign_flip(8, 1, 5),
    "octonion_e2e5_sign": _sign_flip(8, 2, 5),
    "quaternion_e1e2_sign": _sign_flip(4, 1, 2),
    "complex_e0e1_sign": _sign_flip(2, 0, 1),
    "conjugate_keeps_last_sign": [(AlgebraElement, "conjugate", _conjugate_keeping_last_sign)],
    "inner_drops_last_term": [(AlgebraElement, "inner", _inner_dropping_last_term)],
    "associator_zero": [(algebra, "associator", lambda a, b, c: AlgebraElement.zero(a.dim))],
    "commutator_zero": [(algebra, "commutator", lambda a, b: AlgebraElement.zero(a.dim))],
    "inverse_is_conjugate": [(AlgebraElement, "inverse", AlgebraElement.conjugate)],
    "real_sampler": [(algebra, "random_rational_element", _real_sampler)],
    "classify_doubles_pi2": [(leaves, "classify", _classify_doubling_pi2)],
    "sample_leaf_off_its_sphere": [(leaves, "sample_leaf", _sample_leaf_off_its_sphere)],
    "tangency_reverses_a_product": [(foliation, "_tangency", _tangency_reversing_a_product)],
    "rescale_sq_plus_x_norm": [(groupoid, "rescale_sq", lambda g: _RESCALE_SQ(g) + g.x.norm_sq())],
    "rescale_sq_plus_F_norm": [(groupoid, "rescale_sq", lambda g: _RESCALE_SQ(g) + g.F.norm_sq())],
    "unit_carries_x": [(groupoid, "unit", _unit_carrying_x)],
    "phi_numerator_negates_G": [(groupoid, "_phi_numerator", _phi_numerator_negating_G)],
    "phi_is_one": [(groupoid, "phi_group_element", lambda g: AlgebraElement.one(g.dim))],
    "g2_swaps_columns_e3_e5": [(groupoid, "g2_from_basic_triple", _g2_with_matrix(_swap_columns_e3_e5))],
    "g2_doubles_column_e7": [(groupoid, "g2_from_basic_triple", _g2_with_matrix(_double_column_e7))],
    "rho_extra_term": _in_both("_rho", _extra_rho_term),
    "rho_doubles_v_part": _in_both("_rho", _doubled_rho_v_part),
    "rho_constant_u": _in_both("_rho", _rho_with_constant_u),
    "rho_fixed_coordinate_term": _in_both("_rho", _rho_with_fixed_coordinate_term),
    "rho_merges_columns": _in_both("_rho", _merged_rho_columns),
    "weight_extra_term": _in_both("_weight", _extra_weight_term),
    "shift_constant_F": [(groupoid, "_shift", _shift_with_constant_F(groupoid._shift))],
    "bracket_extra_weight": _in_both("bracket_e0", _bracket_with_extra_weight),
    "bracket_symmetric_weight": _in_both("bracket_e0", _bracket_with_symmetric_weight),
    "bracket_flips_second_leibniz": _in_both("bracket_e0", _bracket_with_flipped_second_leibniz),
    "bracket_unsigned_m1_0": [(lie3, "bracket", _bracket_unsigned_reversed((-1, 0))(lie3.bracket))],
    "bracket_unsigned_m2_0": [(lie3, "bracket", _bracket_unsigned_reversed((-2, 0))(lie3.bracket))],
    "bracket_nonzero_by_degree": [(lie3, "bracket", _bracket_nonzero_by_degree(lie3.bracket))],
    "bracket_m1_m1_drops_a_term": [(lie3, "bracket", _bracket_m1_m1_without_a_term(lie3.bracket))],
    "d1_constant_a": [(lie3, "_d1", _d1_with_constant_term(lie3._d1))],
    "d2_constant_mu": [(lie3, "_d2", _d2_with_constant_mu(lie3._d2))],
    "tangency_drops_x_u": [(foliation, "_tangency", _tangency_dropping_x_u)],
    "tangency_drops_y_v": [(foliation, "_tangency", _tangency_dropping_y_v)],
}

# check -> (mutation, dim at which it FAILs the check)
KILLS = {
    "algebra.table_cross_check": ("octonion_e1e2_sign", 8),
    "algebra.unit_law": ("octonion_e0e1_sign", 8),
    "algebra.conj_involution_product": ("conjugate_keeps_last_sign", 8),
    "algebra.inner_from_conjugation": ("conjugate_keeps_last_sign", 8),
    "algebra.real_part_pairing": ("conjugate_keeps_last_sign", 8),
    "algebra.conj_antiautomorphism": ("conjugate_keeps_last_sign", 8),
    "algebra.switch_left": ("inner_drops_last_term", 8),
    "algebra.switch_right": ("inner_drops_last_term", 8),
    "algebra.flexible": ("octonion_e1e2_sign", 8),
    "algebra.inverse_left_cleared": ("conjugate_keeps_last_sign", 8),
    "algebra.inverse_right_cleared": ("conjugate_keeps_last_sign", 8),
    "algebra.semi_associativity": ("octonion_e1e2_sign", 8),
    "algebra.semi_associativity_inner": ("inner_drops_last_term", 8),
    "algebra.conjugation_formula": ("inner_drops_last_term", 8),
    "algebra.moufang_middle": ("octonion_e1e2_sign", 8),
    "algebra.moufang_left": ("octonion_e1e2_sign", 8),
    "algebra.moufang_right": ("octonion_e1e2_sign", 8),
    "algebra.associator_alternating": ("octonion_e1e2_sign", 8),
    "algebra.norm_multiplicative": ("inner_drops_last_term", 8),
    "algebra.associativity": ("quaternion_e1e2_sign", 4),
    "algebra.commutativity": ("complex_e0e1_sign", 2),
    "algebra.norm_multiplicativity_fails": ("real_sampler", 16),
    "algebra.alternativity_fails": ("associator_zero", 16),
    "algebra.basis_products": ("octonion_e1e2_sign", 8),
    "algebra.non_associativity_witness": ("associator_zero", 8),
    "algebra.non_commutativity_witness": ("commutator_zero", 8),
    "algebra.orthonormal_basis": ("inner_drops_last_term", 8),
    "algebra.exact_inverses": ("inverse_is_conjugate", 8),
    "counterexample.first_equation": ("octonion_e1e5_sign", 8),
    "counterexample.second_equation": ("octonion_e2e5_sign", 8),
    "counterexample.no_common_unit": ("octonion_e2e5_sign", 8),
    "counterexample.quaternion_control": ("inverse_is_conjugate", 8),
    "leaves.slope_scale_invariance": ("classify_doubles_pi2", 8),
    "leaves.sampled_points_on_leaf": ("sample_leaf_off_its_sphere", 8),
    "leaves.same_leaf_separates_slopes": ("classify_doubles_pi2", 8),
    "leaves.unit_sphere_leaf_dimension": ("tangency_reverses_a_product", 8),
    "groupoid.rescale_sq_identity": ("rescale_sq_plus_x_norm", 8),
    "groupoid.unit_rescale": ("rescale_sq_plus_x_norm", 8),
    "groupoid.norm_preserved": ("rescale_sq_plus_x_norm", 8),
    "groupoid.slope_invariant": ("rescale_sq_plus_x_norm", 8),
    "groupoid.lambda_mult": ("rescale_sq_plus_x_norm", 8),
    "groupoid.endpoints": ("rescale_sq_plus_x_norm", 8),
    "groupoid.assoc": ("rescale_sq_plus_x_norm", 8),
    "groupoid.left_unit": ("rescale_sq_plus_x_norm", 8),
    "groupoid.right_unit": ("rescale_sq_plus_x_norm", 8),
    "groupoid.inv_left": ("rescale_sq_plus_x_norm", 8),
    "groupoid.inv_right": ("rescale_sq_plus_x_norm", 8),
    "groupoid.lambda_inv": ("rescale_sq_plus_x_norm", 8),
    "groupoid.t_of_i_is_s": ("rescale_sq_plus_x_norm", 8),
    "groupoid.connect": ("rescale_sq_plus_x_norm", 8),
    "groupoid.connect_lambda": ("rescale_sq_plus_x_norm", 8),
    "groupoid.orbit_inside_leaf": ("rescale_sq_plus_x_norm", 8),
    "groupoid.rescale_degenerate_slots": ("rescale_sq_plus_F_norm", 8),
    "phi_morphism.phi_multiplicative": ("phi_numerator_negates_G", 4),
    "phi_morphism.lambda_is_norm": ("phi_numerator_negates_G", 4),
    "phi_morphism.phi_matches_target": ("phi_numerator_negates_G", 4),
    "phi_morphism.phi_of_unit": ("unit_carries_x", 4),
    "phi_morphism.phi_fails_nonassociative": ("phi_is_one", 8),
    "g2.standard_triple_identity": ("g2_swaps_columns_e3_e5", 8),
    "g2.automorphism_on_basis_pairs": ("g2_swaps_columns_e3_e5", 8),
    "g2.orthogonal_matrix": ("g2_doubles_column_e7", 8),
    "g2.lambda_invariant": ("g2_doubles_column_e7", 8),
    "g2.target_equivariant": ("g2_swaps_columns_e3_e5", 8),
    "g2.composition_equivariant": ("g2_swaps_columns_e3_e5", 8),
    "algebroid_symbolic.antisymmetry": ("bracket_symmetric_weight", 8),
    "algebroid_symbolic.jacobi": ("bracket_extra_weight", 8),
    "algebroid_symbolic.anchor_morphism": ("rho_doubles_v_part", 8),
    "algebroid_symbolic.anchor_image_in_kernel": ("rho_extra_term", 8),
    "algebroid_symbolic.leibniz_rule": ("bracket_flips_second_leibniz", 8),
    "algebroid_symbolic.anchor_vanishes_at_origin": ("rho_constant_u", 8),
    "algebroid_vs_groupoid.target_derivative_is_anchor": ("rho_extra_term", 8),
    "algebroid_vs_groupoid.lambda_derivative": ("weight_extra_term", 8),
    "algebroid_vs_groupoid.origin_is_fixed": ("shift_constant_F", 8),
    "lie3.complex_rho_d1": ("d1_constant_a", 8),
    "lie3.complex_d1_d2": ("d2_constant_mu", 8),
    "lie3.antisymmetry_0_0": ("bracket_symmetric_weight", 8),
    "lie3.antisymmetry_0_m1": ("bracket_unsigned_m1_0", 8),
    "lie3.antisymmetry_0_m2": ("bracket_unsigned_m2_0", 8),
    "lie3.symmetry_m1_m1": ("bracket_m1_m1_drops_a_term", 8),
    "lie3.leibniz_0_m1": ("d1_constant_a", 8),
    "lie3.leibniz_0_m2": ("d2_constant_mu", 8),
    "lie3.leibniz_m1_m1": ("bracket_m1_m1_drops_a_term", 8),
    "lie3.jacobi_0_0_0": ("rho_fixed_coordinate_term", 8),
    "lie3.jacobi_0_0_m1": ("bracket_unsigned_m1_0", 8),
    "lie3.jacobi_0_0_m2": ("bracket_unsigned_m2_0", 8),
    "lie3.jacobi_0_m1_m1": ("bracket_m1_m1_drops_a_term", 8),
    "lie3.jacobi_0_m1_m2": ("bracket_nonzero_by_degree", 8),
    "lie3.jacobi_0_m2_m2": ("bracket_nonzero_by_degree", 8),
    "lie3.jacobi_m1_m1_m1": ("bracket_nonzero_by_degree", 8),
    "lie3.jacobi_m1_m1_m2": ("bracket_nonzero_by_degree", 8),
    "lie3.jacobi_m1_m2_m2": ("bracket_nonzero_by_degree", 8),
    "lie3.jacobi_m2_m2_m2": ("bracket_nonzero_by_degree", 8),
    "lie3.degree_pairs_zero": ("bracket_nonzero_by_degree", 8),
    "lie3.minimal_at_origin": ("rho_constant_u", 8),
    "tangency_matrix.matrix_matches_transcription": ("tangency_drops_x_u", 8),
    "tangency_matrix.first_row": ("tangency_drops_x_u", 8),
    "tangency_matrix.last_row": ("tangency_drops_y_v", 8),
    "generic_ranks.rho_is_scaled_projection": ("rho_doubles_v_part", 8),
    "generic_ranks.tangency_is_d1_transpose": ("d1_constant_a", 8),
    "generic_ranks.d1_gram_schur_complement": ("d1_constant_a", 8),
    "generic_ranks.d2_norm_positive": ("d2_constant_mu", 8),
    "generic_ranks.generic_point_ranks": ("d1_constant_a", 8),
    "generic_ranks.rank_exactness": ("d1_constant_a", 8),
    "generic_ranks.origin_ranks": ("d1_constant_a", 8),
    "generic_ranks.infinity_line_ranks": ("rho_doubles_v_part", 8),
    "generic_ranks.minimal_rank_consequence": ("rho_merges_columns", 8),
}

# the checks that no mutation FAILs yet, each with its reason
UNCOVERED = {}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_each_mutation_fails_its_checks(monkeypatch, mutation):
    for owner, attribute, replacement in MUTATIONS[mutation]:
        monkeypatch.setattr(owner, attribute, replacement)
    runs = {}
    for name, (killer, dim) in KILLS.items():
        if killer == mutation:
            runs.setdefault((SUITE_OF[name.split(".")[0]], dim, _backend(name)), []).append(name)
    assert runs, "no check names this mutation"
    for (suite, dim, backend), names in sorted(runs.items()):
        verdicts = _verdicts(suite, dim, backend)
        passing = [name for name in names if verdicts[name]]
        assert not passing, "%s still PASS at dim %d" % (passing, dim)


def _assert_tabled(suite):
    emitted = {}
    for dim in SUITE_DIMS[suite]:
        for report in run_suite(suite, dim, 101, 20, TOL, "float"):
            for c in report.checks:
                # unmutated, every check passes: each FAIL above is its mutation's
                assert c.passed, (c.name, dim)
                emitted.setdefault(report.suite + "." + c.name, set()).add(dim)
    named = {name for name in KILLS if SUITE_OF[name.split(".")[0]] == suite}
    uncovered = {name for name in UNCOVERED if SUITE_OF[name.split(".")[0]] == suite}
    assert set(emitted) == named | uncovered and not named & uncovered, suite
    unmutated = {}
    for name in named:
        dim = KILLS[name][1]
        assert dim in emitted[name]
        assert dim == 8 or 8 not in emitted[name], name
        # so does the run each mutation makes
        run = (dim, _backend(name))
        if run not in unmutated:
            unmutated[run] = _verdicts(suite, *run)
        assert unmutated[run][name], name


def test_every_check_of_the_suite_has_a_mutation():
    for suite in ("algebra", "leaves", "groupoid", "algebroid", "lie3"):
        _assert_tabled(suite)


# the rows whose verdict is their proof on orbit representatives and the
# equivariance premise, by report
REDUCED_ROWS = {"lie3": ("jacobi_0_0_0", "jacobi_0_0_m1"), "algebroid_symbolic": ("jacobi", "anchor_morphism")}


def _commutes_with(h, s):
    """Whether rho, and bracket_e0 through its ring map, commute with h on
    the symbolic constant sections s."""
    point = algebroid._point(s)
    image = h(point)
    bracket = algebroid.bracket_e0(s.X, s.Y, s.ring)
    return (
        algebroid._rho(h(s.X), image.u, image.v) == h(algebroid._rho(s.X, point.u, point.v)),
        bracket.map(algebroid._ring_map(h, s)) == h(bracket),
    )


@pytest.mark.parametrize(
    "mutation, broken, fails",
    [("rho_fixed_coordinate_term", "g", (False, True)), ("bracket_extra_weight", "kappa", (True, False))],
)
def test_a_fault_of_one_symmetry_fails_the_premise_and_the_reduced_rows(monkeypatch, mutation, broken, fails):
    # fails: whether rho and bracket_e0 still commute with the broken symmetry
    for owner, attribute, replacement in MUTATIONS[mutation]:
        monkeypatch.setattr(owner, attribute, replacement)
    s = _sym_sections(8)
    commutes = {name: _commutes_with(h, s) for name, h in zip(("g", "kappa"), algebroid.SYMMETRIES)}
    assert commutes == {name: fails if name == broken else (True, True) for name in commutes}
    assert not algebroid._equivariance(s) and not lie3._equivariance(s)
    tables = {"lie3": lie3.CHECKS, "algebroid_symbolic": algebroid.SYMBOLIC_CHECKS}
    for report, names in REDUCED_ROWS.items():
        checks = prove_rows(report, [row for row in tables[report] if row[0] in names]).checks
        assert [c.name for c in checks if not c.passed] == list(names), report


_COMMON = {
    "tangency_matrix.matrix_matches_transcription",
    "generic_ranks.tangency_is_d1_transpose",
    "generic_ranks.generic_point_ranks",
    "generic_ranks.infinity_line_ranks",
    "generic_ranks.rank_exactness",
    "foliation.euler_field_not_tangent",
}
# both names of the claim J(rho(s)) = 0
_ANCHOR_IMAGE = {"algebroid_symbolic.anchor_image_in_kernel", "foliation.anchor_image_tangent"}
_NULLITY = {"foliation.linear_nullspace_dimension", "foliation.linear_nullspace_sampled_oracle"}

# J = (<x,u>, u conj(y) + x conj(v), <y,v>): mutant -> (_tangency, the checks
# it FAILs at dim 8), and none for the unmutated map.
# leaves.unit_sphere_leaf_dimension FAILs under none of them: the rows of J
# carry a linear relation and keep their rank.
TANGENCY_TERMS = {
    "none": (foliation._tangency, set()),
    "drop_x_u": (_tangency_dropping_x_u, _COMMON | {"tangency_matrix.first_row"}),
    "drop_y_v": (_tangency_dropping_y_v, _COMMON | {"tangency_matrix.last_row"}),
    "drop_u_conj_y": (
        lambda u, v, x, y: (x.inner(u), x * v.conjugate(), y.inner(v)),
        _COMMON | _ANCHOR_IMAGE | _NULLITY,
    ),
    "drop_x_conj_v": (
        lambda u, v, x, y: (x.inner(u), u * y.conjugate(), y.inner(v)),
        _COMMON | _ANCHOR_IMAGE | _NULLITY,
    ),
    "negate_x_conj_v": (
        lambda u, v, x, y: (x.inner(u), u * y.conjugate() - x * v.conjugate(), y.inner(v)),
        _COMMON | _ANCHOR_IMAGE,
    ),
}


def _tangency_reports():
    """The single reports at dim 8 that read J, seed 101."""
    mats = lie3.resolution_matrices()
    row = [r for r in algebroid.SYMBOLIC_CHECKS if r[0] == "anchor_image_in_kernel"]
    return [
        lie3.verify_matrix_vs_transcription(mats),
        lie3.generic_ranks(mats),
        foliation.verify_foliation(8, 101),
        algebroid.prove_rows("algebroid_symbolic", row),
        leaves.verify_leaves(8, 8, 101, TOL),
    ]


@pytest.mark.parametrize("mutant", sorted(TANGENCY_TERMS))
def test_each_term_of_J_is_seen(monkeypatch, mutant):
    tangency, fails = TANGENCY_TERMS[mutant]
    monkeypatch.setattr(foliation, "_tangency", tangency)
    failed = {r.suite + "." + c.name for r in _tangency_reports() for c in r.checks if not c.passed}
    assert failed == fails
