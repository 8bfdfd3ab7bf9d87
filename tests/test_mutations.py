"""Every check of the algebra suite can FAIL.

A PASS is vacuous if no plausible fault turns it into a FAIL: a row of
algebra.IDENTITIES whose residual cancels by construction reports
nonzero_components 0 exactly like a proof, and byte-identical reports cannot
tell the two apart.  MUTATIONS are such faults, monkeypatches of a product
table, conjugation, the pairing, the associator, the commutator, the inverse
or the rational sampler.  KILLS maps every check that ``verify --suite
algebra`` emits, at any of its dims, to one mutation and a dim at which that
mutation FAILs the check; a check emitted at dim 8 is killed at dim 8.
"""

import pytest

from ohopf import algebra
from ohopf.algebra import AlgebraElement
from ohopf.cli import SUITE_DIMS, run_suite


def _verdicts(dim):
    """Check name -> pass flag of ``verify --suite algebra`` at dim, seed 101."""
    reports = run_suite("algebra", dim, 101, 1, 1e-9, "exact")
    return {r.suite + "." + c.name: c.passed for r in reports for c in r.checks}


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
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_each_mutation_fails_its_checks(monkeypatch, mutation):
    for owner, attribute, replacement in MUTATIONS[mutation]:
        monkeypatch.setattr(owner, attribute, replacement)
    runs = {}
    for name, (killer, dim) in KILLS.items():
        if killer == mutation:
            runs.setdefault(dim, []).append(name)
    assert runs, "no check names this mutation"
    for dim, names in sorted(runs.items()):
        verdicts = _verdicts(dim)
        passing = [name for name in names if verdicts[name]]
        assert not passing, "%s still PASS at dim %d" % (passing, dim)


def test_every_check_of_the_suite_has_a_mutation():
    emitted = {}
    for dim in SUITE_DIMS["algebra"]:
        verdicts = _verdicts(dim)
        # unmutated, every check passes: each FAIL above is its mutation's
        assert all(verdicts.values()), dim
        for name in verdicts:
            emitted.setdefault(name, set()).add(dim)
    assert set(emitted) == set(KILLS)
    for name, (_, dim) in KILLS.items():
        assert dim in emitted[name]
        assert dim == 8 or 8 not in emitted[name], name
