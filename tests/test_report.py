"""The sampled-law ledger: one pass rule for every sampled law."""

import json
import math

import numpy as np
import pytest

from ohopf import lie3
from ohopf.groupoid import verify_g2_equivariance, verify_phi_morphism, verify_structure
from ohopf.report import Stream, VerificationReport, derived_random, derived_rng

TOL = 1e-9


def _law(residuals, tol=TOL):
    report = VerificationReport("t")
    law = report.law("law", "the residual vanishes", tol)
    for r in residuals:
        law.record(r)
    return report.checks[0]


def test_finite_residuals_pass_at_tol():
    check = _law([0.0, TOL, TOL / 2])
    assert check.passed
    assert check.info == {"max_residual": TOL}


def test_residual_just_above_tol_fails():
    above = math.nextafter(TOL, 1.0)
    check = _law([0.0, above, TOL])
    assert not check.passed
    assert check.info["max_residual"] == above


@pytest.mark.parametrize(
    "residuals",
    [
        [float("nan")],
        [float("nan"), 0.0, 2.0],
        [0.0, float("nan"), 0.0],
        [0.0, 2.0, float("nan")],
    ],
)
def test_nan_residual_fails_and_is_reported(residuals):
    check = _law(residuals)
    assert not check.passed
    assert math.isnan(check.info["max_residual"])
    assert '"max_residual": NaN' in json.dumps(check.as_dict())


def test_arrays_fold_like_their_elements():
    # an empty array records nothing, so the law still fails
    assert _law([np.array([])]).info == {"max_residual": None}
    assert not _law([np.array([])]).passed
    check = _law([np.array([0.0, float("nan"), 2.0]), np.array([TOL / 2])])
    assert not check.passed and math.isnan(check.info["max_residual"])
    check = _law([np.array([TOL / 4, TOL, 0.0])])
    assert check.passed and check.info == {"max_residual": TOL}


def test_law_without_records_fails():
    report = VerificationReport("t")
    report.law("law", "the residual vanishes", TOL)
    assert not report.passed
    assert report.checks[0].info == {"max_residual": None}


def test_checks_keep_declaration_order():
    report = VerificationReport("t")
    report.add("first", "a flag check", True)
    law = report.law("second", "a sampled law", TOL)
    report.add("third", "a flag check", True)
    law.record(0.0)
    assert [c.name for c in report.checks] == ["first", "second", "third"]
    assert report.passed


@pytest.mark.parametrize(
    "run, laws",
    [
        (lambda: verify_structure(4, 0, 0, TOL), 13),
        (lambda: verify_phi_morphism(2, 0, 0, TOL), 2),
        (lambda: verify_g2_equivariance(0, 0, 1e-8), 5),
    ],
)
def test_zero_samples_fail_every_sampled_law(run, laws):
    report = run()
    sampled = [c for c in report.checks if "max_residual" in c.info]
    assert len(sampled) == laws
    assert not any(c.passed for c in sampled)
    assert all(c.info["max_residual"] is None for c in sampled)
    if report.suite == "groupoid":  # a flag check over the sampled arrows fails too
        assert not {c.name: c for c in report.checks}["orbit_inside_leaf"].passed


@pytest.mark.parametrize(
    "certificate", ["_rho_certificate", "_tangency_certificate", "_d1_certificate", "_d2_certificate"]
)
def test_a_failed_certificate_fails_the_generic_rank_checks(monkeypatch, certificate):
    # the ranks read off the certificates prove nothing unless every identity holds
    original = getattr(lie3, certificate)
    monkeypatch.setattr(lie3, certificate, lambda *args: (False, original(*args)[1]))
    checks = {c.name: c for c in lie3.generic_ranks().checks}
    assert checks["generic_point_ranks"].info["observed"] == [(7, 9, 1)]
    assert not checks["generic_point_ranks"].passed
    assert not checks["rank_exactness"].passed
    assert checks["minimal_rank_consequence"].passed
    assert checks["minimal_rank_consequence"].info == {"rank_e0": 16, "rank_rho0": 16}


def test_an_unresolved_cite_refuses_to_render():
    report = VerificationReport("t", {})
    report.add("proved", "a law", True)
    report.add_rows([("cited", "the same law", "other.proved")], None)
    for render in (report.to_json, report.to_text):
        with pytest.raises(ValueError, match="cited cites other.proved"):
            render()
    # with its source's verdict, a cite renders as a proved check does
    report.checks[1].passed = True
    twin = VerificationReport("t", {})
    twin.add("proved", "a law", True)
    twin.add("cited", "the same law", True)
    assert report.to_json() == twin.to_json()
    assert report.to_text() == twin.to_text()


# the first five outputs of SplitMix64 seeded with 1234567
SPLITMIX_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_the_stream_is_splitmix64_keyed_like_derived_random():
    assert Stream(1234567)._words(5).tolist() == SPLITMIX_1234567
    # a uniform is the top 53 bits of one word
    assert Stream(1234567).uniform(0.0, 1.0) == (SPLITMIX_1234567[0] >> 11) * 2.0**-53
    assert derived_rng(101, 10).key == derived_random(101, 10).getrandbits(64)
    # Box-Muller on the first pair of words, in Python floats
    z0, z1 = (w >> 11 for w in SPLITMIX_1234567[:2])
    r, angle = math.sqrt(-2.0 * math.log((z0 + 1) * 2.0**-53)), z1 * 2.0**-52 * math.pi - math.pi
    assert np.allclose(Stream(1234567).normal(size=2), [r * math.cos(angle), r * math.sin(angle)], rtol=1e-14, atol=0)


def test_the_same_seed_and_stream_give_the_same_draws():
    def draws(seed, k):
        rng = derived_rng(seed, k)
        return rng.normal(0.0, 0.7, (3, 4, 2)), rng.integers(-3, 4, 6), rng.uniform(0.25, 4.0)

    first = draws(7, 1)
    for seed, k, same in ((7, 1, True), (8, 1, False), (7, 2, False), (1, 7, False)):
        other = draws(seed, k)
        assert [np.array_equal(a, b) for a, b in zip(first, other)] == [same] * 3, (seed, k)


def test_consecutive_draws_continue_the_stream():
    rng = derived_rng(42, 0)
    parts = [rng.normal(size=(rows, 8)) for rows in (4, 6)]
    assert np.array_equal(np.vstack(parts), derived_rng(42, 0).normal(size=(10, 8)))
    # an odd count leaves the second normal of its last pair unused
    rng = derived_rng(42, 0)
    odd = np.concatenate([rng.normal(size=3), rng.normal(size=1)])
    assert np.array_equal(odd, derived_rng(42, 0).normal(size=6)[[0, 1, 2, 4]])


def test_normals_are_standard():
    z = derived_rng(3, 0).normal(size=100_000)
    assert z.shape == (100_000,) and abs(z.mean()) < 0.01 and abs(z.var() - 1.0) < 0.01
    scaled = derived_rng(3, 0).normal(2.0, 0.5, (50_000, 2))
    assert np.allclose(scaled, 2.0 + 0.5 * z.reshape(50_000, 2), rtol=0, atol=1e-12)


def test_integers_take_exactly_their_range():
    values = derived_rng(5, 0).integers(-3, 4, 10_000)
    assert values.dtype == np.int64 and set(values.tolist()) == set(range(-3, 4))


def test_uniform_stays_in_its_range():
    rng = derived_rng(6, 1)
    draws = [rng.uniform(0.25, 4.0) for _ in range(1000)]
    assert all(0.25 <= r < 4.0 for r in draws) and max(draws) - min(draws) > 3.5


def test_a_zero_word_gives_a_finite_normal():
    # key = -gamma makes word 0 the mix of 0, which is 0: the uniform that
    # goes into the logarithm is then 2^-53, the smallest it takes, never 0
    key = -0x9E3779B97F4A7C15 % 2**64
    assert Stream(key)._words(1).tolist() == [0]
    pair = Stream(key).normal(size=2)
    assert np.isclose(np.hypot(*pair), math.sqrt(2 * 53 * math.log(2)), rtol=1e-15)
