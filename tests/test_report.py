"""The sampled-law ledger: one pass rule for every sampled law."""

import json
import math

import numpy as np
import pytest

from ohopf import lie3
from ohopf.groupoid import verify_g2_equivariance, verify_phi_morphism, verify_structure
from ohopf.report import VerificationReport

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
    report.cite("cited", "the same law", "other.proved")
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

