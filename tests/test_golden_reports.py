"""`verify --suite all` against the golden canonical reports in tests/golden."""

import importlib.util
import json
from pathlib import Path

import pytest

from ohopf import cli

_spec = importlib.util.spec_from_file_location(
    "regenerate", Path(__file__).resolve().parent / "golden" / "regenerate.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def _split_floats(value, floats):
    """value with each float replaced by None; the floats go to floats in order."""
    if isinstance(value, float):
        floats.append(value)
        return None
    if isinstance(value, dict):
        return {k: _split_floats(v, floats) for k, v in value.items()}
    if isinstance(value, list):
        return [_split_floats(v, floats) for v in value]
    return value


@pytest.mark.parametrize("dim, backend", golden.CASES, ids=["dim%d-%s" % c for c in golden.CASES])
def test_all_matches_its_golden_report(tmp_path, dim, backend):
    # everything but a float is compared exactly: names, laws, verdicts, ranks,
    # counts; float residuals can move with the numpy version, so a float
    # stays within tol of the golden value and a sampled law's worst residual
    # within tol
    out = tmp_path / "report.json"
    assert cli.main(golden.golden_argv(dim, backend, out)) == 0
    got = json.loads(out.read_text())
    want = json.loads(golden.golden_path(dim, backend).read_text())
    tol = want["config"]["tol"]
    got_floats, want_floats = [], []
    assert json.dumps(_split_floats(got, got_floats), sort_keys=True) == json.dumps(
        _split_floats(want, want_floats), sort_keys=True
    )
    assert all(abs(g - w) <= tol for g, w in zip(got_floats, want_floats))
    for check in got["checks"]:
        if set(check["info"]) == {"max_residual"}:
            assert check["info"]["max_residual"] <= tol, check["name"]
