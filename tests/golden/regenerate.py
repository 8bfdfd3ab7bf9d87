"""Rewrite the golden canonical reports of ``ohopf verify --suite all``.

    PYTHONPATH=src python tests/golden/regenerate.py

One file per dimension and backend, all_dim<d>_<backend>.json, at seed 101
with the default sample count and tolerance.  tests/test_golden_reports.py
compares fresh runs with these files; after an intended change to a check,
rerun this script and review the diff of the files.
"""

from pathlib import Path

from ohopf import cli

GOLDEN = Path(__file__).resolve().parent
CASES = [(dim, backend) for backend in cli.BACKENDS for dim in cli.SUITE_DIMS["all"]]


def golden_path(dim: int, backend: str) -> Path:
    return GOLDEN / ("all_dim%d_%s.json" % (dim, backend))


def golden_argv(dim: int, backend: str, out) -> list:
    """Every flag explicit, so no OHOPF_* variable changes the report."""
    return [
        "verify", "--suite", "all", "--dim", str(dim), "--backend", backend, "--seed", "101",
        "--samples", "200", "--tol", "1e-9", "--format", "json", "--out", str(out),
    ]


if __name__ == "__main__":
    for dim, backend in CASES:
        cli.main(golden_argv(dim, backend, golden_path(dim, backend)))
