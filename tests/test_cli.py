"""Command-line interface: dispatch, validation, report determinism."""

import csv
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ohopf import algebra, cli, foliation, groupoid
from ohopf.cli import BACKENDS, SUITE_DIMS, SUITES, _merge, main, run_suite
from ohopf.report import VerificationReport


def test_verify_algebra_text(tmp_path, capsys):
    out = tmp_path / "report.txt"
    rc = main(
        [
            "verify",
            "--suite",
            "algebra",
            "--dim",
            "4",
            "--backend",
            "exact",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    text = out.read_text()
    assert "PASS" in text and "checks passed" in text


def test_verify_json_deterministic(tmp_path):
    args = [
        "verify",
        "--suite",
        "leaves",
        "--dim",
        "4",
        "--seed",
        "11",
        "--samples",
        "24",
        "--format",
        "json",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["schema_version"] == "1"
    assert doc["passed"] is True
    assert all("law" in c for c in doc["checks"])


def test_invalid_dim_rejected():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "foliation", "--dim", "16"])
    assert err.value.code == 2


def test_invalid_tol_rejected():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "groupoid", "--dim", "4", "--tol", "-1"])
    assert err.value.code == 2


def test_export_leaf_csv(tmp_path, capsys):
    out = tmp_path / "leaf.csv"
    rc = main(
        ["export-leaf", "--slope", "e1", "--radius", "1.0", "-n", "20", "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    # one residual, max |classify(p) - leaf| over the samples
    residual = capsys.readouterr().out.split("max leaf residual ")[1].rstrip(")\n")
    assert float(residual) < 1e-15
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 21
    assert rows[0][:2] == ["x0", "x1"]
    values = [float(v) for v in rows[1]]
    assert abs(sum(v * v for v in values) - 1.0) < 1e-12


def test_export_leaf_infinity_single_point(tmp_path):
    out = tmp_path / "inf.csv"
    rc = main(["export-leaf", "--slope", "inf", "--radius", "1.0", "-n", "1", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2
    assert all(float(v) == 0.0 for v in rows[1][:8])


def test_export_leaf_origin(tmp_path, capsys):
    out = tmp_path / "origin.csv"
    rc = main(["export-leaf", "--slope", "origin", "-n", "3", "--out", str(out)])
    assert rc == 0
    assert "max leaf residual 0)" in capsys.readouterr().out
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4
    assert all(float(v) == 0.0 for row in rows[1:] for v in row)


@pytest.mark.parametrize("slope, radius", [("e1", "0"), ("origin", "1e-170"), ("inf", "1e-150")])
def test_export_leaf_tiny_or_zero_radius(tmp_path, slope, radius):
    # radius 0 and the origin slope give the origin leaf; a tiny leaf that
    # floating point still resolves is sampled
    out = tmp_path / "tiny.csv"
    rc = main(["export-leaf", "--slope", slope, "--radius", radius, "-n", "2", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 2
    assert any(float(v) for row in rows for v in row) is (slope == "inf")


def test_export_leaf_bad_slope():
    with pytest.raises(SystemExit) as err:
        main(["export-leaf", "--slope", "sideways", "--out", "/tmp/x.csv"])
    assert err.value.code == 2


def test_env_override(monkeypatch):
    # defaults are read from the environment each time the parser is built
    monkeypatch.setenv("OHOPF_SEED", "99")
    from ohopf.cli import build_parser

    args = build_parser().parse_args(["verify", "--suite", "algebra"])
    assert args.seed == 99


_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize(
    "argv, env",
    [
        (["verify", "--suite", "groupoid", "--dim", "2", "--samples", "0"], {}),
        (["verify", "--suite", "groupoid", "--dim", "2", "--samples", "-3"], {}),
        (["verify", "--suite", "groupoid", "--dim", "2", "--tol", "inf"], {}),
        (["verify", "--suite", "groupoid", "--dim", "2", "--tol", "nan"], {}),
        (["verify", "--suite", "groupoid", "--dim", "2", "--tol", "0"], {}),
        (["verify", "--suite", "groupoid", "--dim", "2"], {"OHOPF_SAMPLES": "0"}),
        (["verify", "--suite", "groupoid", "--dim", "2"], {"OHOPF_SEED": "abc"}),
        (["verify", "--suite", "groupoid"], {"OHOPF_DIM": "two"}),
        (["verify", "--suite", "all", "--dim", "3"], {}),
        (["verify", "--suite", "all", "--dim", "0"], {}),
        (["verify"], {"OHOPF_SUITE": "bogus"}),
        (["verify", "--suite", "algebra"], {"OHOPF_BACKEND": "bogus"}),
        (["verify", "--suite", "algebra"], {"OHOPF_FORMAT": "bogus"}),
        (["verify", "--suite", "algebra", "--seed", "-1"], {}),
        (["verify", "--suite", "leaves", "--seed", "-1"], {}),
        (["verify", "--suite", "algebra"], {"OHOPF_SEED": "-1"}),
        (["export-leaf", "-n", "0", "--out", "leaf.csv"], {}),
        (["export-leaf", "--radius", "-1", "--out", "leaf.csv"], {}),
        (["export-leaf", "--radius", "inf", "--out", "leaf.csv"], {}),
        (["export-leaf", "--out", "leaf.csv"], {"OHOPF_COUNT": "1.5"}),
        (["export-leaf", "--slope", "e9", "--out", "leaf.csv"], {}),
        (["export-leaf", "--dim", "3", "--out", "leaf.csv"], {}),
        (["export-leaf", "--seed", "-1", "--out", "leaf.csv"], {}),
        (["export-leaf", "--out", "leaf.csv"], {"OHOPF_SEED": "-1"}),
        (["export-leaf", "--radius", "1e200", "--out", "leaf.csv"], {}),
        (["export-leaf", "--slope", "nan,0,0,0,0,0,0,0", "--out", "leaf.csv"], {}),
        (["export-leaf", "--slope", "inf,0,0,0,0,0,0,0", "--out", "leaf.csv"], {}),
        (["export-leaf", "--slope", "1e200,0,0,0,0,0,0,0", "--out", "leaf.csv"], {}),
        # a positive radius whose leaf underflows to the origin
        (["export-leaf", "--slope", "e1", "--radius", "1e-170", "-n", "2", "--out", "leaf.csv"], {}),
        (["export-leaf", "--slope", "1e150,0,0,0,0,0,0,0", "--radius", "1e-150", "--out", "leaf.csv"], {}),
        (["export-leaf", "--slope", "inf", "--radius", "1e-160", "--out", "leaf.csv"], {}),
    ],
)
def test_bad_input_exits_2(tmp_path, argv, env):
    environ = {k: v for k, v in os.environ.items() if not k.startswith("OHOPF_")}
    environ.update(env, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "ohopf.cli", *argv],
        cwd=tmp_path,
        env=environ,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.strip()
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "leaf.csv").exists()


def test_suite_that_aborts_exits_1_without_usage_hint(monkeypatch, capsys):
    # a NaN target makes compose refuse every arrow pair: a fault, not bad input
    def nan_target(g):
        nan = g.x.scale(float("nan"))
        return groupoid.PointD2(nan, nan)

    monkeypatch.setattr(groupoid, "target", nan_target)
    assert main(["verify", "--suite", "groupoid", "--dim", "4", "--samples", "5"]) == 1
    err = capsys.readouterr().err
    assert "suite aborted" in err
    assert "--help" not in err


def test_rejection_bound_aborts_the_suite(monkeypatch, capsys):
    class ZeroLocus:
        """Draws F = -e0, G = 0, x = e0, y = 0 in every row: every arrow has lambda^2 = 0."""

        def normal(self, loc=0.0, scale=1.0, size=None):
            v = np.zeros(size)
            v[:, 0, 0], v[:, 2, 0] = -1.0, 1.0
            return v

    monkeypatch.setattr(groupoid, "derived_rng", lambda seed, stream: ZeroLocus())
    assert main(["verify", "--suite", "groupoid", "--dim", "2", "--samples", "2"]) == 1
    err = capsys.readouterr().err
    assert "suite aborted: no arrow with lambda^2 > 0.01 in %d draws" % groupoid.MAX_DRAWS in err
    assert "--help" not in err


@pytest.mark.parametrize(
    "dim, backend", [(2, "float"), (2, "exact"), (8, "float")], ids=["float", "exact", "dim8-float"]
)
def test_all_is_the_union_of_the_suites(dim, backend):
    # the two-process run merges to the bytes of the suites run here in table order
    args = (dim, 5, 20, 1e-9, backend)
    per_suite = [
        report
        for name in SUITES
        if name != "all" and dim in SUITE_DIMS[name]
        for report in run_suite(name, *args)
    ]
    config = {"dim": dim, "backend": backend}
    merged = _merge(run_suite("all", *args), "all", config).to_json()
    assert merged == _merge(per_suite, "all", config).to_json()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_runner_forks_one_unit_and_keeps_unit_order():
    def unit(index):
        time.sleep(0.1)
        # a payload well above the 64 KiB pipe buffer
        return [(index, os.getpid(), "x" * 100_000)]

    def expire(signum, frame):
        raise TimeoutError("the runner did not return within 30 s")

    units = [lambda i=i: unit(i) for i in range(6)]
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    try:
        out = cli._run_in_two_processes(units, 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [index for index, _, _ in out] == list(range(6))
    assert [index for index, pid, _ in out if pid != os.getpid()] == [2]
    _no_child_left()


def test_all_forks_its_costliest_suite(monkeypatch):
    # the same suite runs in the child on every call, whatever the timing
    run_all = cli.run_suite

    def probe(suite, *args):
        return run_all(suite, *args) if suite == "all" else [(suite, os.getpid())]

    monkeypatch.setattr(cli, "run_suite", probe)
    for dim, forked in [(1, "groupoid"), (2, "foliation"), (4, "foliation"), (8, "lie3")]:
        out = probe("all", dim, 5, 20, 1e-9, "float")
        assert [name for name, _ in out] == [n for n in SUITES if n != "all" and dim in SUITE_DIMS[n]]
        assert [name for name, pid in out if pid != os.getpid()] == [forked]
    assert probe("all", 16, 5, 20, 1e-9, "float") == [("algebra", os.getpid())]
    _no_child_left()


@pytest.mark.parametrize(
    "module, name",
    [(algebra, "verify_algebra_identities"), (foliation, "verify_foliation")],
    ids=["first_unit", "last_unit"],
)
def test_a_unit_that_raises_aborts_all(monkeypatch, capsys, module, name):
    # the first and the last unit of all --dim 2: the parent runs algebra, the child foliation
    def fault(*args):
        raise ValueError("injected fault")

    monkeypatch.setattr(module, name, fault)
    assert main(["verify", "--suite", "all", "--dim", "2", "--samples", "5"]) == 1
    err = capsys.readouterr().err
    assert "error: suite aborted: injected fault" in err
    assert "--help" not in err
    _no_child_left()


def test_a_child_that_dies_aborts_all(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_child", lambda *args: os._exit(3))
    assert main(["verify", "--suite", "all", "--dim", "2", "--samples", "5"]) == 1
    err = capsys.readouterr().err
    assert "error: suite aborted: " in err
    assert "Traceback" not in err and "--help" not in err
    _no_child_left()


def test_text_footer_is_wall_time(capsys):
    start = time.perf_counter()
    assert main(["verify", "--suite", "all", "--dim", "2", "--samples", "5", "--format", "text"]) == 0
    wall = time.perf_counter() - start
    footer = capsys.readouterr().out.splitlines()[-1]
    seconds = float(re.fullmatch(r"\d+/\d+ checks passed in (\S+)s", footer).group(1))
    assert seconds <= wall + 0.005  # the footer rounds to 0.01 s


@pytest.mark.parametrize("backend", BACKENDS)
def test_algebroid_check_names_keep_their_report(tmp_path, backend):
    out = tmp_path / "algebroid.json"
    argv = ["verify", "--suite", "algebroid", "--samples", "5", "--backend", backend]
    main([*argv, "--format", "json", "--out", str(out)])
    names = [c["name"] for c in json.loads(out.read_text())["checks"]]
    assert len(names) == len(set(names)) == 9
    assert all(n.startswith(("algebroid_symbolic.", "algebroid_vs_groupoid.")) for n in names)


@pytest.mark.parametrize("tol, rc", [("1e-16", 1), ("1e-12", 0)])
def test_leaf_suite_applies_the_tol_as_given(capsys, tol, rc):
    # at dim 8 the float leaf residuals are about 1e-15: 1e-16 must fail them
    assert main(["verify", "--suite", "leaves", "--dim", "8", "--seed", "101", "--tol", tol]) == rc


def test_g2_suite_gets_the_tol_as_given(monkeypatch, capsys):
    seen = []

    def g2(samples, seed, tol):
        seen.append(tol)
        return VerificationReport("g2_equivariance", {})

    monkeypatch.setattr(groupoid, "verify_g2_equivariance", g2)
    main(["verify", "--suite", "groupoid", "--dim", "8", "--samples", "20", "--tol", "1e-10"])
    assert seen == [1e-10]


def _suite_checks(tmp_path, *argv):
    out = tmp_path / "report.json"
    assert main(["verify", *argv, "--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text())["checks"]


def test_foliation_suite_uses_no_floats(tmp_path):
    # every foliation check is exact, so only the config may see these flags
    suite = ("--suite", "foliation", "--dim", "8")
    reference = _suite_checks(tmp_path, *suite, "--backend", "float", "--seed", "101")
    for flags in (
        ("--backend", "exact", "--seed", "101"),
        ("--samples", "3", "--seed", "101"),
        ("--tol", "0.5", "--seed", "101"),
        ("--seed", "7"),
    ):
        assert _suite_checks(tmp_path, *suite, *flags) == reference, flags


def test_lie3_suite_is_the_same_on_both_backends(tmp_path):
    # every lie3 check is exact, generic_ranks included, so the backend,
    # the sample count and the seed may not change a check
    reference = _suite_checks(tmp_path, "--suite", "lie3", "--backend", "float", "--seed", "101")
    assert any(c["name"] == "generic_ranks.generic_point_ranks" for c in reference)
    for flags in (
        ("--backend", "exact", "--seed", "101"),
        ("--samples", "3", "--seed", "101"),
        ("--seed", "7"),
    ):
        assert _suite_checks(tmp_path, "--suite", "lie3", *flags) == reference, flags
