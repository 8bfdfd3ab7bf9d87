"""Command-line interface: dispatch, validation, report determinism."""

import csv
import functools
import importlib.util
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from ohopf import algebra, algebroid, cli, foliation, groupoid, leaves, lie3
from ohopf.algebra import coordinate_elements
from ohopf.cli import BACKENDS, SUITE_DIMS, SUITES, _merge, main, run_suite
from ohopf.report import VerificationReport
from test_mutations import _bracket_with_extra_weight, _doubled_rho_v_part


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


@pytest.mark.parametrize("dim", [1, 8])
def test_export_leaf_zero_slope(tmp_path, dim):
    # y = 0 x is 0 at every point of the leaf y = 0, |x| = r
    out = tmp_path / "flat.csv"
    slope = ",".join(["0"] * dim)
    argv = ["--dim", str(dim), "--slope", slope, "--radius", "2", "-n", "5", "--out", str(out)]
    assert main(["export-leaf", *argv]) == 0
    with open(out) as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    assert len(rows) == 5
    for row in rows:
        assert row[dim:] == [0.0] * dim
        assert abs(sum(v * v for v in row[:dim]) - 4.0) < 1e-12


@pytest.mark.parametrize("slope, radius", [("e1", "1e150"), ("inf", "1e150"), ("inf", "1e100")])
def test_export_leaf_large_radius_residual_is_finite(tmp_path, capsys, slope, radius):
    # pi(p) is of size r^2, so its squared distance to the leaf would
    # overflow: the residual must come out finite, at rounding level
    # relative to r^2, and without a numpy warning
    out = tmp_path / "large.csv"
    argv = ["--slope", slope, "--radius", radius, "-n", "5", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["export-leaf", *argv]) == 0
    residual = float(capsys.readouterr().out.split("max leaf residual ")[1].rstrip(")\n"))
    assert 0 <= residual < 1e-14 * float(radius) ** 2


def test_export_leaf_count_beyond_memory(tmp_path, capsys):
    # 8e12 normals: the first allocation of the sampler fails at once
    out = tmp_path / "huge.csv"
    with pytest.raises(SystemExit) as err:
        main(["export-leaf", "-n", "1000000000000", "--out", str(out)])
    assert err.value.code == 2
    assert "-n 1000000000000 points do not fit in memory" in capsys.readouterr().err
    assert not out.exists()


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
        # non-ASCII digits name no basis slope
        (["export-leaf", "--slope", "e\u00b2", "--out", "leaf.csv"], {}),
        (["export-leaf", "--slope", "e\u0663", "--out", "leaf.csv"], {}),
        (["export-leaf", "--out", "leaf.csv"], {"OHOPF_SLOPE": "e\u00b2"}),
        # numpy refuses the 5.68 PiB of draws before it allocates any
        (["export-leaf", "-n", "100000000000000", "--out", "leaf.csv"], {}),
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


def test_sliver_points_abort_the_suite(monkeypatch, capsys):
    class Sliver:
        """Draws zero arrows (lambda^2 = 1), and points (1e-3 e0, e0) with |x|^2 < 1e-3 |p|^2."""

        def normal(self, loc=0.0, scale=1.0, size=None):
            v = np.zeros(size)
            if size[-2] == 2:  # (rows, x y, dim) point draws
                v[:, 0, 0], v[:, 1, 0] = 1e-3, 1.0
            return v

    monkeypatch.setattr(groupoid, "derived_rng", lambda seed, stream: Sliver())
    assert main(["verify", "--suite", "groupoid", "--dim", "2", "--samples", "2"]) == 1
    err = capsys.readouterr().err
    what = "point away from the origin and the infinity line"
    assert "suite aborted: no %s in %d draws" % (what, groupoid.MAX_DRAWS) in err
    assert "--help" not in err


def test_one_sample_connects_a_point(capsys):
    # seed 56 draws its one dim-1 point in the sliver near the infinity line:
    # it is redrawn, so connect_lambda records a residual
    rc, text = _verify_json(capsys, "--suite", "groupoid", "--dim", "1", "--samples", "1", "--seed", "56")
    checks = {c["name"]: c for c in json.loads(text)["checks"]}
    assert rc == 0
    assert checks["groupoid.connect_lambda"]["info"]["max_residual"] is not None


@pytest.mark.parametrize("dim", (1, 2))
def test_one_sample_passes_every_seed(dim):
    for seed in range(150):
        report = groupoid.verify_structure(dim, 1, seed, 1e-9)
        assert report.passed, (seed, [c.name for c in report.checks if not c.passed])


def _verify_json(capsys, *argv):
    """(exit status, canonical JSON) of one verify call."""
    rc = main(["verify", *argv, "--format", "json"])
    return rc, capsys.readouterr().out


_ALL_CASES = [(dim, backend) for dim in SUITE_DIMS["all"] for backend in ("float", "exact")]


@pytest.mark.parametrize(
    "dim, backend",
    _ALL_CASES,
    ids=[
        {(2, "float"): "float", (2, "exact"): "exact", (8, "float"): "dim8-float"}.get(
            case, "dim%d-%s" % case
        )
        for case in _ALL_CASES
    ],
)
def test_all_is_the_union_of_the_suites(monkeypatch, capsys, dim, backend):
    # the two-process run gives the bytes of the suites run in one process in table order
    flags = ["--dim", str(dim), "--seed", "5", "--samples", "20", "--backend", backend]
    rc, forked = _verify_json(capsys, "--suite", "all", *flags)
    monkeypatch.delattr(os, "fork")
    per_suite = [
        report
        for name in SUITES
        if name != "all" and dim in SUITE_DIMS[name]
        for report in run_suite(name, dim, 5, 20, 1e-9, backend)
    ]
    config = {"suite": "all", "dim": dim, "seed": 5, "samples": 20, "tol": 1e-9, "backend": backend}
    merged = _merge(per_suite, "all", config)
    assert (rc, forked) == (0 if merged.passed else 1, merged.to_json())


@pytest.mark.parametrize(
    "suite, dim, backend",
    [
        (suite, dim, backend)
        for suite in SUITES
        if suite != "all"
        for dim in SUITE_DIMS[suite]
        for backend in ("float", "exact")
    ],
)
def test_every_suite_gives_the_bytes_of_one_process(monkeypatch, capsys, suite, dim, backend):
    argv = ["--suite", suite, "--dim", str(dim), "--seed", "5", "--samples", "20", "--backend", backend]
    forked = _verify_json(capsys, *argv)
    monkeypatch.delattr(os, "fork")
    assert _verify_json(capsys, *argv) == forked


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_runner_forks_one_unit_and_keeps_unit_order(monkeypatch):
    def unit(index):
        time.sleep(0.1)
        # a payload well above the 64 KiB pipe buffer
        return [(index, os.getpid(), "x" * 100_000)]

    def expire(signum, frame):
        raise TimeoutError("the runner did not return within 30 s")

    # unit 2 costs more than the other five together, so the child runs it alone
    monkeypatch.setattr(cli, "UNIT_COST", {"u%d" % i: 10 if i == 2 else 1 for i in range(6)})
    units = [("u%d" % i, lambda i=i: unit(i)) for i in range(6)]
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    try:
        out = cli._run_in_two_processes(units)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [index for index, _, _ in out] == list(range(6))
    assert [index for index, pid, _ in out if pid != os.getpid()] == [2]
    _no_child_left()


def test_longest_units_go_first_to_the_lighter_side(monkeypatch):
    monkeypatch.setattr(cli, "UNIT_COST", {"a": 3, "b": 5, "c": 4, "d": 3, "e": 2, "f": 2})
    # b -> child 5, c -> parent 4, a -> parent 7, d -> child 8, e -> parent 9, f -> child 10
    assert cli._child_side(["a", "b", "c", "d", "e", "f"]) == [1, 3, 5]
    # equal costs keep unit order, and a tie of the loads goes to the child
    monkeypatch.setattr(cli, "UNIT_COST", {"a": 4, "b": 4, "c": 2, "d": 2})
    assert cli._child_side(["a", "b", "c", "d"]) == [0, 2]


def _unit_names(suite, dim, backend="float"):
    return [name for name, _ in cli._units(suite, dim, 5, 20, 1e-9, backend)]


def test_every_unit_has_a_cost_and_every_cost_a_unit():
    names = {
        name
        for suite in SUITES
        for dim in SUITE_DIMS[suite]
        for backend in BACKENDS
        for name in _unit_names(suite, dim, backend)
    }
    assert names == set(cli.UNIT_COST)
    # and the script that measures the table times every unit of it
    spec = importlib.util.spec_from_file_location("unit_cost", Path(__file__).resolve().parent / "golden" / "unit_cost.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert set(script.units()) == set(cli.UNIT_COST)


def _probe_units(monkeypatch, *stamp):
    """Make each unit of a call return one empty report named after the unit,
    whose config records the pid of the process that ran it and ``stamp``,
    each called there."""
    units = cli._units

    def probe(*args):
        return [
            (name, lambda name=name: [VerificationReport(name, [os.getpid(), *(f() for f in stamp)])])
            for name, _ in units(*args)
        ]

    monkeypatch.setattr(cli, "_units", probe)


def _probed(suite, dim):
    return [(r.suite, *r.config) for r in run_suite(suite, dim, 5, 20, 1e-9, "float")]


def test_all_forks_its_costliest_suite(monkeypatch):
    # the same units run in the child on every call, whatever the timing
    _probe_units(monkeypatch)
    for suite, dim, forked in [
        ("all", 1, ["groupoid"]),
        ("all", 2, ["leaves", "foliation"]),
        ("all", 4, ["leaves", "foliation"]),
        ("all", 8, ["algebra", "groupoid", "algebroid.anchor_morphism", "lie3.head"]),
        ("lie3", 8, ["lie3.head"]),
        ("algebroid", 8, ["algebroid.head", "algebroid.tail"]),
    ]:
        out = _probed(suite, dim)
        assert [name for name, _ in out] == _unit_names(suite, dim)
        assert [name for name, pid in out if pid != os.getpid()] == forked, (suite, dim)
    # a call of one unit runs in this process
    for suite in ("algebra", "leaves", "groupoid", "foliation"):
        assert _probed(suite, 8) == [(suite, os.getpid())]
    assert _probed("all", 16) == [("algebra", os.getpid())]
    _no_child_left()


def test_the_child_runs_its_units_costliest_first(monkeypatch, capsys):
    # all --dim 8: the costliest unit, lie3.head, runs before the float
    # suites, whose heap would otherwise stack under its peak; the reports
    # keep unit order
    _probe_units(monkeypatch, functools.partial(next, itertools.count()))
    out = _probed("all", 8)
    assert [name for name, _, _ in out] == _unit_names("all", 8)
    # the forked child counts on its own copy of the ticks, in the order it runs
    child = sorted((tick, name) for name, pid, tick in out if pid != os.getpid())
    assert [name for _, name in child] == ["lie3.head", "groupoid", "algebra", "algebroid.anchor_morphism"]
    monkeypatch.undo()
    argv = ["--suite", "all", "--dim", "8", "--seed", "5", "--samples", "20", "--backend", "exact"]
    forked = _verify_json(capsys, *argv)
    monkeypatch.delattr(os, "fork")
    assert _verify_json(capsys, *argv) == forked
    _no_child_left()


def _cites(reports):
    return [(r.suite + "." + c.name, c.cites) for r in reports for c in r.checks if c.cites]


def test_only_all_at_dim_8_cites(capsys):
    # single-suite calls, and all without lie3 and algebroid, prove every check themselves
    for suite in ("algebroid", "lie3", "foliation", "all"):
        for dim in SUITE_DIMS[suite]:
            if (suite, dim) != ("all", 8):
                assert _cites(run_suite(suite, dim, 5, 5, 1e-9, "exact")) == [], (suite, dim)
    reports = run_suite("all", 8, 5, 5, 1e-9, "exact")
    assert _cites(reports) == [
        ("algebroid_symbolic.antisymmetry", "lie3.antisymmetry_0_0"),
        ("algebroid_symbolic.jacobi", "lie3.jacobi_0_0_0"),
        ("algebroid_symbolic.anchor_image_in_kernel", "foliation.anchor_image_tangent"),
    ]
    verdicts = {r.suite + "." + c.name: c.passed for r in reports for c in r.checks}
    assert all(verdicts[name] is verdicts[source] is True for name, source in _cites(reports))
    _no_child_left()


def test_the_cite_table_names_proved_checks_of_suites():
    names = [name for name, _, _ in algebroid.SYMBOLIC_CHECKS]
    assert set(algebroid.CITES) <= set(names)
    for source in algebroid.CITES.values():
        suite = source.split(".")[0]
        assert suite in SUITES, source
        # the suite's own run proves the source; it cites nothing there
        checks = {r.suite + "." + c.name: c for r in run_suite(suite, 8, 5, 5, 1e-9, "exact") for c in r.checks}
        assert checks[source].cites is None and checks[source].passed is True, source
    _no_child_left()


@pytest.mark.parametrize(
    "row, source",
    [("antisymmetry", "lie3.antisymmetry"), ("leibniz_rule", "foliation.no_such_check")],
    ids=["lie3", "foliation"],
)
def test_a_cite_without_its_source_aborts(monkeypatch, capsys, row, source):
    # the source's suite runs in the call, but no check of it has that name
    monkeypatch.setattr(algebroid, "CITES", {row: source})
    assert main(["verify", "--suite", "all", "--dim", "8", "--backend", "exact", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: suite aborted: algebroid_symbolic.%s cites %s, which this call does not prove" % (row, source) in err
    _no_child_left()


def _verdicts(capsys, *argv):
    rc, out = _verify_json(capsys, *argv, "--backend", "exact")
    return {c["name"]: c["passed"] for c in json.loads(out)["checks"]}


def _tangency_with_flipped_term(original):
    # u conj(y) - x conj(v) in the middle component of J
    def tangency(u, v, x, y):
        first, middle, last = original(u, v, x, y)
        return first, middle - (x * v.conjugate()).scale(2), last

    return tangency


@pytest.mark.parametrize(
    "modules, name, mutate, fails, holds",
    [
        (
            (algebroid, lie3),
            "bracket_e0",
            _bracket_with_extra_weight,
            ["algebroid_symbolic.jacobi", "lie3.jacobi_0_0_0"],
            ["algebroid_symbolic.antisymmetry", "lie3.antisymmetry_0_0"],
        ),
        (
            (foliation,),
            "_tangency",
            _tangency_with_flipped_term,
            ["algebroid_symbolic.anchor_image_in_kernel", "foliation.anchor_image_tangent"],
            [],
        ),
    ],
    ids=["bracket_e0", "tangency"],
)
def test_a_cite_fails_with_its_source(monkeypatch, capsys, modules, name, mutate, fails, holds):
    # all --dim 8 proves each shared claim once: a mutation gives both names
    # the verdicts that the single-suite runs, which prove both, give them
    mutated = mutate(getattr(modules[0], name))
    for module in modules:  # lie3 binds bracket_e0 under its own name
        monkeypatch.setattr(module, name, mutated)
    single = {}
    for suite in ("algebroid", "lie3", "foliation"):
        single.update(_verdicts(capsys, "--suite", suite, "--dim", "8"))
    together = _verdicts(capsys, "--suite", "all", "--dim", "8")
    assert [single[n] for n in fails + holds] == [False] * len(fails) + [True] * len(holds)
    assert [together[n] for n in fails + holds] == [single[n] for n in fails + holds]
    _no_child_left()


def _flipped_bracket(original):
    # the term (a v) conj(y) of [x, z] with its sign flipped
    def bracket(s1, s2, ring):
        out = original(s1, s2, ring)
        if (lie3.degree(s1), lie3.degree(s2)) == (0, -1):
            _, y = coordinate_elements(ring, s1.dim)
            term = (s2.a * s1.v) * y.conjugate()
            out = lie3.Sec1(out.mu, out.a - term - term, out.nu)
        return out

    return bracket


@pytest.mark.parametrize(
    "module, name, mutate, suite, check",
    [
        (lie3, "bracket", _flipped_bracket, "lie3", "lie3.leibniz_0_m1"),
        (algebroid, "_rho", _doubled_rho_v_part, "algebroid", "algebroid_symbolic.jacobi"),
    ],
    ids=["lie3", "algebroid"],
)
def test_the_childs_verdict_reaches_the_report(monkeypatch, capsys, module, name, mutate, suite, check):
    # the head of each suite, which holds the check, runs in the forked child
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    rc, out = _verify_json(capsys, "--suite", suite, "--backend", "exact")
    assert rc == 1
    assert {c["name"]: c["passed"] for c in json.loads(out)["checks"]}[check] is False
    _no_child_left()


def _fault(original):
    def fault(*args):
        raise ValueError("injected fault")

    return fault


@pytest.mark.parametrize(
    "module, name, mutate, argv",
    [
        (algebra, "verify_algebra_identities", _fault, ["--suite", "all", "--dim", "2"]),
        (foliation, "verify_foliation", _fault, ["--suite", "all", "--dim", "2"]),
        (lie3, "leibniz_residual", _fault, ["--suite", "lie3"]),
        (lie3, "_mirrored_jacobiator", _fault, ["--suite", "lie3"]),
        (algebroid, "verify_groupoid_consistency", _fault, ["--suite", "algebroid"]),
        (algebroid, "vf_commutator", _fault, ["--suite", "algebroid"]),
    ],
    ids=["first_unit", "last_unit", "lie3_child", "lie3_parent", "algebroid_child", "algebroid_parent"],
)
def test_a_unit_that_raises_aborts_all(monkeypatch, capsys, module, name, mutate, argv):
    # all --dim 2: the parent runs algebra, the child foliation; lie3: the
    # child runs the head and the parent the Jacobi proof and the tail;
    # algebroid: the child runs the head and the tail, the parent the
    # anchor morphism
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    assert main(["verify", *argv, "--samples", "5"]) == 1
    err = capsys.readouterr().err
    assert "error: suite aborted: injected fault" in err
    assert "--help" not in err
    _no_child_left()


def _raises(error):
    def fault(*args):
        raise error

    return fault


@pytest.mark.parametrize(
    "module, name, argv",
    [
        (leaves, "verify_leaves", ["--suite", "leaves", "--dim", "8"]),
        (leaves, "verify_leaves", ["--suite", "all", "--dim", "8"]),
        (algebra, "verify_algebra_identities", ["--suite", "all", "--dim", "8"]),
    ],
    ids=["leaves", "all_command_side", "all_child_side"],
)
def test_any_error_of_a_unit_aborts_with_its_type(monkeypatch, capsys, module, name, argv):
    # a TypeError is a fault in the program, not in the flags: exit 1, no traceback
    monkeypatch.setattr(module, name, _raises(TypeError("injected type fault")))
    assert main(["verify", *argv, "--samples", "5"]) == 1
    err = capsys.readouterr().err
    assert "error: suite aborted: TypeError: injected type fault" in err
    assert "Traceback" not in err and "--help" not in err
    _no_child_left()


def test_an_interrupt_is_not_a_suite_abort(monkeypatch, capsys):
    monkeypatch.setattr(leaves, "verify_leaves", _raises(KeyboardInterrupt()))
    for argv in (["--suite", "leaves", "--dim", "8"], ["--suite", "all", "--dim", "8"]):
        with pytest.raises(KeyboardInterrupt):
            main(["verify", *argv, "--samples", "5"])
        assert "suite aborted" not in capsys.readouterr().err
        _no_child_left()


def test_a_child_that_dies_aborts_all(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_child", lambda *args: os._exit(3))
    for argv in (["--suite", "all", "--dim", "2"], ["--suite", "lie3"], ["--suite", "algebroid"]):
        assert main(["verify", *argv, "--samples", "5"]) == 1, argv
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


# the laws that sample, by the square root each one goes through; a law
# that reads only lambda^2, pi or the phi numerator is proved instead
SQUARE_ROOT_LAWS = {
    "lambda in the target, composition and inverses": {
        "groupoid.norm_preserved",
        "groupoid.slope_invariant",
        "groupoid.lambda_mult",
        "groupoid.endpoints",
        "groupoid.assoc",
        "groupoid.left_unit",
        "groupoid.right_unit",
        "groupoid.inv_left",
        "groupoid.inv_right",
        "groupoid.lambda_inv",
        "groupoid.t_of_i_is_s",
    },
    "|x| in the connecting arrow": {"groupoid.connect", "groupoid.connect_lambda"},
    "|1 + conj(x) F + conj(y) G| in phi": {
        "phi_morphism.phi_multiplicative",
        "phi_morphism.phi_matches_target",
    },
    "the norms of the G2 frames": {
        "g2.automorphism_on_basis_pairs",
        "g2.orthogonal_matrix",
        "g2.lambda_invariant",
        "g2.target_equivariant",
        "g2.composition_equivariant",
    },
}


def test_only_laws_through_a_square_root_sample(capsys):
    sampled = set()
    for dim in (1, 2, 4, 8):
        argv = ("--suite", "all", "--dim", str(dim), "--backend", "float", "--samples", "20")
        rc, text = _verify_json(capsys, *argv)
        assert rc == 0, dim
        sampled |= {c["name"] for c in json.loads(text)["checks"] if "max_residual" in c["info"]}
    expected = set().union(*SQUARE_ROOT_LAWS.values())
    assert len(expected) == 20
    assert sampled == expected


PROVED_SLOPE_AND_LAMBDA_LAWS = [
    "leaves.slope_scale_invariance",
    "leaves.same_leaf_separates_slopes",
    "groupoid.unit_rescale",
    "groupoid.rescale_degenerate_slots",
    "phi_morphism.lambda_is_norm",
    "phi_morphism.phi_of_unit",
]


def test_proved_slope_and_lambda_laws_ignore_the_sampling_flags(capsys):
    # the six are polynomial identities: no flag but the dim reaches them
    def proved(*flags):
        checks = []
        for suite, dim in (("leaves", "8"), ("groupoid", "4")):
            _, text = _verify_json(capsys, "--suite", suite, "--dim", dim, *flags)
            checks += [c for c in json.loads(text)["checks"] if c["name"] in PROVED_SLOPE_AND_LAMBDA_LAWS]
        return checks

    base = {"--backend": "float", "--seed": "101", "--samples": "1", "--tol": "1e-3"}
    reference = proved(*itertools.chain(*base.items()))
    assert [c["name"] for c in reference] == PROVED_SLOPE_AND_LAMBDA_LAWS
    assert all(c["passed"] and c["info"] == {} for c in reference)
    for flag, value in (("--samples", "2000"), ("--tol", "1e-12"), ("--seed", "7"), ("--backend", "exact")):
        flags = dict(base, **{flag: value})
        assert proved(*itertools.chain(*flags.items())) == reference, flag


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
