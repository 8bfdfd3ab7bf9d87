"""Self-tests of the benchmark: span arithmetic, wrapper restoration, verdicts, smoke passes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ohopf import algebra, cli, groupoid, lie3, polyring
from ohopf.algebra import AlgebraElement, coordinate_elements
from ohopf.polyring import PolyRing
from tracer import Tracer, layer_metrics
from verdicts import TANGENCY_MATRIX, Verdicts
from worker import Runner, run_call
from workloads import WORKLOADS, Call

HERE = Path(__file__).resolve().parent


def counting_clock():
    ticks = iter(range(10**9))
    return lambda: float(next(ticks))


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 7.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    inner = t.wrap("b.inner", lambda: None)

    def body():
        inner()  # 1 .. 4
        inner()  # 5 .. 7

    t.wrap("a.outer", body)()  # 0 .. 10
    assert t.stats["b.inner"].calls == 2
    assert t.stats["b.inner"].self_s == 5.0
    assert t.stats["a.outer"].self_s == 5.0
    assert t.stats["a.outer"].inclusive_s == 10.0


def test_recursive_span_inclusive_time_counts_outermost_only():
    ticks = iter([0.0, 2.0, 3.0, 6.0])
    t = Tracer(clock=lambda: next(ticks))

    def f(depth):
        return wrapped(depth - 1) if depth else None

    wrapped = t.wrap("a.f", f)
    wrapped(1)
    assert t.stats["a.f"].calls == 2
    assert t.stats["a.f"].self_s == 6.0
    assert t.stats["a.f"].inclusive_s == 6.0


def test_algebra_product_excludes_polyring_children():
    t = Tracer(clock=counting_clock())
    t.install()
    try:
        ring = PolyRing(8)
        x, y = coordinate_elements(ring, 8)
        product = x * y
    finally:
        t.uninstall()
    poly = t.stats["algebra.AlgebraElement.__mul__[poly]"]
    children = [s for n, s in t.stats.items() if n.startswith("polyring.")]
    assert poly.calls == 1 and sum(s.calls for s in children) > 64
    # the self times of the product and of every span below it partition the
    # product's interval: nothing is counted twice and nothing is lost
    assert 0 < poly.self_s < poly.inclusive_s
    assert sum(s.self_s for s in t.stats.values()) == poly.inclusive_s
    assert t.peak_terms == max(len(c.terms) for c in product.coeffs)
    m = layer_metrics(t, poly.inclusive_s)
    assert m["algebra.mul.poly.calls"] == 1 and m["algebra.mul.float.calls"] == 0
    assert m["polyring.mul.calls"] == 64


def test_uninstall_restores_every_wrapped_attribute():
    originals = {
        "lie3.anchor": lie3.anchor,
        "groupoid.same_leaf": groupoid.same_leaf,
        "Polynomial.__radd__": vars(polyring.Polynomial)["__radd__"],
        "AlgebraElement.__mul__": vars(AlgebraElement)["__mul__"],
        "cli.main": cli.main,
        "algebra.mult_table": algebra.mult_table,
    }
    t = Tracer()
    t.install()
    try:
        installed = {(getattr(s, "__name__", s), a) for s, a, _ in t.installed}
        for space, attr in (
            ("ohopf.lie3", "anchor"),
            ("ohopf.groupoid", "same_leaf"),
            ("Polynomial", "__radd__"),
            ("Polynomial", "__rmul__"),
            ("AlgebraElement", "__mul__"),
        ):
            assert (space, attr) in installed
        assert lie3.anchor is not originals["lie3.anchor"]
        rc, text, error = run_call(cli, ["verify", "--suite", "algebra", "--dim", "2", "--format", "json"])
        assert rc == 0 and error is None
        assert t.stats["cli.main"].calls == 1
    finally:
        t.uninstall()
    assert t.leftover_wrappers() == []
    assert lie3.anchor is originals["lie3.anchor"]
    assert groupoid.same_leaf is originals["groupoid.same_leaf"]
    assert vars(polyring.Polynomial)["__radd__"] is originals["Polynomial.__radd__"]
    assert vars(AlgebraElement)["__mul__"] is originals["AlgebraElement.__mul__"]
    assert cli.main is originals["cli.main"]
    assert algebra.mult_table is originals["algebra.mult_table"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_pass_of_each_workload(name):
    runner = Runner(name, seed=3)
    runner.one_pass("smoke", warmup=True)
    expected = sum(c.checks for c in WORKLOADS[name].warmup)
    assert runner.verdicts.problems == []
    assert (runner.verdicts.attempted, runner.verdicts.failed) == (expected, 0)


def test_seed_reaches_sampled_calls():
    call = WORKLOADS["sampled_laws"].warmup[1]
    texts = [run_call(cli, call.command(seed))[1] for seed in (1, 2, 1)]
    assert texts[0] == texts[2] != texts[1]


def test_wrong_verdicts_are_counted():
    call = Call(("--suite", "lie3", "--backend", "exact"), 24, (TANGENCY_MATRIX,))
    rc, text, error = run_call(cli, call.command(0))
    v = Verdicts()
    assert v.judge("ok", call, rc, text, error, reference=text) == 24
    assert (v.attempted, v.failed) == (24, 0)

    doc = json.loads(text)
    matrix = next(c for c in doc["checks"] if c["law"] == TANGENCY_MATRIX)
    matrix["info"]["mismatches"] = [[0, 0]]
    v.judge("mismatch", call, rc, json.dumps(doc), None)
    assert v.failed == 1

    doc["checks"] = [c for c in doc["checks"] if c["law"] != TANGENCY_MATRIX]
    v.judge("missing", call, rc, json.dumps(doc), None)
    assert v.failed == 2

    v.judge("nondeterministic", call, rc, text.replace("\n", " \n", 1), None, reference=text)
    assert v.failed == 3

    v.judge("exit", call, 1, text, None)
    assert v.failed == 4

    v.judge("crash", call, None, "", "RuntimeError: boom")
    assert (v.attempted, v.failed) == (24 * 6, 4 + 24)


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full_dim8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
