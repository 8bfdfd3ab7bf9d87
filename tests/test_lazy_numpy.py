"""numpy loads on first float use: the exact calls never import it, no call
imports numpy.random, and numpy values still take the paths that no longer
import numpy to recognize them."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ohopf.algebra import AlgebraElement, from_array
from ohopf.report import VerificationReport

_SRC = str(Path(__file__).resolve().parents[1] / "src")

EXACT_CALLS = [
    ["verify", "--suite", "lie3", "--backend", "exact"],
    ["verify", "--suite", "algebroid", "--backend", "exact"],
    *(["verify", "--suite", "algebra", "--dim", str(dim)] for dim in (1, 2, 4, 8, 16)),
]
FLOAT_CALL = ["verify", "--suite", "groupoid", "--dim", "1", "--samples", "1"]
ALL_CALL = ["verify", "--suite", "all", "--dim", "8", "--samples", "1"]
# numpy.random, and what its import pulls in through secrets -> hmac -> hashlib
RANDOM_MODULES = ["numpy.random", "_hashlib", "secrets"]

# one line per step: the step, its exit status, whether numpy is loaded, and
# which of RANDOM_MODULES are
_PROBE = """
import contextlib, io, json, os, sys

del os.fork  # every unit runs in this process, the one probed
RANDOM_MODULES = %r


def step(name, rc=None):
    print(json.dumps([name, rc, "numpy" in sys.modules, [m for m in RANDOM_MODULES if m in sys.modules]]))


import ohopf
step("import ohopf")
import ohopf.cli
step("import ohopf.cli")
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = ohopf.cli.main([*argv, "--format", "json"] if argv[0] == "verify" else argv)
    step(" ".join(argv), rc)
# after the first float call, groupoid's np is numpy itself, not its stand-in
import ohopf.groupoid
step("groupoid binds numpy", ohopf.groupoid.np is sys.modules.get("numpy"))
""" % RANDOM_MODULES


def test_exact_calls_leave_numpy_unimported(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("OHOPF_")}
    env["PYTHONPATH"] = _SRC
    export = ["export-leaf", "-n", "5", "--out", str(tmp_path / "leaf.csv")]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([*EXACT_CALLS, FLOAT_CALL, ALL_CALL, export])],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    steps = [json.loads(line) for line in proc.stdout.splitlines()]
    assert steps[:-4] == [
        ["import ohopf", None, False, []],
        ["import ohopf.cli", None, False, []],
        *([" ".join(argv), 0, False, []] for argv in EXACT_CALLS),
    ]
    # the first float call loads numpy and passes; no float call loads
    # numpy.random or what its import brings
    assert steps[-4:] == [
        [" ".join(FLOAT_CALL), 0, True, []],
        [" ".join(ALL_CALL), 0, True, []],
        [" ".join(export), 0, True, []],
        ["groupoid binds numpy", True, True, []],
    ]


def _json(report):
    return json.dumps(report.as_dict()["checks"], sort_keys=True)


E2 = AlgebraElement.basis(4, 2)


def test_a_numpy_scalar_coefficient_is_not_a_batch():
    a = AlgebraElement((np.float64(0.0), np.float64(2.0), 0, np.float64(-0.5)))
    # a zero np.float64 drops out of the product like 0.0; no batch refusal
    assert not a.is_zero() and a == a
    report = VerificationReport("t")
    product, inverse = (a * E2).coeffs, a.inverse().coeffs
    report.add("scalar", "law", True, product=product, norm_sq=a.inner(a), inverse=inverse)
    assert _json(report) == (
        '[{"info": {"inverse": [0.0, -0.47058823529411764, 0.0, 0.11764705882352941],'
        ' "norm_sq": 4.25, "product": [0, 0.5, 0, 2.0]}, "law": "law", "name": "scalar", "passed": true}]'
    )


def test_an_array_coefficient_is_a_batch():
    # a one-row batch whose row is zero: bool() of the array is False, yet it stays
    one_row = AlgebraElement((np.array([0.0]), np.array([1.0]), 0.0, 0.0))
    product = (one_row * E2).coeffs
    assert [c.tolist() if isinstance(c, np.ndarray) else c for c in product] == [0, 0, [0.0], [1.0]]
    batch = from_array(np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 2.0, 0.0]]))
    for refused in (batch.is_zero, lambda: batch == batch):
        with pytest.raises(TypeError, match="batch"):
            refused()
    report = VerificationReport("t")
    product, inverse = (batch * E2).coeffs, batch.inverse().as_floats()
    report.add("batch", "law", True, norm_sq=batch.norm_sq(), product=product, inverse=inverse)
    assert _json(report) == (
        '[{"info": {"inverse": [[0.0, -1.0, -0.0, -0.0], [0.2, -0.0, -0.4, -0.0]],'
        ' "norm_sq": [1.0, 5.0], "product": [[-0.0, -2.0], [-0.0, -0.0], [0.0, 1.0], [1.0, 0.0]]},'
        ' "law": "law", "name": "batch", "passed": true}]'
    )


def test_numpy_values_in_info_serialize_as_before():
    report = VerificationReport("t")
    report.add(
        "info",
        "law",
        True,
        i=np.int64(3),
        f=np.float64(0.5),
        g=np.float32(0.25),
        a=np.array([1, 2]),
        m=np.arange(4.0).reshape(2, 2),
        b=np.bool_(True),
    )
    assert _json(report) == (
        '[{"info": {"a": [1, 2], "b": "True", "f": 0.5, "g": 0.25, "i": 3,'
        ' "m": [[0.0, 1.0], [2.0, 3.0]]}, "law": "law", "name": "info", "passed": true}]'
    )


def test_a_nan_residual_fails_its_sampled_law():
    report = VerificationReport("t")
    report.law("array", "law", 1e-9).record(np.array([0.0, np.nan, 2.0]))
    report.law("scalar", "law", 1e-9).record(np.float64("nan"))
    fine = report.law("fine", "law", 1e-9)
    fine.record(np.float64(1e-12))
    fine.record(np.array([]))
    assert math.isnan(report.checks[0].info["max_residual"])
    assert _json(report) == (
        '[{"info": {"max_residual": NaN}, "law": "law", "name": "array", "passed": false},'
        ' {"info": {"max_residual": NaN}, "law": "law", "name": "scalar", "passed": false},'
        ' {"info": {"max_residual": 1e-12}, "law": "law", "name": "fine", "passed": true}]'
    )
