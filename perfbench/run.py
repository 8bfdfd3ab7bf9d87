"""Benchmark of the ohopf verifier: time to a verdict, set-up time, memory.

    python3 perfbench/run.py --workload full_dim8 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Runs the workload (see workloads.py) in a fresh child interpreter
(worker.py) with ``src`` on PYTHONPATH, the BLAS thread counts pinned to 1
and no OHOPF_* variables, so workloads share no heap or imports.  With
``--trace 0`` it reports the end-to-end metrics:

  verdict_s    median wall seconds of one warm pass through the workload's calls
  setup_s      median wall seconds of a fresh interpreter that imports ohopf.cli
               and every module the workload imported lazily (7 probes)
  peak_rss_mb  ru_maxrss of the child that ran the workload
  checks_run   checks reported per pass

Both times are rescaled to a reference interpreter speed, sampled during the
timed passes and between the probes (reference.py), because the CPU speed of
a shared machine drifts; the raw wall medians are printed as verdict_wall_s and
setup_wall_s.

With ``--trace 1`` the child also runs traced passes (tracer.py) and the
per-layer metrics are reported instead.  Every verdict is checked against the
known answers in verdicts.py; the wrong ones are ``failed`` in the last line,
and any makes the exit status 1.  The last line of stdout is one JSON object;
a record of the run, with every span total, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import reference
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 7
MIN_PASS_SAMPLES = 5
RUN_LIMIT_S = 170  # the whole run must end within 180 s

END_TO_END_UNITS = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "checks_run": "count"}

# Per-layer metrics reported with --trace 1: the counts of every layer, and the
# times that are nonzero on every workload.  The times of layers that some
# workload never enters (exactsolve, groupoid, lie3, ...) are printed and kept
# in the run record instead.
PER_LAYER_UNITS = {
    "polyring.mul.calls": "count",
    "polyring.mul.self_s": "s",
    "polyring.addsub.calls": "count",
    "polyring.addsub.self_s": "s",
    "polyring.peak_terms": "count",
    "polyring.self_s": "s",
    "algebra.mul.float.calls": "count",
    "algebra.mul.poly.calls": "count",
    "algebra.mul.poly.self_s": "s",
    "algebra.mul.exact.calls": "count",
    "algebra.mul.exact.self_s": "s",
    "algebra.self_s": "s",
    "exactsolve.calls": "count",
    "groupoid.target.calls": "count",
    "groupoid.calls": "count",
    "leaves.classify.calls": "count",
    "leaves.self_s": "s",
    "algebroid.calls": "count",
    "lie3.calls": "count",
    "foliation.calls": "count",
    "foliation.self_s": "s",
    "report.render_s": "s",
    "cli.self_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_ratio": "ratio",
}
TRACE_ONLY_UNITS = {
    "exactsolve.self_s": "s",
    "algebra.mul.float.self_s": "s",
    "groupoid.self_s": "s",
    "groupoid.arrows_per_s": "1/s",
    "algebroid.self_s": "s",
    "lie3.self_s": "s",
    "lie3.generic_ranks_s": "s",
    "foliation.sampled_oracle_s": "s",
    "foliation.linear_nullspace_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("OHOPF_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, timeout: float) -> str:
    """Stdout of a child interpreter; subprocess.run kills and reaps it on timeout."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("child %s timed out after %.0f s" % (argv[:2], timeout)) from None
    if proc.returncode != 0:
        raise BenchError("child %s exited with status %d" % (argv[:2], proc.returncode))
    return proc.stdout


PROBE = """import importlib, sys
import ohopf.cli
for name in sys.argv[1:]:
    try:
        importlib.import_module(name)
    except ImportError:
        pass
"""


def setup_times(lazy_modules, deadline: float):
    """Wall seconds of the set-up probes, and reference samples taken between them."""
    times, ref = [], reference.samples(4)
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        run_child(["-c", PROBE, *lazy_modules], deadline - time.monotonic())
        times.append(time.perf_counter() - start)
        ref += reference.samples(4)
    return times, ref


def rescale(seconds: float, samples) -> float:
    """``seconds`` as they would read at the reference speed (see reference.py).

    Work done at a varying speed adds up as time x speed, and speed is the
    inverse of a sample's duration, so the samples enter as a harmonic mean.
    """
    return seconds * reference.REFERENCE_S / statistics.harmonic_mean(samples)


def rescaled_passes(passes, pass_samples) -> list:
    """Each pass rescaled by the speed sampled during it; a pass too short for
    MIN_PASS_SAMPLES samples is rescaled by the samples of the whole run."""
    pooled = [x for samples in pass_samples for x in samples]
    return [
        rescale(p, samples if len(samples) >= MIN_PASS_SAMPLES else pooled)
        for p, samples in zip(passes, pass_samples)
    ]


def source_record(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ohopf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def metric(value, unit, n=None):
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    worker = [
        str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(trace)),
    ]
    out = run_child(worker, deadline - time.monotonic()).strip().splitlines()
    try:
        child = json.loads(out[-1])
    except (IndexError, ValueError):
        raise BenchError("worker printed no result") from None
    passes = child["passes"]
    metrics = {}
    if not trace:
        setup, setup_ref = setup_times(child["lazy_modules"], deadline)
        verdict_wall, setup_wall = statistics.median(passes), statistics.median(setup)
        verdict = statistics.median(rescaled_passes(passes, child["reference"]))
        metrics["verdict_s"] = metric(verdict, "s", len(passes))
        metrics["setup_s"] = metric(rescale(setup_wall, setup_ref), "s", len(setup))
        metrics["peak_rss_mb"] = metric(child["maxrss_kb"] / 1024, "MB", 1)
        metrics["checks_run"] = metric(child["checks_per_pass"], "count", len(passes))
        metrics["verdict_wall_s"] = metric(verdict_wall, "s", len(passes))
        metrics["setup_wall_s"] = metric(setup_wall, "s", len(setup))
        pooled = [x for samples in child["reference"] for x in samples]
        metrics["reference_s"] = metric(statistics.median(pooled), "s", len(pooled))
    else:
        layers = dict(child["layers"])
        traced = child["traced_passes"]
        layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(passes)
        for key, unit in {**PER_LAYER_UNITS, **TRACE_ONLY_UNITS}.items():
            metrics[key] = metric(layers[key], unit, len(traced))
        child["layers"] = layers
    return {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
        "child": child,
    }


def report(name: str, seed: int, trace: bool, result: dict) -> dict:
    """Print the human-readable lines, write the run record, return the result line."""
    record = source_record(seed)
    child = result.pop("child")
    print("workload %s  seed %d  trace %d  %s" % (name, seed, trace, json.dumps(record)))
    for key, m in result["metrics"].items():
        extra = "" if key in END_TO_END_UNITS or key in PER_LAYER_UNITS else "  (record only)"
        print("  %-28s %14.6g %-6s n=%s%s" % (key, m["value"], m["unit"], m.get("n"), extra))
    if trace:
        shares = {k: v for k, v in child["layers"].items() if k.endswith(".share")}
        print("  self-time shares: " + ", ".join("%s %.3f" % kv for kv in shares.items()))
    print("  checks attempted %d, wrong %d" % (result["attempted"], result["failed"]))
    for problem in child["problems"]:
        print("  WRONG: " + problem)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / ("%s-seed%d-trace%d.json" % (name, seed, trace))
    path.write_text(json.dumps({"record": record, **result, "child": child}, indent=1) + "\n")
    # the last line carries only the metrics BENCHMARK.json lists for this mode
    listed = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result["metrics"] = {k: v for k, v in result["metrics"].items() if k in listed}
    for m in result["metrics"].values():
        m.pop("n", None)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ohopf" / "cli.py").is_file():
        print("error: %s/ohopf not found; run from a checkout of the repository" % SRC, file=sys.stderr)
        return 2
    compileall.compile_dir(SRC / "ohopf", quiet=1)  # the first set-up probe must not pay bytecode compilation
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            raw = run_workload(name, args.seed, args.seconds, bool(args.trace))
            results.append((name, report(name, args.seed, bool(args.trace), raw)))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if len(results) == 1:
        line = results[0][1]
    else:
        line = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {"%s.%s" % (n, k): m for n, r in results for k, m in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
