"""One workload in a fresh interpreter; prints one JSON object on stdout.

    python3 perfbench/worker.py --workload sampled_laws --seed 1 --seconds 36 --trace 0

run.py starts this with ``src`` on PYTHONPATH and the BLAS thread counts
pinned to 1.  It calls ``ohopf.cli.main(argv)`` in a closed loop, one caller,
each call starting when the previous one has returned:

1. the workload's reduced-size warm-up pass, which runs the lazy imports and
   fills the ``lru_cache`` tables;
2. trace 0: full passes for ``--seconds``, at least two, so the canonical
   JSON of every pass can be compared with the first one, while a
   reference.SpeedSampler samples the interpreter's speed during the calls;
   trace 1: untraced passes for half the time, then traced passes for the
   other half (at least one of each), with no sampler.

Every pass, the warm-up included, is judged against the known answers in
verdicts.py; only the calls themselves are timed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

import reference
from verdicts import Verdicts
from workloads import WORKLOADS


def run_call(cli, argv):
    """(exit status, stdout, error) of one ``ohopf.cli.main(argv)`` call."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a wrong verdict, not a benchmark failure
        return None, out.getvalue(), "%s: %s" % (type(exc).__name__, exc)
    return rc, out.getvalue(), None


class Runner:
    """Runs and judges the passes of one workload."""

    def __init__(self, workload: str, seed: int, sampler=None):
        self.workload = WORKLOADS[workload]
        self.sampler = sampler  # a reference.SpeedSampler, active while calls are timed
        self.pass_samples = []  # the sampler's samples, one list per full pass
        self.seed = seed
        self.verdicts = Verdicts()
        self.first_pass = None  # canonical JSON of each call in the first full pass
        self.checks = []  # checks reported by each full pass

    def one_pass(self, label: str, warmup: bool = False) -> float:
        """Run every call of the workload (or of its warm-up) once; returns the wall
        seconds of the calls, less the time the sampler took."""
        from ohopf import cli

        calls = self.workload.warmup if warmup else self.workload.calls
        commands = [c.command(self.seed) for c in calls]
        with self.sampler or contextlib.nullcontext():
            stolen = self.sampler.stolen_s if self.sampler else 0.0
            start = time.perf_counter()
            outputs = [run_call(cli, argv) for argv in commands]
            elapsed = time.perf_counter() - start
        if self.sampler:
            elapsed -= self.sampler.stolen_s - stolen
            if not warmup:
                self.pass_samples.append(self.sampler.samples[:])
            self.sampler.samples.clear()
        first = None if warmup else self.first_pass
        checks = 0
        for i, (call, (rc, text, error)) in enumerate(zip(calls, outputs)):
            ref = first[i] if first else None
            checks += self.verdicts.judge("%s call %d" % (label, i), call, rc, text, error, ref)
        if not warmup:
            if self.first_pass is None:
                self.first_pass = [text for _, text, _ in outputs]
            self.checks.append(checks)
        return elapsed


def timed_passes(runner: Runner, label: str, seconds: float, at_least: int, on_pass=None):
    """At least ``at_least`` full passes, then more while another pass as long as
    the last one still ends within ``seconds``."""
    times = []
    while len(times) < at_least or sum(times) + times[-1] <= seconds:
        times.append(runner.one_pass("%s %d" % (label, len(times))))
        if on_pass is not None:
            on_pass(times[-1])
    return times


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import ohopf.cli  # noqa: F401  (the set-up a user pays; timed by run.py in its own probes)

    loaded = set(sys.modules)
    sampler = None if trace else reference.SpeedSampler()
    runner = Runner(workload, seed, sampler)
    runner.one_pass("warm-up", warmup=True)
    result = {}
    if not trace:
        result["passes"] = timed_passes(runner, "pass", seconds, 2)
        result["reference"] = runner.pass_samples
    else:
        import statistics

        from tracer import Tracer, layer_metrics

        result["passes"] = timed_passes(runner, "pass", seconds / 2, 1)
        tracer = Tracer()
        layers = []

        def collect(pass_s):
            layers.append(layer_metrics(tracer, pass_s))
            result["spans"] = {n: s.as_dict() for n, s in sorted(tracer.stats.items())}
            tracer.reset()

        tracer.install()
        try:
            result["traced_passes"] = timed_passes(runner, "traced", seconds / 2, 1, collect)
        finally:
            tracer.uninstall()
        result["layers"] = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
    result.update(
        checks_per_pass=min(runner.checks),
        attempted=runner.verdicts.attempted,
        failed=runner.verdicts.failed,
        problems=runner.verdicts.problems,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        lazy_modules=sorted(set(sys.modules) - loaded),
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
