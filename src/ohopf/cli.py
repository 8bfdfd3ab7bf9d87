"""Command-line entry point: run verification suites, export leaf samples.

    ohopf verify --suite all --dim 8 --seed 7 --samples 1000 --tol 1e-9 \
                 --backend float --out report.json --format json
    ohopf export-leaf --slope e1 --radius 1.0 -n 1000 --seed 7 --out leaf.csv

Every flag default can be overridden by an environment variable with the
OHOPF_ prefix (OHOPF_SEED, OHOPF_SAMPLES, OHOPF_TOL, ...); explicit flags
win over the environment.  JSON reports are canonical: two runs with the
same configuration and package version are byte-identical (timing is shown
only in the text format).  The exit status is 0 iff every check passed.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import pickle
import sys
import time

import numpy as np

from . import algebra, algebroid, foliation, groupoid, leaves, lie3
from .algebra import from_array
from .report import VerificationReport

BACKENDS = ("exact", "float")
FORMATS = ("json", "text")

SUITE_DIMS = {
    "algebra": (1, 2, 4, 8, 16),
    "leaves": (1, 2, 4, 8),
    "groupoid": (1, 2, 4, 8),
    "algebroid": (8,),
    "lie3": (8,),
    "foliation": (2, 4, 8),
    "all": (1, 2, 4, 8, 16),
}
SUITES = tuple(SUITE_DIMS)


def _env(name, fallback):
    return os.environ.get("OHOPF_" + name.upper(), fallback)


def _checked(convert, valid, requirement):
    """An argparse type= that converts, then validates.

    argparse also applies it to string defaults, so values taken from the
    OHOPF_* variables are checked the same way as flags.
    """

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError("%s, got %r" % (requirement, text))
        return value

    return parse


_count = _checked(int, lambda v: v >= 1, "must be an integer >= 1")
_tolerance = _checked(float, lambda v: math.isfinite(v) and v > 0, "must be finite and > 0")
_seed = _checked(int, lambda v: v >= 0, "must be an integer >= 0")
_radius = _checked(
    float, lambda v: v >= 0 and math.isfinite(v * v), "must be >= 0 with a finite square"
)


def _one_of(options):
    # choices= alone does not check a default taken from the environment
    return _checked(str, options.__contains__, "must be one of %s" % ", ".join(options))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ohopf",
        description="verification suites for the singular octonionic Hopf foliation",
        epilog="defaults honor OHOPF_* environment variables (OHOPF_SEED, OHOPF_TOL, ...)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument(
        "--suite", choices=SUITES, type=_one_of(SUITES), default=_env("suite", "all")
    )
    verify.add_argument("--dim", type=int, default=_env("dim", "8"))
    verify.add_argument("--seed", type=_seed, default=_env("seed", "0"))
    verify.add_argument("--samples", type=_count, default=_env("samples", "200"))
    verify.add_argument("--tol", type=_tolerance, default=_env("tol", "1e-9"))
    verify.add_argument(
        "--backend",
        choices=BACKENDS,
        type=_one_of(BACKENDS),
        default=_env("backend", "float"),
        help="exact leaves out G2 equivariance (groupoid at dim 8)",
    )
    verify.add_argument("--out", default=_env("out", None), help="write the report here")
    verify.add_argument(
        "--format", choices=FORMATS, type=_one_of(FORMATS), default=_env("format", "text")
    )

    export = sub.add_parser("export-leaf", help="sample a leaf and write CSV")
    export.add_argument(
        "--slope",
        default=_env("slope", "e1"),
        help="'origin', 'inf', 'eK' for a basis slope, or comma-separated coefficients",
    )
    export.add_argument("--radius", type=_radius, default=_env("radius", "1.0"))
    export.add_argument("-n", "--count", type=_count, default=_env("count", "100"))
    export.add_argument("--seed", type=_seed, default=_env("seed", "0"))
    export.add_argument("--dim", type=int, default=_env("dim", "8"))
    export.add_argument("--out", required=True)
    return parser


def _usage_error(message: str):
    print("error: %s" % message, file=sys.stderr)
    print("run 'ohopf verify --help' or 'ohopf export-leaf --help'", file=sys.stderr)
    raise SystemExit(2)


def _parse_leaf(text: str, dim: int, radius: float) -> leaves.LeafId:
    text = text.strip().lower()
    if text in ("origin", "0-leaf"):
        return leaves.origin_leaf(dim)
    if text in ("inf", "infinity", "oo"):
        leaf = leaves.infinity_leaf(dim, radius * radius)
        size = leaf.c
    else:
        leaf = leaves.slope_leaf(_parse_slope(text, dim), radius * radius)
        size = leaf.a
    # a size of 0 or a subnormal one would sample the origin, or junk, as this leaf
    if radius > 0 and size < sys.float_info.min:
        _usage_error(
            "radius %r is too small for floating point: the leaf's |x|^2 or |y|^2 is %g"
            % (radius, size)
        )
    return leaf


def _parse_slope(text: str, dim: int):
    if text.startswith("e") and text[1:].isdigit():
        k = int(text[1:])
        if k >= dim:
            _usage_error("slope e%d needs an index below the dimension %d" % (k, dim))
        return from_array([1.0 if i == k else 0.0 for i in range(dim)])
    try:
        coeffs = [float(p) for p in text.split(",")]
    except ValueError:
        _usage_error("slope %r is not 'origin', 'inf', 'eK', or a coefficient list" % text)
    if len(coeffs) != dim:
        _usage_error("slope needs %d comma-separated coefficients" % dim)
    # |m|^2 is finite only if every coefficient is; a NaN or inf slope samples junk
    if not math.isfinite(sum(c * c for c in coeffs)):
        _usage_error("slope coefficients and |m|^2 must be finite, got %r" % text)
    return from_array(coeffs)


def _check_dim(suite: str, dim: int):
    allowed = SUITE_DIMS[suite]
    if dim not in allowed:
        _usage_error(
            "suite %r runs at dims %s, not %d" % (suite, "/".join(map(str, allowed)), dim)
        )


class WorkerLost(RuntimeError):
    """The forked process of ``all`` ended without sending its reports."""


def _child(unit, sink: int):
    """The forked process: pickle the reports of ``unit``, or the exception it
    raised, into the ``sink`` pipe."""
    try:
        payload = unit()
    except Exception as exc:
        payload = exc
    with os.fdopen(sink, "wb") as fh:
        pickle.dump(payload, fh)


def _run_in_two_processes(units, forked: int) -> list:
    """The reports of every unit (a call that returns a list of reports), in
    unit order: one forked child runs ``units[forked]`` and this process the
    rest, so each call splits the same way.

    The parent reads the child's payload to EOF before it reaps the child (a
    payload larger than the pipe buffer would otherwise block both), then
    re-raises the child's exception, or raises WorkerLost if the child sent
    nothing or exited nonzero.  If a unit of the parent raises, the child is
    killed and reaped before the error goes on.  Fewer than two units, or a
    platform without os.fork, run here in order.
    """
    if len(units) < 2 or not hasattr(os, "fork"):
        return [report for unit in units for report in unit()]
    results, sink = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # the child leaves only through os._exit
        status = 1
        try:
            _child(units[forked], sink)
            status = 0
        finally:
            os._exit(status)
    os.close(sink)
    with os.fdopen(results, "rb") as fh:
        try:
            done = [None if index == forked else unit() for index, unit in enumerate(units)]
            payload = fh.read()
        except BaseException:
            import signal

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code or not payload:
        raise WorkerLost("the forked process ended with exit code %d and no reports" % code)
    done[forked] = pickle.loads(payload)
    if isinstance(done[forked], BaseException):
        raise done[forked]
    return [report for reports in done for report in reports]


# The suites by cost at the dims that run them, the costliest first (dim 8,
# --samples 200, 2 vCPU: lie3 0.52 s, foliation 0.24, algebroid 0.22, groupoid
# 0.08, algebra 0.04, leaves 0.01).  ``all`` forks the costliest suite it runs,
# so at dim 8 lie3 (0.52 s) runs beside the other five (0.59 s).
_BY_COST = ("lie3", "foliation", "algebroid", "groupoid", "algebra", "leaves")


def run_suite(suite: str, dim: int, seed: int, samples: int, tol: float, backend: str):
    """The reports a suite runs, in order: the one table of what each suite checks.

    ``all`` runs, under the same flags, every suite whose SUITE_DIMS contain
    ``dim``, one unit per suite, and returns their reports in table order.  On
    POSIX, with two or more suites, a forked child runs the costliest of them
    (_BY_COST) and this process the rest (_run_in_two_processes); the reports
    are the same as in one process.
    ``--backend exact`` leaves out G2 equivariance.
    """
    _check_dim(suite, dim)
    if suite == "all":
        names = [name for name in SUITES if name != "all" and dim in SUITE_DIMS[name]]
        return _run_in_two_processes(
            [functools.partial(run_suite, name, dim, seed, samples, tol, backend) for name in names],
            names.index(min(names, key=_BY_COST.index)),
        )
    if suite == "algebra":
        return [algebra.verify_algebra_identities(dim, seed), leaves.right_mult_counterexample(seed)]
    if suite == "leaves":
        return [leaves.verify_leaves(dim, samples, seed, tol)]
    if suite == "groupoid":
        reports = [
            groupoid.verify_structure(dim, samples, seed, tol),
            groupoid.verify_phi_morphism(dim, max(samples // 2, 50), seed, tol),
        ]
        if dim == 8 and backend != "exact":
            reports.append(groupoid.verify_g2_equivariance(max(samples // 20, 10), seed, tol))
        return reports
    if suite == "algebroid":
        return [algebroid.verify_algebroid_symbolic(dim), algebroid.verify_groupoid_consistency(dim)]
    if suite == "lie3":
        return [lie3.verify_lie3(), lie3.verify_matrix_vs_transcription(), lie3.generic_ranks()]
    reports = [foliation.verify_foliation(dim, seed)]  # suite == "foliation"
    if dim == 8:
        reports.append(foliation.linear_obstruction_report())
    return reports


def _merge(reports, suite, config) -> VerificationReport:
    merged = VerificationReport(suite, config)
    for r in reports:
        for c in r.checks:
            c = type(c)(r.suite + "." + c.name, c.law, c.passed, c.info)
            merged.checks.append(c)
    return merged


def cmd_verify(args) -> int:
    config = {
        "suite": args.suite,
        "dim": args.dim,
        "seed": args.seed,
        "samples": args.samples,
        "tol": args.tol,
        "backend": args.backend,
    }
    start = time.perf_counter()
    try:
        reports = run_suite(args.suite, args.dim, args.seed, args.samples, args.tol, args.backend)
    except (ValueError, WorkerLost) as exc:
        # flags were validated by the parser: a suite that raises is a fault, not bad input
        print("error: suite aborted: %s" % exc, file=sys.stderr)
        return 1
    merged = _merge(reports, args.suite, config)
    # wall time of the run: the suites of ``all`` overlap, so their times do not add
    merged.elapsed_s = time.perf_counter() - start
    rendered = merged.to_json() if args.format == "json" else merged.to_text()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            print("cannot write report: %s" % exc, file=sys.stderr)
            return 2
        print("wrote %s (%d checks, %s)" % (
            args.out,
            len(merged.checks),
            "all passed" if merged.passed else "FAILURES",
        ))
    else:
        sys.stdout.write(rendered)
    return 0 if merged.passed else 1


def cmd_export_leaf(args) -> int:
    _check_dim("leaves", args.dim)
    leaf = _parse_leaf(args.slope, args.dim, args.radius)
    pts = leaves.sample_leaf(leaf, args.count, args.seed)
    try:
        leaves.export_csv(pts, args.out)
    except OSError as exc:
        print("cannot write CSV: %s" % exc, file=sys.stderr)
        return 2
    # np.max keeps a NaN residual where max() would drop it
    residual = np.sqrt(np.max(leaves.leaf_distance_sq(leaves.classify(pts), leaf)))
    print("wrote %d points to %s  (max leaf residual %.3g)" % (args.count, args.out, residual))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_export_leaf(args)


if __name__ == "__main__":
    sys.exit(main())
