"""Command-line entry point: run verification suites, export leaf samples.

    ohopf verify --suite all --dim 8 --seed 7 --samples 1000 --tol 1e-9 \
                 --backend float --out report.json --format json
    ohopf export-leaf --slope e1 --radius 1.0 -n 1000 --seed 7 --out leaf.csv

Every flag default can be overridden by an environment variable with the
OHOPF_ prefix (OHOPF_SEED, OHOPF_SAMPLES, OHOPF_TOL, ...); explicit flags
win over the environment.  JSON reports are canonical: two runs with the
same configuration and package version are byte-identical (timing is shown
only in the text format).  The exit status is 0 iff every check passed.

On POSIX a verify call runs in two processes when it has two or more units
(_units): a forked child runs the share of the units that the measured cost
table UNIT_COST assigns it, this process the rest, and the reports merge in
unit order to the bytes one process gives.  A unit is one suite, except
that lie3 and algebroid split their symbolic proofs into three units, so
those two suites fork when run alone too.  A call that runs the suite of a
check in algebroid.CITES proves that claim once: the algebroid row cites
the check, and takes its verdict once both processes are done.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import pickle
import sys
import time

from . import algebra, algebroid, foliation, groupoid, leaves, lie3
from .algebra import from_array
from .report import LazyNumpy, VerificationReport

np = LazyNumpy(globals())

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
    # ASCII digits only: isdigit is also true for superscripts and other scripts' digits
    if text.startswith("e") and text[1:].isascii() and text[1:].isdigit():
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
    """The forked child of a verify call ended without sending its reports."""


def _child(unit, sink: int):
    """The forked process: pickle the reports of ``unit``, or the exception it
    raised, into the ``sink`` pipe."""
    try:
        payload = unit()
    except Exception as exc:
        payload = exc
    with os.fdopen(sink, "wb") as fh:
        pickle.dump(payload, fh)


# CPU milliseconds of each unit at dim 8 (seed 101, --samples 200, the median
# of five warm passes in one process), as ``all`` runs it: there algebroid.tail
# cites one check, and algebroid.head runs only in --suite algebroid.  CPU
# speed drifts between runs, so each run is scaled to algebra = 50 and the
# median of five runs kept, rounded to ten: tests/golden/unit_cost.py measures
# it.  _child_side uses them at every dim: only their order and rough ratios
# matter.  Integers, so that ties are exact.
UNIT_COST = {
    "algebra": 50,
    "leaves": 20,
    "groupoid": 90,
    "algebroid.head": 50,
    "algebroid.anchor_morphism": 50,
    "algebroid.tail": 30,
    "lie3.head": 150,
    "lie3.jacobi_0_0_m1": 120,
    "lie3.tail": 70,
    "foliation": 110,
}


def _child_side(names) -> list:
    """The indices of the units the forked child runs, in the order it runs
    them: costliest first, ties in unit order.

    Longest-processing-time assignment (Graham, SIAM J. Appl. Math. 17(2),
    1969) by UNIT_COST: the units, in that order, each go to the side with
    the lower cost so far, the child's on a tie.  The child runs the side
    that holds the costliest unit, so each call splits the same way, and
    runs that unit first: at dim 8 the heap the float suites leave behind
    would otherwise stack under the peak of the Jacobi proof.
    """
    side, load = [], [0, 0]
    for index in sorted(range(len(names)), key=lambda i: -UNIT_COST[names[i]]):
        lighter = int(load[1] < load[0])
        load[lighter] += UNIT_COST[names[index]]
        if lighter == 0:
            side.append(index)
    return side


def _run_in_two_processes(units) -> list:
    """The reports of every unit, a (name, call returning a list of reports)
    pair, in unit order: one forked child runs the units of _child_side, in
    its order, and this process the rest in unit order.

    The parent reads the child's payload to EOF before it reaps the child (a
    payload larger than the pipe buffer would otherwise block both), then
    re-raises the child's exception, or raises WorkerLost if the child sent
    nothing or exited nonzero.  If a unit of the parent raises, the child is
    killed and reaped before the error goes on.  Fewer than two units, or a
    platform without os.fork, run here in order.
    """
    if len(units) < 2 or not hasattr(os, "fork"):
        return [report for _, unit in units for report in unit()]
    forked = _child_side([name for name, _ in units])
    results, sink = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # the child leaves only through os._exit
        status = 1
        try:
            _child(lambda: [units[index][1]() for index in forked], sink)
            status = 0
        finally:
            os._exit(status)
    os.close(sink)
    with os.fdopen(results, "rb") as fh:
        try:
            done = [None if index in forked else unit() for index, (_, unit) in enumerate(units)]
            payload = fh.read()
        except BaseException:
            import signal

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code or not payload:
        raise WorkerLost("the forked process ended with exit code %d and no reports" % code)
    sent = pickle.loads(payload)
    if isinstance(sent, BaseException):
        raise sent
    for index, reports in zip(forked, sent):
        done[index] = reports
    return [report for reports in done for report in reports]


def _split_around(suite: str, report: str, rows, heaviest: str, rest) -> list:
    """Three units of a suite: the rows before the check ``heaviest``, that
    check, and the rows after it followed by ``rest()``, the suite's other
    reports.  Each unit proves its rows into a part of ``report``
    (algebroid.prove_rows).  A head of cites proves nothing, so it runs in
    that check's unit: each unit name keeps one cost.
    """
    at = [name for name, _, _ in rows].index(heaviest)
    start = at if any(not isinstance(proof, str) for _, _, proof in rows[:at]) else 0
    head = [(suite + ".head", lambda: [algebroid.prove_rows(report, rows[:at])])] if start else []
    return head + [
        (suite + "." + heaviest, lambda: [algebroid.prove_rows(report, rows[start : at + 1])]),
        (suite + ".tail", lambda: [algebroid.prove_rows(report, rows[at + 1 :])] + rest()),
    ]


def _units(
    suite: str, dim: int, seed: int, samples: int, tol: float, backend: str, suites=()
) -> list:
    """The units of a suite in report order: (name, call returning a list of
    reports), the one table of what each suite checks.

    ``all`` runs the units of every suite whose SUITE_DIMS contain ``dim``,
    and passes them as ``suites``.  The symbolic proofs of lie3 and
    algebroid are each split into three units around one heavy check;
    every other suite is one unit.  A row of algebroid.CITES whose source's
    suite is in ``suites`` names its source in place of its proof, so the
    call proves the claim once.
    """
    if suite == "all":
        names = [name for name in SUITES if name != "all" and dim in SUITE_DIMS[name]]
        return [
            unit for name in names for unit in _units(name, dim, seed, samples, tol, backend, names)
        ]
    if suite == "algebra":
        return [
            (
                "algebra",
                lambda: [algebra.verify_algebra_identities(dim, seed), leaves.right_mult_counterexample(seed)],
            )
        ]
    if suite == "leaves":
        return [("leaves", lambda: [leaves.verify_leaves(dim, samples, seed, tol)])]
    if suite == "groupoid":

        def groupoid_reports():
            reports = [
                groupoid.verify_structure(dim, samples, seed, tol),
                groupoid.verify_phi_morphism(dim, max(samples // 2, 50), seed, tol),
            ]
            if dim == 8 and backend != "exact":
                reports.append(groupoid.verify_g2_equivariance(max(samples // 20, 10), seed, tol))
            return reports

        return [("groupoid", groupoid_reports)]
    if suite == "algebroid":
        cited = {name: source for name, source in algebroid.CITES.items() if source.split(".")[0] in suites}
        return _split_around(
            "algebroid",
            "algebroid_symbolic",
            [(name, law, cited.get(name, proof)) for name, law, proof in algebroid.SYMBOLIC_CHECKS],
            "anchor_morphism",
            lambda: [algebroid.verify_groupoid_consistency(dim)],
        )
    if suite == "lie3":

        def matrix_reports():
            # one build of the resolution matrices for both reports
            mats = lie3.resolution_matrices()
            return [lie3.verify_matrix_vs_transcription(mats), lie3.generic_ranks(mats)]

        return _split_around("lie3", "lie3", lie3.CHECKS, "jacobi_0_0_m1", matrix_reports)

    def foliation_reports():  # suite == "foliation"
        # one exact elimination for both reports at dim 8
        nullspace = foliation.linear_nullspace(dim)
        reports = [foliation.verify_foliation(dim, seed, nullspace)]
        if dim == 8:
            reports.append(foliation.linear_obstruction_report(nullspace))
        return reports

    return [("foliation", foliation_reports)]


def run_suite(suite: str, dim: int, seed: int, samples: int, tol: float, backend: str):
    """The reports a suite runs, in order.

    On POSIX, a call of two or more units (_units) runs in two processes: a
    forked child runs the units that _child_side picks by their measured
    cost and this process the rest (_run_in_two_processes).  A single suite
    may split too: lie3 and algebroid each fork part of their three units.  A
    report split across units comes back as consecutive parts under one
    suite name, and the parts merge (_merge) to the same canonical JSON as
    one process gives.  ``--backend exact`` leaves out G2 equivariance.

    A call that runs the source suite of a row of algebroid.CITES cites the
    source there (_units).  Once both processes are done, each cite
    (report.Check.cites) takes the verdict of its source, so a cite and its
    source may run on either side of the fork.  A cite whose source is not a
    proved check of the call raises ValueError: the suite aborts.
    """
    _check_dim(suite, dim)
    reports = _run_in_two_processes(_units(suite, dim, seed, samples, tol, backend))
    proved = {r.suite + "." + c.name: c.passed for r in reports for c in r.checks if c.cites is None}
    for r in reports:
        for c in r.checks:
            if c.cites is None:
                continue
            if c.cites not in proved:
                raise ValueError(
                    "%s.%s cites %s, which this call does not prove" % (r.suite, c.name, c.cites)
                )
            c.passed = proved[c.cites]
    return reports


def _merge(reports, suite, config) -> VerificationReport:
    merged = VerificationReport(suite, config)
    for r in reports:
        for c in r.checks:
            merged.checks.append(dataclasses.replace(c, name=r.suite + "." + c.name))
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
    except Exception as exc:
        # flags were validated by the parser: a suite that raises is a fault, not bad input
        # (the suites' own errors are ValueErrors; any other names its type)
        text = exc if isinstance(exc, (ValueError, WorkerLost)) else "%s: %s" % (type(exc).__name__, exc)
        print("error: suite aborted: %s" % text, file=sys.stderr)
        return 1
    merged = _merge(reports, args.suite, config)
    # wall time of the run: the units of a forked call overlap, so their times do not add
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
    try:
        pts = leaves.sample_leaf(leaf, args.count, args.seed)
    except MemoryError:
        _usage_error("-n %d points do not fit in memory" % args.count)
    try:
        leaves.export_csv(pts, args.out)
    except OSError as exc:
        print("cannot write CSV: %s" % exc, file=sys.stderr)
        return 2
    # pi is quadratic, so |pi(p) - leaf| = s^2 |pi(p / s) - leaf / s^2|: with s^2
    # a power of two within a factor 4 below |leaf| = a + c (of size r^2), no
    # square overflows, and the scaling is exact
    s = math.ldexp(1.0, (math.frexp(float(leaf.a + leaf.c))[1] - 1) // 2)
    s2 = s * s
    scaled = leaves.classify(leaves.PointD2(pts.x / s, pts.y / s))
    unit = leaves.LeafId(leaf.a / s2, leaf.b / s2, leaf.c / s2)
    # np.max keeps a NaN residual where max() would drop it
    residual = s2 * np.sqrt(np.max(leaves.leaf_distance_sq(scaled, unit)))
    print("wrote %d points to %s  (max leaf residual %.3g)" % (args.count, args.out, residual))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_export_leaf(args)


if __name__ == "__main__":
    sys.exit(main())
