"""Structured outcomes of verification suites.

A suite produces a VerificationReport: a list of named checks, each carrying
the mathematical statement it verified (``law``), a pass flag, and numeric
detail (residuals, ranks, witnesses).  Reports serialize to canonical JSON:
keys are sorted and wall-clock time is kept out of the canonical form, so two
runs with the same configuration and package version emit byte-identical
documents.

A sampled law is one verdict over many samples.  ``VerificationReport.law``
declares it and returns a ``SampledLaw`` ledger; the suite records the
residuals of each sample or batch of samples and the ledger keeps the worst
as ``max_residual``.  The law passes iff at least one residual was recorded
and every recorded residual is <= tol.  A NaN residual counts as the worst:
it fails the law and is what ``max_residual`` reports.  A law that recorded
nothing fails with ``max_residual`` null, so zero samples never make a PASS.

A cite is a check that another report of the same call proves: a row of a
suite's table whose proof is the name of its source check
(``VerificationReport.add_rows``).  It has no verdict until the call copies
the source's (``cli.run_suite``), and a report that still holds a cite
without a verdict refuses to render.

The float suites draw and check their samples in batches of at most
CHUNK_ROWS rows (``chunks``), which bounds the memory a batch takes whatever
the sample count.

Every random draw is fixed by the root seed and a stream number k within
its suite.  The exact draws come from ``derived_random(root_seed, k)``,
Python's generator seeded with the text "root_seed/k", so they need no numpy
(see ``LazyNumpy``).  The float draws come from ``derived_rng(root_seed, k)``,
a SplitMix64 ``Stream`` keyed by the first 64 bits of that generator, which
needs numpy but not numpy.random: the groupoid, phi and G2 reports from
stream 0, the foliation oracle's integer points from stream 0, the leaf
suite its leaves from stream 1 and the points of leaf k from 10 + k.  The
exact draws are the algebra suite's sedenion witnesses from stream 0 and
its exact inverse samples from stream 1, the counterexample's quaternion
control from stream 0, and the leaf dimensions' integer points from stream
3.  The slope laws of the leaf suite draw nothing.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction


class LazyNumpy:
    """Stands in for numpy as ``np`` in the globals of a module that uses it
    only in float code, so that importing the module, and every exact call,
    leaves numpy unimported.

    The first attribute read imports numpy and binds the module's ``np`` to
    numpy itself, so from then on ``np.x`` costs what it costs after
    ``import numpy as np``.  A dunder read raises AttributeError and imports
    nothing, so introspecting the module does not load numpy.
    """

    __slots__ = ("namespace",)

    def __init__(self, namespace: dict):
        self.namespace = namespace

    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        import numpy

        self.namespace["np"] = numpy
        return getattr(numpy, name)


np = LazyNumpy(globals())

SCHEMA_VERSION = "1"
ARTIFACT_VERSION = "0.1.0"
# rows drawn and checked at once by the float suites
CHUNK_ROWS = 512


class Stream:
    """Seeded float draws on numpy arrays, without numpy.random: word i of
    the stream keyed k is SplitMix64's (Steele, Lea and Flood, OOPSLA 2014)
    mix of k + (i + 1) * 0x9E3779B97F4A7C15.  Each draw takes the next words,
    so consecutive draws continue one stream (an odd count of normals leaves
    the second of its last pair unused)."""

    def __init__(self, key: int):
        self.key, self.used = key, 0

    def _words(self, n: int):
        z = np.arange(self.used + 1, self.used + n + 1, dtype=np.uint64)
        self.used += n
        z *= np.uint64(0x9E3779B97F4A7C15)
        z += np.uint64(self.key)
        for shift, mul in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(mul)
        return z ^ (z >> np.uint64(31))

    def normal(self, loc=0.0, scale=1.0, size=1):
        """An array of Gaussians of shape ``size`` (an int or a tuple), by
        Box-Muller (Ann. Math. Statist. 29(2), 1958): words 2j and 2j + 1
        give the radius r = sqrt(-2 log u), u in (0, 1], and the angle 2p, p
        uniform in [-pi/2, pi/2), of normals 2j = r cos 2p and 2j + 1 =
        r sin 2p, read off t = tan p (one call in place of cos and sin)."""
        n = math.prod(size) if isinstance(size, tuple) else size
        z = self._words(n + n % 2)
        z >>= np.uint64(11)  # 53-bit integers
        r = scale * np.sqrt(-2.0 * np.log((z[0::2] + 1.0) * 2.0**-53))
        t = np.tan(z[1::2] * (2.0**-53 * math.pi) - 0.5 * math.pi)
        w = 2.0 * r / (1.0 + t * t)  # r (1 + cos 2p), and r sin 2p = w t
        out = np.empty(z.shape)
        np.subtract(w, r, out=out[0::2])
        np.multiply(w, t, out=out[1::2])
        return loc + out[:n].reshape(size)

    def integers(self, low: int, high: int, size: int):
        """``size`` integers in [low, high), each a word modulo high - low."""
        return low + (self._words(size) % np.uint64(high - low)).astype(np.int64)

    def uniform(self, low: float, high: float) -> float:
        """One float in [low, high)."""
        return low + (high - low) * int(self._words(1)[0] >> np.uint64(11)) * 2.0**-53


def derived_rng(root_seed: int, stream: int) -> Stream:
    """The float draws of stream ``stream`` under the root seed."""
    return Stream(derived_random(root_seed, stream).getrandbits(64))


def derived_random(root_seed: int, stream: int) -> random.Random:
    """Python's generator for stream ``stream`` under the root seed, for the
    exact suites' integer draws.

    Seeded with the text "root_seed/stream" (which random hashes with
    SHA-512), it keys its streams like derived_rng without importing numpy,
    so the exact suites run without it.
    """
    return random.Random("%d/%d" % (int(root_seed), int(stream)))


def chunks(samples: int):
    """Batch sizes that cover ``samples`` rows, none above CHUNK_ROWS."""
    for start in range(0, samples, CHUNK_ROWS):
        yield min(CHUNK_ROWS, samples - start)


def _jsonable(value):
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction):
        return str(value)
    numpy = sys.modules.get("numpy")  # a numpy value implies an imported numpy
    if numpy is not None:
        if isinstance(value, numpy.integer):
            return int(value)
        if isinstance(value, numpy.floating):
            return float(value)
        if isinstance(value, numpy.ndarray):
            return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


@dataclass
class Check:
    """One verified statement: name, the law checked, outcome, detail.

    A cite names in ``cites`` the check, "<report>.<check>", that proves the
    same claim; its ``passed`` stays None until that verdict is copied in.
    """

    name: str
    law: str
    passed: bool | None
    info: dict = field(default_factory=dict)
    cites: str | None = None

    def verdict(self) -> bool:
        """The pass flag; a cite without a verdict yet raises ValueError."""
        if self.passed is None:
            raise ValueError("check %s cites %s and has no verdict yet" % (self.name, self.cites))
        return bool(self.passed)

    def as_dict(self):
        return {
            "name": self.name,
            "law": self.law,
            "passed": self.verdict(),
            "info": _jsonable(self.info),
        }


class SampledLaw:
    """Worst-residual ledger of one sampled law, written through to its Check."""

    def __init__(self, check: Check, tol: float):
        self.check = check
        self.tol = tol

    def record(self, residuals) -> None:
        """Fold the residual of a sample, or an array of them; NaN is worse
        than any number, and an empty array records nothing."""
        residuals = np.asarray(residuals, dtype=float)
        if not residuals.size:
            return
        r = float(np.max(residuals))  # np.max, unlike max(), keeps a NaN
        worst = self.check.info["max_residual"]
        if worst is None or r > worst or (math.isnan(r) and not math.isnan(worst)):
            self.check.info["max_residual"] = r
            self.check.passed = r <= self.tol


@dataclass
class VerificationReport:
    suite: str
    config: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.verdict() for c in self.checks)

    def add(self, name, law, passed, **info):
        self.checks.append(Check(name, law, bool(passed), info))

    def add_rows(self, rows, symbols):
        """Append a check per (name, law, proof) row, in order: the flag
        proof(symbols), or, where proof is the name "<report>.<check>" of a
        check that proves the same claim in this call, a cite of it."""
        for name, law, proof in rows:
            if isinstance(proof, str):
                self.checks.append(Check(name, law, None, {}, proof))
            else:
                self.add(name, law, proof(symbols))

    def law(self, name, law, tol) -> SampledLaw:
        """Append a sampled law's Check now (failing until a residual is recorded)."""
        check = Check(name, law, False, {"max_residual": None})
        self.checks.append(check)
        return SampledLaw(check, tol)

    def as_dict(self):
        # elapsed_s deliberately omitted: the canonical form must be
        # byte-identical across runs of the same configuration.
        return {
            "schema_version": SCHEMA_VERSION,
            "version": ARTIFACT_VERSION,
            "suite": self.suite,
            "config": _jsonable(self.config),
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        header = "suite %s  (%s)" % (
            self.suite,
            ", ".join("%s=%s" % kv for kv in sorted(self.config.items())),
        )
        lines.append(header)
        lines.append("-" * len(header))
        width = max((len(c.name) for c in self.checks), default=4)
        for c in self.checks:
            status = "PASS" if c.verdict() else "FAIL"
            lines.append("%-*s  %s  %s" % (width, c.name, status, c.law))
        lines.append(
            "%d/%d checks passed in %.2fs"
            % (sum(c.passed for c in self.checks), len(self.checks), self.elapsed_s)
        )
        return "\n".join(lines) + "\n"


@contextmanager
def timed_report(suite: str, config: dict):
    """Context manager that stamps elapsed time on the report it yields."""
    report = VerificationReport(suite, config)
    start = time.perf_counter()
    try:
        yield report
    finally:
        report.elapsed_s = time.perf_counter() - start
