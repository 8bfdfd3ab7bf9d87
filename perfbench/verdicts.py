"""Known answers and the judgement of one `ohopf verify` call.

Checks are matched by their ``law`` text, not their name, so renaming a check
path does not count as a wrong verdict.  A verdict is wrong when the check
FAILed, when its known answer does not match, when a required law is missing,
when the call raised or exited nonzero, or when its canonical JSON differs
from the first pass of the same run.
"""

from __future__ import annotations

import json
from fractions import Fraction

LINEAR_NULLITY = "dim of linear tangent fields is 0"
SAMPLED_ORACLE = "point-sampled system of >= 4 n^2 equations has the same nullity"
NO_LINEAR_FIELDS = "the space of linear fields tangent to the octonionic leaves is 0"
FIBER_RANKS = "fiberwise ranks (rho, d1, d2) = (7, 9, 1) at generic points"
ORIGIN_RANKS = "all three maps vanish at the origin: ranks (0, 0, 0)"
LEAF_DIMENSION = "leaves through generic points of S(1) have dimension 7"
TANGENCY_MATRIX = "all 160 entries of the generated tangency matrix equal the transcription"
SEDENION_WITNESS = (
    "some a, b have |a*b|^2 != |a|^2 |b|^2  (expected failure beyond dim 8)"
)
PHI_FAILS = "phi(g2 g1) != phi(g2) . phi(g1) at dim 8 (recorded witness residual)"


def _sedenion_witness(info) -> bool:
    """A dim-16 witness whose norms really differ: |a|^2 |b|^2 is recomputed here."""
    a, b = info.get("witness_a"), info.get("witness_b")
    if not (isinstance(a, list) and isinstance(b, list) and len(a) == len(b) == 16):
        return False
    try:
        norms = sum(Fraction(v) ** 2 for v in a) * sum(Fraction(v) ** 2 for v in b)
        product = Fraction(info["norm_sq_of_product"])
        return Fraction(info["product_of_norm_sq"]) == norms and product != norms
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return False


def _oracle_matches(info, infos) -> bool:
    """The sampled oracle's nullity equals the symbolic nullity of the same report."""
    symbolic = [i for law, i in infos.items() if law.startswith("dim of linear tangent fields is ")]
    return len(symbolic) == 1 and info.get("sampled_dimension") == symbolic[0].get("dimension")


# Values the paper fixes, as predicates on a check's ``info`` and the infos of
# the whole report by law.  The dim-8 answers apply where the law text is that
# of dim 8, the only foliation dimension the workloads time.
KNOWN = {
    LINEAR_NULLITY: lambda i, _: i.get("dimension") == 0,
    SAMPLED_ORACLE: _oracle_matches,
    NO_LINEAR_FIELDS: lambda i, _: i.get("nullspace_dimension") == 0,
    FIBER_RANKS: lambda i, _: i.get("observed") == [[7, 9, 1]],
    ORIGIN_RANKS: lambda i, _: True,  # the check itself compares the ranks with (0, 0, 0)
    LEAF_DIMENSION: lambda i, _: i.get("observed") == [7],
    TANGENCY_MATRIX: lambda i, _: i.get("entries") == 160 and i.get("mismatches") == [],
    SEDENION_WITNESS: lambda i, _: _sedenion_witness(i),
    PHI_FAILS: lambda i, _: i.get("witness_residual", 0.0) > 1e-6,
}


class Verdicts:
    """Counts checks attempted and verdicts wrong over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _note(self, message: str):
        if len(self.problems) < 20:
            self.problems.append(message)

    def judge(self, label: str, call, rc, text: str, error, reference: str = None) -> int:
        """Judge one call's output; returns the number of checks it reported."""
        try:
            checks = json.loads(text)["checks"] if error is None else []
        except (ValueError, KeyError, TypeError) as exc:
            checks, error = [], "unreadable report: %s" % exc
        if not checks:
            # nothing to judge: every check the call should have made is wrong
            self.attempted += call.checks
            self.failed += call.checks
            self._note("%s: no checks (%s)" % (label, error or "exit status %s" % rc))
            return 0
        infos = {c["law"]: c["info"] for c in checks}
        wrong = 0
        for c in checks:
            known = KNOWN.get(c["law"])
            if not c["passed"]:
                wrong += 1
                self._note("%s: FAIL %s" % (label, c["name"]))
            elif known is not None and not known(c["info"], infos):
                wrong += 1
                self._note("%s: known answer mismatch in %r" % (label, c["law"]))
        missing = [law for law in call.required if law not in infos]
        for law in missing:
            self._note("%s: missing known answer %r" % (label, law))
        if reference is not None and text != reference:
            try:
                ref_checks = json.loads(reference)["checks"]
            except (ValueError, KeyError, TypeError):
                ref_checks = []
            differ = sum(a != b for a, b in zip(checks, ref_checks))
            differ += abs(len(checks) - len(ref_checks))
            wrong = max(wrong, differ, 1)
            self._note("%s: JSON differs from the first pass" % label)
        if rc != 0 and not wrong:
            wrong = 1
            self._note("%s: exit status %s with every check passing" % (label, rc))
        self.attempted += len(checks) + len(missing)
        self.failed += min(wrong, len(checks)) + len(missing)
        return len(checks)
