"""The benchmark's workloads: the `ohopf verify` calls that make up one pass.

Each workload stresses a different layer of the verifier (shares measured by
the traced run on the commit that introduced the benchmark):

  full_dim8        the ROADMAP's headline command and the only workload that
                   runs every layer; exact elimination in the foliation
                   suite's sampled oracle (exactsolve) dominates.
  symbolic_proofs  the symbolic proofs only: sparse polynomial arithmetic
                   (polyring), few large sums in lie3/algebroid and many
                   small products in the algebra identities; no floats and
                   no exact elimination.
  sampled_laws     the float law checks at 10x the default sample count:
                   float AlgebraElement products and the groupoid maps; dim 4
                   takes the associative phi-morphism path, dim 8 the witness
                   path.

Every call gets ``--seed <seed> --format json`` appended.  ``checks`` is the
number of checks the call reports on the reference commit; ``required`` names
the known answers (by law text, see verdicts.py) the call must produce.
``warmup`` is a reduced-size pass run before timing: it reaches the same lazy
imports and ``lru_cache`` tables as the workload at a fraction of its cost
(full_dim8 warms up at dim 4, whose foliation oracle is small).
"""

from __future__ import annotations

from dataclasses import dataclass

from verdicts import (
    FIBER_RANKS,
    LEAF_DIMENSION,
    LINEAR_NULLITY,
    NO_LINEAR_FIELDS,
    ORIGIN_RANKS,
    PHI_FAILS,
    SAMPLED_ORACLE,
    SEDENION_WITNESS,
    TANGENCY_MATRIX,
)


@dataclass(frozen=True)
class Call:
    argv: tuple
    checks: int
    required: tuple = ()

    def command(self, seed: int) -> list:
        return ["verify", *self.argv, "--seed", str(seed), "--format", "json"]


@dataclass(frozen=True)
class Workload:
    why: str
    calls: tuple
    warmup: tuple

    @property
    def checks_per_pass(self) -> int:
        return sum(c.checks for c in self.calls)


WORKLOADS = {
    "full_dim8": Workload(
        why="verify --suite all --dim 8: every layer runs; exact elimination in the foliation oracle dominates",
        calls=(
            Call(
                ("--suite", "all", "--dim", "8", "--samples", "200"),
                104,
                (
                    LINEAR_NULLITY,
                    SAMPLED_ORACLE,
                    NO_LINEAR_FIELDS,
                    FIBER_RANKS,
                    ORIGIN_RANKS,
                    LEAF_DIMENSION,
                    TANGENCY_MATRIX,
                    PHI_FAILS,
                ),
            ),
        ),
        warmup=(Call(("--suite", "all", "--dim", "4", "--samples", "20"), 59),),
    ),
    "symbolic_proofs": Workload(
        why="exact lie3, algebroid and algebra proofs: sparse polynomial arithmetic dominates, no floats",
        calls=(
            Call(("--suite", "lie3", "--backend", "exact"), 24, (TANGENCY_MATRIX,)),
            Call(("--suite", "algebroid", "--backend", "exact"), 6),
            Call(("--suite", "algebra", "--dim", "8"), 28),
            Call(("--suite", "algebra", "--dim", "16"), 16, (SEDENION_WITNESS,)),
        ),
        warmup=(
            Call(("--suite", "algebroid", "--backend", "exact"), 6),
            Call(("--suite", "algebra", "--dim", "16"), 16, (SEDENION_WITNESS,)),
        ),
    ),
    "sampled_laws": Workload(
        why="groupoid and leaf laws at 2000 samples: float octonion products and groupoid maps dominate",
        calls=(
            Call(("--suite", "groupoid", "--dim", "8", "--samples", "2000"), 24, (PHI_FAILS,)),
            Call(("--suite", "groupoid", "--dim", "4", "--samples", "2000"), 21),
            Call(("--suite", "leaves", "--dim", "8", "--samples", "2000"), 4, (LEAF_DIMENSION,)),
        ),
        warmup=(
            Call(("--suite", "groupoid", "--dim", "8", "--samples", "20"), 24, (PHI_FAILS,)),
            Call(("--suite", "groupoid", "--dim", "4", "--samples", "20"), 21),
            Call(("--suite", "leaves", "--dim", "8", "--samples", "20"), 4, (LEAF_DIMENSION,)),
        ),
    ),
}
