"""Exact ranks and nullspaces of integer systems.

Sparse rows are dicts mapping column index to integer coefficient.
Elimination is incremental Gauss-Jordan with integer cross-multiplication
(new = p*row - r*pivot) and gcd normalization after every combination, so no
rationals ever appear and no tolerance is involved.  Dimension claims coming
out of this module are exact.

The invariant maintained on the pivot set: every stored pivot row contains
its own pivot column and otherwise only free columns.  Reducing an incoming
row therefore strictly removes pivot columns from its support and
terminates.

Dense rows get their exact rank from the same elimination (``dense_rank``),
or a rank certificate first (``certified_rank``): the rank modulo a prime
never exceeds the rank over Q, so full column rank in numpy int64 over GF(p)
proves full rank; otherwise the sparse elimination decides.
An exact integer determinant, should one be needed, would call for Bareiss's
fraction-free elimination (Math. Comp. 22, 1968).
"""

from __future__ import annotations

import operator
from math import gcd, lcm

import numpy as np

PRIMES = (2**31 - 1, 2**31 - 19)


def _normalize(row: dict) -> dict:
    """Divide by the content; make the lowest-column entry positive."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
    lead = row[min(row)]
    if lead < 0:
        g = -g
    if g not in (0, 1):
        row = {c: v // g for c, v in row.items()}
    return row


def _eliminate(row: dict, pivot: dict, col: int) -> dict:
    """pivot[col]*row - row[col]*pivot, which cancels the given column."""
    p = pivot[col]
    r = row[col]
    out = {c: p * v for c, v in row.items() if c != col}
    for c, v in pivot.items():
        if c == col:
            continue
        s = out.get(c, 0) - r * v
        if s:
            out[c] = s
        else:
            out.pop(c, None)
    return out


def nullspace(rows, ncols: int, want_basis: bool = True):
    """Rank and an integer basis of the right nullspace of the row system.

    rows: iterable of {column: int} dicts, each encoding one homogeneous
    equation.  A float or Fraction entry raises TypeError rather than being
    truncated.  Returns (rank, basis) where basis is a list of {column: int}
    vectors spanning the solutions, or None when want_basis is false.
    """
    pivots: dict = {}
    for raw in rows:
        row = {c: operator.index(v) for c, v in raw.items() if v}
        while True:
            hit = None
            for c in row:
                if c in pivots:
                    hit = c
                    break
            if hit is None:
                break
            row = _eliminate(row, pivots[hit], hit)
            if len(row) > 64:
                row = _normalize(row)
        if not row:
            continue
        row = _normalize(row)
        col = min(row)
        for pc in list(pivots):
            prow = pivots[pc]
            if col in prow:
                pivots[pc] = _normalize(_eliminate(prow, row, col))
        pivots[col] = row
    rank = len(pivots)
    if not want_basis:
        return rank, None
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        carriers = [(c, prow) for c, prow in pivots.items() if f in prow]
        scale = 1
        for c, prow in carriers:
            scale = lcm(scale, abs(prow[c]))
        vec = {f: scale}
        for c, prow in carriers:
            q = scale // abs(prow[c])
            vec[c] = -prow[f] * q * (1 if prow[c] > 0 else -1)
        basis.append(_normalize(vec))
    return rank, basis


def rank_mod_p(rows, ncols: int, p: int) -> int:
    """Rank over GF(p), p < 2**31 prime, of dense integer rows.

    Entries are reduced mod p before the int64 cast, so products stay below 2**62;
    a float or Fraction entry raises TypeError.
    """
    M = np.array([[operator.index(v) % p for v in row] for row in rows], dtype=np.int64)
    M = M.reshape(-1, ncols)
    rank = 0
    for col in range(ncols):
        nz = np.flatnonzero(M[rank:, col])
        if nz.size:
            M[[rank, rank + nz[0]]] = M[[rank + nz[0], rank]]
            pivot = M[rank, col:]  # views: the updates below write into M
            pivot[:] = pivot * pow(int(pivot[0]), -1, p) % p
            below = M[rank + 1 :, col:]
            below[:] = (below - np.outer(below[:, 0], pivot) % p) % p
            rank += 1
    return rank


def dense_rank(rows) -> int:
    """Exact rank over Q of dense integer rows, by the sparse elimination."""
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    return nullspace(sparse, len(rows[0]) if rows else 0, want_basis=False)[0]


def certified_rank(rows, ncols: int):
    """(rank, certificate) of dense integer rows: rank ncols modulo a prime
    proves rank ncols over Q; otherwise sparse exact elimination decides."""
    for p in PRIMES:
        if rank_mod_p(rows, ncols, p) == ncols:
            return ncols, "full_rank_mod_p"
    return dense_rank(rows), "exact_elimination"
