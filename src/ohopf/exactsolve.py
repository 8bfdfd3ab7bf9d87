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
never exceeds the rank over Q, so full column rank over GF(p) proves full
rank; otherwise the sparse elimination decides.  The primes are below 2**15,
so ``rank_mod_p`` can eliminate in numpy int64 with delayed reduction; a
small prime only makes the exact fallback likelier, never a wrong rank.
An exact integer determinant, should one be needed, would call for Bareiss's
fraction-free elimination (Math. Comp. 22, 1968).
"""

from __future__ import annotations

import operator
from math import gcd, lcm

from .report import LazyNumpy

np = LazyNumpy(globals())

# below 2**15, so ncols * p**2 stays below 2**63 for any system that fits in memory
PRIMES = (32749, 32719)


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
    """Rank over GF(p) of dense integer rows, for a prime p with ncols * p**2 < 2**63.

    ``rows`` is a list of rows or an integer array.  An int64 array is
    reduced mod p as a whole; other entries are reduced one by one before
    the int64 cast, and a float or Fraction entry raises TypeError.  The
    reduction is delayed (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008):
    the trailing block takes every rank-one update unreduced, and only the
    next pivot column and the pivot row are reduced before use.  Each update
    subtracts less than p**2 from an entry and there are at most ncols of
    them, so no entry leaves int64.
    """
    assert ncols * p * p < 2**63, "int64 would overflow the delayed reduction"
    M = np.asarray(rows)
    if M.dtype == np.int64:
        M = M % p
    else:
        M = np.array([[operator.index(v) % p for v in row] for row in rows], dtype=np.int64)
    M = M.reshape(-1, ncols)
    rank = 0
    for col in range(ncols):
        column = M[rank:, col] % p
        nz = np.flatnonzero(column)
        if nz.size:
            top = nz[0]
            M[[rank, rank + top]] = M[[rank + top, rank]]
            column[[0, top]] = column[[top, 0]]
            pivot = M[rank, col + 1 :] % p * pow(int(column[0]), -1, p) % p
            M[rank + 1 :, col + 1 :] -= np.outer(column[1:], pivot)
            rank += 1
    return rank


def dense_rank(rows) -> int:
    """Exact rank over Q of dense integer rows (a list of rows or an integer
    array), by the sparse elimination."""
    if hasattr(rows, "tolist"):  # an integer array: eliminate its rows as Python ints
        rows = rows.tolist()
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    return nullspace(sparse, len(rows[0]) if rows else 0, want_basis=False)[0]


def certified_rank(rows, ncols: int):
    """(rank, certificate) of dense integer rows: rank ncols modulo a prime
    proves rank ncols over Q; otherwise sparse exact elimination decides."""
    for p in PRIMES:
        if rank_mod_p(rows, ncols, p) == ncols:
            return ncols, "full_rank_mod_p"
    return dense_rank(rows), "exact_elimination"
