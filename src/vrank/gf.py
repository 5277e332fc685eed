"""Finite-field side: witness validation, GF(p) rank, brute-force min-rank,
and two witness constructions, the polynomial low-rank witness and the
stopping-set witness.

Prime fields only, p <= 2^16.  Matrices are kept as tuples of tuples with
values in 0..p-1; elimination is done in plain integer arithmetic, which at
desk scale beats shipping everything through numpy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .engine import _peel, visible_rank_exact
from .stencil import Stencil, StencilError

MAX_PRIME = 1 << 16


class FieldError(StencilError):
    pass


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if p > MAX_PRIME:
        raise FieldError(f"prime {p} exceeds the supported limit {MAX_PRIME}")


@dataclass(frozen=True)
class WitnessMatrix:
    """A matrix over GF(p) whose nonzero support must equal the target
    stencil's star pattern."""

    p: int
    entries: tuple[tuple[int, ...], ...]
    target: Stencil

    def __post_init__(self) -> None:
        _check_prime(self.p)
        if len(self.entries) != self.target.m:
            raise FieldError("row count does not match target stencil")
        for row in self.entries:
            if len(row) != self.target.n:
                raise FieldError("column count does not match target stencil")
            for v in row:
                if not 0 <= v < self.p:
                    raise FieldError(f"entry {v} outside GF({self.p})")

    def to_json(self) -> dict:
        return {"p": self.p, "entries": [list(row) for row in self.entries]}


def validate_witness(W: WitnessMatrix) -> tuple[bool, tuple[int, int] | None]:
    """Check support equality in both directions; returns the first violating
    1-based position, if any."""
    H = W.target
    for i in range(H.m):
        for j in range(H.n):
            star = bool(H.rows[i] >> j & 1)
            nonzero = W.entries[i][j] != 0
            if star != nonzero:
                return False, (i + 1, j + 1)
    return True, None


def gf_rank_rows(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by Gaussian elimination (rows are modified)."""
    if not rows:
        return 0
    n = len(rows[0])
    rank = 0
    for col in range(n):
        pivot = -1
        for r in range(rank, len(rows)):
            if rows[r][col] % p:
                pivot = r
                break
        if pivot < 0:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        prow = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] % p
            if f:
                f = f * inv % p
                rr = rows[r]
                for c in range(col, n):
                    rr[c] = (rr[c] - f * prow[c]) % p
        rank += 1
        if rank == len(rows):
            break
    return rank


def gf_rank(M: WitnessMatrix) -> int:
    """Rank of a witness matrix over its prime field."""
    return gf_rank_rows([list(row) for row in M.entries], M.p)


@dataclass(frozen=True)
class MinrankResult:
    p: int
    value: int
    witness: WitnessMatrix
    exhaustive: bool


def free_stars(H: Stencil) -> list[tuple[int, int]]:
    """The 1-based stars of H, in row-major order, that do not join two
    components of the bipartite row/column star graph formed by the stars
    before them; the others form its spanning forest."""
    parent = list(range(H.m + H.n))  # rows 0..m-1, then columns

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    free = []
    for i, j in H.stars():
        a, b = find(i - 1), find(H.m + j - 1)
        if a == b:
            free.append((i, j))
        else:
            parent[a] = b
    return free


def minrank_bruteforce(
    H: Stencil, p: int, budget: int = 2_000_000, time_budget: float | None = None
) -> MinrankResult:
    """Minimum rank over all GF(p)-witnesses of H, up to row and column scaling.

    Scaling a row or a column by a nonzero scalar keeps both the rank and the
    support, so every witness is equivalent to one that is 1 on a spanning
    forest of the bipartite row/column star graph; only the ``free_stars``
    run over 1..p-1, in row-major odometer order.  The returned witness is
    the first one in that order that attains the minimum, with the forest
    stars set to 1.  When the search is exhaustive this is also the
    lexicographically least minimum-rank witness (stars in row-major order):
    if C is the component of a forest star's column in the graph of the
    stars before it, multiplying the columns of C by c and the rows of C by
    1/c sets that star to 1 and leaves every earlier star as it was.

    The enumeration stops as soon as the best rank meets the floor
    max(1, vrk lower bound) (0 without stars), since vrk(H) <= rank(W) for
    every witness W; the lower bound is certified by a visible-rank search
    limited to ``budget`` nodes.  The budget counts matrices evaluated;
    exhaustion degrades to best-found (``exhaustive=False``).  So does
    ``time_budget`` (seconds), whose deadline bounds the floor search too and
    is read after every matrix.  The result is exhaustive iff the best rank
    met the floor or all (p-1)^|free| matrices were evaluated.
    """
    _check_prime(p)
    deadline = time.monotonic() + (math.inf if time_budget is None else time_budget)
    stars = H.stars()
    grid = [[0] * H.n for _ in range(H.m)]
    for i, j in stars:
        grid[i - 1][j - 1] = 1
    free = [(grid[i - 1], j - 1) for i, j in free_stars(H)]  # (grid row, column)
    floor_rank = 0
    if stars:
        floor = visible_rank_exact(H, node_budget=budget, time_budget=time_budget)
        floor_rank = max(1, floor.lower_bound)

    best_val = H.m + 1
    best_grid = grid
    evaluated = 0
    top = p - 1
    while True:
        r = gf_rank_rows([row.copy() for row in grid], p)
        evaluated += 1
        if r < best_val:
            best_val = r
            best_grid = [row.copy() for row in grid]
            if r <= floor_rank:
                break
        # advance the odometer over the free stars
        for row, j in reversed(free):
            if row[j] < top:
                row[j] += 1
                break
            row[j] = 1
        else:
            break
        if evaluated >= budget or time.monotonic() > deadline:
            break
    witness = WitnessMatrix(p, tuple(tuple(row) for row in best_grid), H)
    exhaustive = best_val <= floor_rank or evaluated == top ** len(free)
    return MinrankResult(p, best_val, witness, exhaustive)


def low_rank_witness(H: Stencil, p: int) -> WitnessMatrix:
    """The polynomial witness: label column j with a_j = j-1 in GF(p) and set
    entry (i, j) = prod over row-i zero labels a of (a_j - a).

    Requires p >= n.  The result always validates and has rank at most d+1,
    where d is the maximum number of zeros in a row.
    """
    _check_prime(p)
    if p < H.n:
        raise FieldError(f"low-rank witness needs p >= n (p={p}, n={H.n})")
    labels = list(range(H.n))
    grid = []
    for i in range(H.m):
        zero_labels = [labels[j] for j in range(H.n) if not H.rows[i] >> j & 1]
        row = []
        for j in range(H.n):
            v = 1
            for a in zero_labels:
                v = v * (labels[j] - a) % p
            row.append(v % p)
        grid.append(tuple(row))
    return WitnessMatrix(p, tuple(grid), H)


def stopping_set(H: Stencil) -> tuple[int, ...]:
    """The 1-based columns left when H's columns are peeled: a column is
    dropped while it is the only active star of some row.

    What is left is H's largest stopping set S, a set of columns that every
    row meets in 0 or >= 2 columns (the union of two stopping sets is one,
    and peeling never drops a column of a stopping set), so it does not
    depend on the order of the drops.  S is empty exactly when vrk(H) = n:
    the dropped columns, with the rows that dropped them, form a triangular
    sub-stencil, and in a triangular sub-stencil on all n columns the row
    whose pivot is the last pivot in S meets S in that pivot alone.
    """
    left = _peel(H.rows, (1 << H.n) - 1)[1]
    return tuple(j + 1 for j in range(H.n) if left >> j & 1)


def stopping_set_witness(
    H: Stencil, p: int, S: tuple[int, ...] | None = None
) -> WitnessMatrix:
    """The stopping-set witness: every star is 1, except that in each row
    meeting the stopping set S in k >= 2 columns, its star in the lowest
    column of S is 1 - k.  Every row then sums to 0 over S, so W holds the
    indicator of S in its kernel and has rank at most n - 1 whenever S is
    nonempty.  S, 1-based columns, defaults to ``stopping_set(H)``, which is
    nonempty whenever vrk(H) < n.

    Requires p >= n, so that 1 - k is nonzero for every 2 <= k <= n, and
    raises ``FieldError`` unless S holds distinct columns in [1, n] that no
    row meets in exactly one column; the result then always validates.
    """
    _check_prime(p)
    if p < H.n:
        raise FieldError(f"stopping-set witness needs p >= n (p={p}, n={H.n})")
    if S is None:
        S = stopping_set(H)
    elif len(set(S)) != len(S) or not all(1 <= j <= H.n for j in S):
        raise FieldError(f"stopping set {list(S)} must hold distinct columns in [1, {H.n}]")
    cols = sum(1 << (j - 1) for j in S)
    grid = []
    for i, mask in enumerate(H.rows, 1):
        row = [mask >> j & 1 for j in range(H.n)]
        meet = mask & cols
        if meet:
            k = meet.bit_count()
            if k == 1:
                raise FieldError(f"{list(S)} is no stopping set: row {i} meets it in one column")
            row[(meet & -meet).bit_length() - 1] = (1 - k) % p
        grid.append(tuple(row))
    return WitnessMatrix(p, tuple(grid), H)
