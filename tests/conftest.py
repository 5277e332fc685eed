"""Shared helpers: seeded random stencils and independent brute-force oracles.

The oracles here deliberately avoid the package's search code so they can
serve as ground truth: visible rank is recomputed by enumerating every square
sub-stencil and counting its star diagonals via the permanent, spanoid rank
by enumerating subsets of the universe and closing each under the spanoid's
inference rules, the maximum matching by Kuhn's augmenting paths over
explicit column lists, min-rank by ranking every GF(p) witness, distinct
rank by a recursive branch-and-bound with no memo, a certificate by materialising
its permuted sub-stencil, the search's zero-set chain check by trying every
ordered subset, the zero-rectangle bound by listing every a-subset (once
level by level under a subset budget, once by ``itertools.combinations``),
and the row-grouped families (DRGP and tensor-gap
sampling, and the clauses of their validator) by nested loops over every
(i, j) pair.  ``lcc_zero_rectangle_probe`` is the Monte Carlo search for a
small zero rectangle that the LCC structure criterion runs.  ``permute``,
``triangularize``, ``is_distinctly_full_rank`` and ``tensor_witness`` are
helpers that only the tests call.
"""

from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np
import pytest

from vrank.engine import DEFAULT_NODE_BUDGET, DiagonalCertificate, is_visibly_full_rank
from vrank.families import _TAG, Family, FamilyParamError, FamilyParams, ValidationReport
from vrank.gf import FieldError, WitnessMatrix, gf_rank_rows
from vrank.spanoid import SymmetricSpanoid
from vrank.stencil import PermutationPair, Stencil, StencilError, substencil
from vrank.tensor import tensor_power

#: Hard side limit of the star-diagonal counting oracle.
PERMANENT_SIDE_LIMIT = 20


class OracleLimitError(StencilError):
    """Input exceeds a brute-force oracle's hard size limit."""


def random_stencil(rng: np.random.Generator, m: int, n: int, density: float = 0.5) -> Stencil:
    grid = rng.random((m, n)) < density
    return Stencil.from_entries(grid.tolist())


def rng_for(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def count_star_diagonals(M: Stencil) -> int:
    """Number of permutations pi with all entries (i, pi(i)) stars.

    This is the permanent of the 0/1 pattern, computed by inclusion-exclusion
    over column subsets (Ryser), with a hard side limit.
    """
    if M.m != M.n:
        raise StencilError("count_star_diagonals requires a square stencil")
    n = M.n
    if n > PERMANENT_SIDE_LIMIT:
        raise OracleLimitError(f"side {n} exceeds oracle limit {PERMANENT_SIDE_LIMIT}")
    total = 0
    for S in range(1 << n):
        prod = 1
        for row in M.rows:
            prod *= (row & S).bit_count()
            if not prod:
                break
        if (n - S.bit_count()) & 1:
            total -= prod
        else:
            total += prod
    return total


class PermutationSizeError(StencilError):
    """A permutation pair whose sizes differ from the stencil's."""


def permute(H: Stencil, p: PermutationPair) -> Stencil:
    """Reindex ``H`` so that ``result[i, j] = H[row_perm(i), col_perm(j)]``."""
    if len(p.row_perm) != H.m or len(p.col_perm) != H.n:
        raise PermutationSizeError(
            f"permutation sizes ({len(p.row_perm)},{len(p.col_perm)}) "
            f"do not match stencil ({H.m},{H.n})"
        )
    return substencil(H, p.row_perm, p.col_perm)


def inverse(p: PermutationPair) -> PermutationPair:
    """The pair of inverse bijections: ``permute(permute(H, p), inverse(p)) == H``."""

    def inv(perm):
        out = [0] * len(perm)
        for i, img in enumerate(perm):
            out[img - 1] = i + 1
        return tuple(out)

    return PermutationPair(inv(p.row_perm), inv(p.col_perm))


def triangularize(M: Stencil) -> PermutationPair | None:
    """Permutation pair making M upper triangular, or None if M is not
    visibly full rank."""
    ok, cert = is_visibly_full_rank(M)
    return cert.perm_pair if ok else None


def is_distinctly_full_rank(M: Stencil) -> bool:
    """Visibly full rank with pairwise-disjoint row and column value sets."""
    ok, _ = is_visibly_full_rank(M)
    if not ok:
        return False
    for labels in (M.row_labels, M.col_labels):
        seen: set[int] = set()
        for lab in labels:
            vals = set(lab)
            if vals & seen:
                return False
            seen |= vals
    return True


def tensor_witness(W1: WitnessMatrix, W2: WitnessMatrix, target: Stencil) -> WitnessMatrix:
    """Kronecker product of two witnesses; an F-witness of the tensor product
    of their targets (which must be supplied as ``target``)."""
    if W1.p != W2.p:
        raise FieldError("witnesses live over different fields")
    p = W1.p
    grid = []
    for r1 in W1.entries:
        for r2 in W2.entries:
            grid.append(tuple(a * b % p for a in r1 for b in r2))
    return WitnessMatrix(p, tuple(grid), target)


def verify_by_substencil(cert: DiagonalCertificate, H: Stencil) -> bool:
    """``DiagonalCertificate.verify`` the quadratic way: materialise the
    sub-stencil, permute it, probe every entry on and below the diagonal, and
    replay the peeling on the sub-stencil."""
    r = cert.size
    if len(cert.col_subset) != r or len(cert.peel_order) != r:
        return False
    try:
        sub = substencil(H, cert.row_subset, cert.col_subset)
        tri = permute(sub, cert.perm_pair)
    except StencilError:
        return False
    for i in range(r):
        if not tri.star(i + 1, i + 1):
            return False
        for j in range(1, i + 1):
            if tri.star(i + 1, j):
                return False
    col_active = (1 << r) - 1
    row_seen = set()
    for pi, pj in cert.peel_order:
        if pi in row_seen or not 1 <= pi <= r or not 1 <= pj <= r:
            return False
        if sub.rows[pi - 1] & col_active != 1 << (pj - 1):
            return False
        row_seen.add(pi)
        col_active &= ~(1 << (pj - 1))
    return col_active == 0


def brute_matching(masks: tuple[int, ...], n: int) -> int:
    """Maximum matching of rows to columns by Kuhn's algorithm: one
    depth-first augmenting-path search from each row in turn, over column
    lists read off the masks."""
    adj = [[j for j in range(n) if mask >> j & 1] for mask in masks]
    owner = [-1] * n

    def augment(i: int, seen: set[int]) -> bool:
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                if owner[j] == -1 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return sum(augment(i, set()) for i in range(len(masks)))


def greedy_free_rows(masks: tuple[int, ...]) -> list[int]:
    """Rows, 0-based, left unmatched when each row in turn takes the lowest
    column that no earlier row took."""
    used, free = 0, []
    for i, mask in enumerate(masks):
        avail = mask & ~used
        if avail:
            used |= avail & -avail
        else:
            free.append(i)
    return free


def brute_vrank(H: Stencil) -> int:
    """Max over all square sub-stencils with exactly one star diagonal."""
    best = 0
    top = min(H.m, H.n)
    for k in range(top, 0, -1):
        if k <= best:
            break
        found = False
        for rows in combinations(range(1, H.m + 1), k):
            for cols in combinations(range(1, H.n + 1), k):
                if count_star_diagonals(substencil(H, rows, cols)) == 1:
                    found = True
                    break
            if found:
                break
        if found:
            return k
    return best


def permanent_by_permutations(M: Stencil) -> int:
    """Star-diagonal count by direct permutation enumeration (side <= 7)."""
    assert M.m == M.n <= 7
    total = 0
    for perm in permutations(range(1, M.n + 1)):
        if all(M.star(i + 1, perm[i]) for i in range(M.n)):
            total += 1
    return total


def brute_closure(S: SymmetricSpanoid, T) -> set[int]:
    """Span of T under S's inference rules, by sweeping the defining sets as
    Python sets until a sweep adds nothing."""
    cur = set(T)
    changed = True
    while changed:
        changed = False
        for s in S.sets:
            missing = s - cur
            if len(missing) == 1:
                cur |= missing
                changed = True
    return cur


def brute_spanoid_rank(S: SymmetricSpanoid) -> int:
    """Smallest spanning subset of [n], by enumeration in increasing size."""
    universe = set(range(1, S.n + 1))
    for size in range(S.n + 1):
        for T in combinations(sorted(universe), size):
            if brute_closure(S, T) == universe:
                return size
    raise AssertionError("unreachable: the universe always spans itself")


def brute_minrank(H: Stencil, p: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Minimum GF(p) rank over all (p-1)^stars witnesses of H, with no
    symmetry reduction and no early stop, and the lexicographically least
    witness (star values in row-major order) that attains it."""
    stars = H.stars()
    best, best_grid = min(H.m, H.n) + 1, None
    for values in product(range(1, p), repeat=len(stars)):
        grid = [[0] * H.n for _ in range(H.m)]
        for (i, j), v in zip(stars, values):
            grid[i - 1][j - 1] = v
        rank = gf_rank_rows([row.copy() for row in grid], p)
        if rank < best:
            best, best_grid = rank, tuple(map(tuple, grid))
    return best, best_grid


def brute_distinct_rank(
    H: Stencil, k: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[int, bool]:
    """(value, exhaustive) of the largest triangular sub-stencil of H^(xk)
    with pairwise-disjoint row and column value sets, by a recursive
    branch-and-bound that checks the disjointness of every candidate row and
    column against the value sets used so far, with no memo."""
    Hk = tensor_power(H, k)
    masks = list(Hk.rows)
    row_vals = [frozenset(lab) for lab in Hk.row_labels]
    col_vals = [frozenset(lab) for lab in Hk.col_labels]

    best = 0
    best_pairs: list[tuple[int, int]] = []
    nodes = 0
    aborted = False
    seq: list[tuple[int, int]] = []

    def dfs(B: int, urv: frozenset, ucv: frozenset, depth: int) -> None:
        nonlocal best, best_pairs, nodes, aborted
        if aborted:
            return
        nodes += 1
        if nodes > node_budget:
            aborted = True
            return
        if depth > best:
            best = depth
            best_pairs = seq.copy()
        cands = []
        for r in range(len(masks)):
            if row_vals[r] & urv:
                continue
            fresh = masks[r] & ~B
            if not fresh:
                continue
            cols = []
            rest = fresh
            while rest:
                bit = rest & -rest
                rest ^= bit
                c = bit.bit_length() - 1
                if not (col_vals[c] & ucv):
                    cols.append(c)
            if cols:
                cands.append((r, cols))
        free_cols = len({c for _, cols in cands for c in cols})
        if depth + min(len(cands), free_cols) <= best:
            return
        for r, cols in cands:
            for c in cols:
                seq.append((r, c))
                dfs(B | masks[r], urv | row_vals[r], ucv | col_vals[c], depth + 1)
                seq.pop()
                if aborted:
                    return

    dfs(0, frozenset(), frozenset(), 0)
    return best, not aborted


def brute_chain(zeros: list[int], need: int, a: int) -> bool:
    """True when some ordered a distinct members z_1..z_a of ``zeros`` have
    |z_1 & ... & z_s| >= need - s for every s <= a, by trying every ordered
    a-subset."""
    for chain in permutations(zeros, a):
        inter = -1
        for s, z in enumerate(chain, 1):
            inter &= z
            if inter.bit_count() < need - s:
                break
        else:
            return True
    return False


def level_zero_rectangle(H: Stencil, a_max: int, max_subsets: int) -> int:
    """``zero_rectangle_bound`` with a list of (intersection, last row) for
    every a-subset: level a + 1 extends the a-subsets that still share a zero
    column, and is skipped, with every later level, when a pass over level a
    counts more subsets than ``max_subsets`` allows in all."""
    full = (1 << H.n) - 1
    zeros = [full & ~mask for mask in H.rows]
    m = H.m
    best = min(H.m, H.n)
    if m == 0 or H.n == 0:
        return 0
    level = [(zeros[i], i) for i in range(m)]
    spent = m
    a = 1
    while True:
        b_star = max((mask.bit_count() for mask, _ in level), default=0)
        best = min(best, a + b_star)
        if a >= a_max or a >= m or best <= a + 1:
            break
        est = sum(m - i - 1 for _, i in level)
        if spent + est > max_subsets:
            break
        nxt = []
        for mask, i in level:
            if not mask:
                continue
            for j in range(i + 1, m):
                nxt.append((mask & zeros[j], j))
        spent += est
        level = nxt
        a += 1
    return best


def brute_zero_rectangle(H: Stencil, a_max: int) -> int:
    """The least of min(m, n) and, for 1 <= a <= max(a_max, 1), a plus the
    most zero columns any a rows share, over every a-subset of rows; 0 when
    H has no rows or no columns."""
    if H.m == 0 or H.n == 0:
        return 0
    zeros = [~mask for mask in H.rows]
    best = min(H.m, H.n)
    for a in range(1, min(max(a_max, 1), H.m) + 1):
        widest = 0
        for subset in combinations(zeros, a):
            inter = (1 << H.n) - 1
            for z in subset:
                inter &= z
            widest = max(widest, inter.bit_count())
        best = min(best, a + widest)
    return best


def loop_gen_grouped(family: Family, n: int, t: int, seed: int) -> Stencil:
    """DRGP or tensor-gap stencil built one entry at a time from the
    per-group substreams the generators promise, each made by numpy's own
    ``default_rng([seed, tag, i])``: DRGP puts the one off-diagonal star of
    column j of group i in the drawn slot, tensor-gap the one zero."""
    masks = [0] * (n * t)
    for i in range(n):
        slots = np.random.default_rng([seed, _TAG[family], i + 1]).integers(t, size=n)
        for s in range(t):
            masks[i * t + s] |= 1 << i
        for j in range(n):
            if j == i:
                continue
            for s in range(t):
                if (s == slots[j]) == (family is Family.DRGP):
                    masks[i * t + s] |= 1 << j
    labels = [(i, s) for i in range(1, n + 1) for s in range(1, t + 1)]
    return Stencil.from_rows(masks, n, row_labels=labels)


def brute_validate_grouped(H: Stencil, params: FamilyParams) -> ValidationReport:
    """``validate_family`` for DRGP, tensor-gap and LCC, clause by clause over
    every row (i, s) and every pair (i, j), with the rows looked up by label."""
    fam, n, t = params.family, params.n, params.groups_per_column
    if H.n != n:
        return ValidationReport(False, "column count", (H.n,))
    labels = {(i, s) for i in range(1, n + 1) for s in range(1, t + 1)}
    if H.m != n * t or set(H.row_labels) != labels:
        return ValidationReport(False, "rows labeled by [n] x [t]", (H.m,))
    pos = {lab: idx for idx, lab in enumerate(H.row_labels)}
    group_rows = {i: [H.rows[pos[(i, s)]] for s in range(1, t + 1)] for i in range(1, n + 1)}

    for i in range(1, n + 1):
        for s in range(1, t + 1):
            if not group_rows[i][s - 1] >> (i - 1) & 1:
                return ValidationReport(False, "star at ((i,s), i)", ((i, s), i))

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if j == i:
                continue
            stars = sum(r >> (j - 1) & 1 for r in group_rows[i])
            if fam is Family.TENSOR_GAP and stars != t - 1:
                return ValidationReport(False, "exactly one zero in S_{i,j}", (i, j))
            if fam is not Family.TENSOR_GAP and stars > 1:
                return ValidationReport(False, "at most one star in S_{i,j}", (i, j))

    if fam is Family.LCC:
        for idx, mask in enumerate(H.rows):
            if mask.bit_count() > params.param + 1:
                return ValidationReport(False, "at most q+1 stars per row", (H.row_labels[idx],))
    return ValidationReport(True)


@dataclass(frozen=True)
class ProbeReport:
    found: bool
    rows: tuple[int, ...] | None
    support_size: int | None
    trials: int


def lcc_zero_rectangle_probe(
    H: Stencil, s: int, k: int, trials: int, seed: int
) -> ProbeReport:
    """Monte Carlo search for s-k rows whose union of supports has size <= s.

    Such a subset witnesses an (s-k) x (n-s) all-zero sub-stencil, capping
    vrk(H) below n-k.  Reports the first hit, or not-found after ``trials``.
    """
    if not s > k >= 1:
        raise FamilyParamError("probe requires s > k >= 1")
    size = s - k
    if size > H.m:
        return ProbeReport(False, None, None, 0)
    rng = np.random.default_rng([seed, 5])
    for trial in range(trials):
        picks = rng.choice(H.m, size=size, replace=False)
        union = 0
        for p in picks:
            union |= H.rows[int(p)]
        if union.bit_count() <= s:
            return ProbeReport(
                True,
                tuple(sorted(int(p) + 1 for p in picks)),
                union.bit_count(),
                trial + 1,
            )
    return ProbeReport(False, None, None, trials)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
