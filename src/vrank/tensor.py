"""Tensor products and powers of stencils, distinct rank, capacity bounds.

Tensor ordering is fixed as row-major lexicographic on factor indices: the
product row for factor rows (a1, a2) sits at index (a1-1)*m2 + a2, and labels
are concatenated tuples.  Visible rank is permutation-invariant, so any fixed
bijection would do; this one makes implicit certificate arithmetic mechanical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .engine import (
    DEFAULT_NODE_BUDGET,
    DiagonalCertificate,
    VrankResult,
    _certificate_from_sequence,
    _peel,
    is_visibly_full_rank,
    visible_rank_exact,
)
from .stencil import PermutationPair, Stencil, StencilError

DEFAULT_MAX_ENTRIES = 1 << 16


class TensorSizeError(StencilError):
    """Materializing the product would exceed the entry limit."""


def tensor_product(H1: Stencil, H2: Stencil, max_entries: int = DEFAULT_MAX_ENTRIES) -> Stencil:
    """Entrywise-AND product: star at ((a1,a2),(b1,b2)) iff both factors star."""
    total = H1.m * H2.m * H1.n * H2.n
    if total > max_entries:
        raise TensorSizeError(
            f"product has {total} entries, over the limit of {max_entries}; "
            "use implicit certificate operations instead"
        )
    n2 = H2.n
    masks = []
    for m1 in H1.rows:
        for m2 in H2.rows:
            mask = 0
            rest = m1
            while rest:
                bit = rest & -rest
                rest ^= bit
                mask |= m2 << ((bit.bit_length() - 1) * n2)
            masks.append(mask)
    rl = tuple(a + b for a in H1.row_labels for b in H2.row_labels)
    cl = tuple(a + b for a in H1.col_labels for b in H2.col_labels)
    return Stencil(H1.m * H2.m, H1.n * H2.n, tuple(masks), rl, cl)


def _check_power(H: Stencil, k: int, max_entries: int) -> None:
    if k < 1:
        raise StencilError("tensor power requires k >= 1")
    if (H.m * H.n) ** k > max_entries:
        raise TensorSizeError(
            f"H^(x{k}) has {(H.m * H.n) ** k} entries, over the limit of {max_entries}"
        )


def tensor_power(H: Stencil, k: int, max_entries: int = DEFAULT_MAX_ENTRIES) -> Stencil:
    """k-fold tensor product of H with itself; labels are arity-k tuples."""
    _check_power(H, k, max_entries)
    out = H
    for _ in range(k - 1):
        out = tensor_product(out, H, max_entries=max_entries)
    return out


def _row_group_shape(H: Stencil) -> int | None:
    """If row labels are exactly [n] x [t] pairs (i, s), return t, else None."""
    if H.m == 0 or H.row_arity != 2:
        return None
    if H.m % H.n != 0:
        return None
    t = H.m // H.n
    expected = {(i, s) for i in range(1, H.n + 1) for s in range(1, t + 1)}
    return t if set(H.row_labels) == expected else None


def diagonal_tensor_certificate(H: Stencil, t: int) -> tuple[Stencil, bool]:
    """Evaluate, without materializing H^(xt), its n x n sub-stencil with rows
    ((i,1),...,(i,t)) and columns (i,...,i).

    A True flag means the sub-stencil is the identity pattern, which certifies
    vrk(H^(xt)) >= n.  Requires rows labeled (i, s) over [n] x [t].
    """
    if t < 1:
        raise StencilError("tensor power requires t >= 1")
    shape_t = _row_group_shape(H)
    if shape_t is None or shape_t < t:
        raise StencilError(
            "diagonal tensor certificate needs rows labeled (i, s) over [n] x [t]"
        )
    n = H.n
    pos = {lab: idx for idx, lab in enumerate(H.row_labels)}
    masks = []
    for i in range(1, n + 1):
        mask = (1 << n) - 1
        for s in range(1, t + 1):
            mask &= H.rows[pos[(i, s)]]
        masks.append(mask)
    identity = all(masks[i] == 1 << i for i in range(n))
    rl = []
    for i in range(1, n + 1):
        lab: tuple[int, ...] = ()
        for s in range(1, t + 1):
            lab += (i, s)
        rl.append(lab)
    cl = tuple(H.col_labels[i] * t for i in range(n))
    return Stencil(n, n, tuple(masks), tuple(rl), cl), identity


def tensor_certificate(
    H1: Stencil,
    c1: DiagonalCertificate,
    H2: Stencil,
    c2: DiagonalCertificate,
) -> DiagonalCertificate:
    """Tensor two certificates into one for tensor_product(H1, H2).

    Nesting the two triangular presentations lexicographically keeps the
    pattern upper triangular, so the product certificate uses identity
    permutations on its (reordered) subsets.
    """
    tri_rows1 = [c1.row_subset[p - 1] for p in c1.perm_pair.row_perm]
    tri_cols1 = [c1.col_subset[p - 1] for p in c1.perm_pair.col_perm]
    tri_rows2 = [c2.row_subset[p - 1] for p in c2.perm_pair.row_perm]
    tri_cols2 = [c2.col_subset[p - 1] for p in c2.perm_pair.col_perm]
    rows = tuple((a - 1) * H2.m + b for a in tri_rows1 for b in tri_rows2)
    cols = tuple((c - 1) * H2.n + d for c in tri_cols1 for d in tri_cols2)
    # Pattern of the product sub-stencil, straight from the factors.
    r = len(rows)
    masks = []
    for a in tri_rows1:
        for b in tri_rows2:
            mask = 0
            for jj in range(r):
                c = tri_cols1[jj // len(tri_cols2)]
                d = tri_cols2[jj % len(tri_cols2)]
                if H1.star(a, c) and H2.star(b, d):
                    mask |= 1 << jj
            masks.append(mask)
    order = _peel(masks, r)
    if order is None:
        raise StencilError("internal error: tensored certificate does not peel")
    return DiagonalCertificate(
        rows,
        cols,
        PermutationPair.identity(r, r),
        tuple((i + 1, j + 1) for i, j in order),
    )


@dataclass(frozen=True)
class DistinctRankResult:
    """Largest visibly-full-rank sub-stencil of H^(xk) whose row tuple-value
    sets are pairwise disjoint, and likewise for columns."""

    level: int
    value: int
    certificate: DiagonalCertificate
    exhaustive: bool


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


def distinct_rank_exact(
    H: Stencil,
    k: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> DistinctRankResult:
    """Maximum distinctly-full-rank sub-stencil of H^(xk), by branch-and-bound
    with the disjointness constraints pruning the search."""
    Hk = tensor_power(H, k, max_entries=max_entries)
    masks = list(Hk.rows)
    n = Hk.n
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
    cert = _certificate_from_sequence(Hk, best_pairs)
    return DistinctRankResult(k, best, cert, not aborted)


@dataclass(frozen=True)
class CapacityEstimate:
    """Per-tensor-level certified lower bounds on vrk(H^(xk)) and the best
    value of vrk(H^(xk))^(1/k) among them."""

    per_level: dict[int, tuple[int, bool]]
    best: float

    def to_json(self) -> dict:
        return {
            "per_level": {str(k): {"lower": v, "exact": e} for k, (v, e) in self.per_level.items()},
            "best": self.best,
        }


def capacity_lower_bound(
    H: Stencil,
    k_max: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float | None = None,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> CapacityEstimate:
    """Certified lower bounds on vrk(H^(xk)) for k = 1..k_max.

    Small powers are searched exactly (seeded with the tensored level-1
    certificate); larger ones fall back to certificate tensoring, plus the
    implicit diagonal certificate when the row-label shape admits one.
    """
    if k_max < 1:
        raise StencilError("tensor power requires k_max >= 1")
    start = time.monotonic()
    res1 = visible_rank_exact(H, node_budget=node_budget, time_budget=time_budget)
    per_level: dict[int, tuple[int, bool]] = {1: (res1.lower_bound, res1.exact)}
    lb1 = res1.lower_bound
    shape_t = _row_group_shape(H)

    prev_pow = H
    prev_cert = res1.certificate
    for k in range(2, k_max + 1):
        lb = lb1**k
        exact = False
        materializable = (H.m * H.n) ** k <= max_entries
        remaining = None
        if time_budget is not None:
            remaining = max(0.1, time_budget - (time.monotonic() - start))
        if materializable and prev_pow is not None and prev_cert is not None:
            Hk = tensor_product(prev_pow, H, max_entries=max_entries)
            seed = None
            if prev_cert.size and res1.certificate.size:
                seed = tensor_certificate(prev_pow, prev_cert, H, res1.certificate)
            res = visible_rank_exact(
                Hk, node_budget=node_budget, time_budget=remaining, initial=seed
            )
            lb = max(lb, res.lower_bound)
            exact = res.exact
            prev_pow, prev_cert = Hk, res.certificate
        else:
            prev_pow, prev_cert = None, None
        if shape_t == k:
            _, identity = diagonal_tensor_certificate(H, k)
            if identity:
                lb = max(lb, H.n)
        per_level[k] = (lb, exact)

    best = max(v ** (1.0 / k) for k, (v, _) in per_level.items())
    return CapacityEstimate(per_level, best)


def tensor_power_vrank(
    H: Stencil,
    k: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float | None = None,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> VrankResult:
    """Exact-or-bounded vrk of H^(xk), seeding the incumbent with the tensored
    level-1 certificate."""
    if k == 1:
        return visible_rank_exact(H, node_budget=node_budget, time_budget=time_budget)
    _check_power(H, k, max_entries)
    res1 = visible_rank_exact(H, node_budget=node_budget, time_budget=time_budget)
    Hk, seed = H, res1.certificate
    for _ in range(k - 1):
        seed = tensor_certificate(Hk, seed, H, res1.certificate)
        Hk = tensor_product(Hk, H, max_entries=max_entries)
    return visible_rank_exact(
        Hk, node_budget=node_budget, time_budget=time_budget, initial=seed
    )
