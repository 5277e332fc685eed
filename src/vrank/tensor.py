"""Tensor products and powers of stencils, distinct rank, capacity bounds.

Tensor ordering is fixed as row-major lexicographic on factor indices: the
product row for factor rows (a1, a2) sits at index (a1-1)*m2 + a2, and labels
are concatenated tuples.  Visible rank is permutation-invariant, so any fixed
bijection would do; this one makes implicit certificate arithmetic mechanical.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from itertools import count, islice
from operator import and_

from . import engine
from .engine import DEFAULT_NODE_BUDGET, DiagonalCertificate, VrankResult
from .families import row_groups
from .gf import (
    WitnessMatrix,
    gf_rank,
    is_prime,
    low_rank_witness,
    stopping_set_witness,
    validate_witness,
)
from .stencil import Stencil, StencilError

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
    # The copies of m2 that m1 spreads out do not overlap, so one multiply
    # by the spread ORs them.
    n2 = H2.n
    masks = []
    for m1 in H1.rows:
        spread = sum(1 << (j * n2) for j in range(H1.n) if m1 >> j & 1)
        masks.extend(m2 * spread for m2 in H2.rows)
    rl = tuple(a + b for a in H1.row_labels for b in H2.row_labels)
    cl = tuple(a + b for a in H1.col_labels for b in H2.col_labels)
    return Stencil(H1.m * H2.m, H1.n * H2.n, tuple(masks), rl, cl)


def _fits(H: Stencil, k: int, max_entries: int) -> bool:
    """Whether H^(xk) may be built: level 1 always, a level k >= 2 when its
    (m*n)^k entries are within ``max_entries``."""
    return k == 1 or (H.m * H.n) ** k <= max_entries


def _check_power(H: Stencil, k: int, max_entries: int) -> None:
    if k < 1:
        raise StencilError("tensor power requires k >= 1")
    if not _fits(H, k, max_entries):
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


def diagonal_tensor_certificate(H: Stencil, t: int) -> tuple[Stencil, bool]:
    """Evaluate, without materializing H^(xt), its n x n sub-stencil with rows
    ((i,1),...,(i,t)) and columns (i,...,i).

    A True flag means the sub-stencil is the identity pattern, which certifies
    vrk(H^(xt)) >= n.  Requires rows labeled (i, s) over [n] x [t'], t' >= t.
    """
    if t < 1:
        raise StencilError("tensor power requires t >= 1")
    groups = row_groups(H)
    if groups is None or len(groups[0]) < t:
        raise StencilError(
            "diagonal tensor certificate needs rows labeled (i, s) over [n] x [t]"
        )
    masks = tuple(reduce(and_, group[:t]) for group in groups)
    identity = all(mask == 1 << i for i, mask in enumerate(masks))
    rl = tuple(tuple(x for s in range(1, t + 1) for x in (i, s)) for i in range(1, H.n + 1))
    cl = tuple(lab * t for lab in H.col_labels)
    return Stencil(H.n, H.n, masks, rl, cl), identity


def tensor_certificate(
    H1: Stencil,
    c1: DiagonalCertificate,
    H2: Stencil,
    c2: DiagonalCertificate,
) -> DiagonalCertificate:
    """Tensor two certificates into one for tensor_product(H1, H2).

    Each factor's triangular presentation (its subsets in the order of its
    permutations) is checked on its stencil; raises ``StencilError`` when one
    is not upper triangular with a star diagonal.  Nesting two such
    presentations lexicographically gives another, since an entry below the
    diagonal lies below it in the first factor or, on the first factor's
    diagonal, below it in the second.
    """
    (r1, k1, _), (r2, k2, _) = c1._triangular_order(H1), c2._triangular_order(H2)
    rows = [(a - 1) * H2.m + b for a in r1 for b in r2]
    cols = [(c - 1) * H2.n + d for c in k1 for d in k2]
    return DiagonalCertificate.triangular(rows, cols)


@dataclass(frozen=True)
class DistinctRankResult:
    """Largest visibly-full-rank sub-stencil of H^(xk) whose row tuple-value
    sets are pairwise disjoint, and likewise for columns."""

    level: int
    value: int
    certificate: DiagonalCertificate
    exhaustive: bool


def distinct_rank_exact(
    H: Stencil,
    k: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> DistinctRankResult:
    """Maximum distinctly-full-rank sub-stencil of H^(xk), by the engine's
    search over triangular row sequences with each label's values as a
    bitmask, so that the disjointness constraints prune the search."""
    Hk = tensor_power(H, k, max_entries=max_entries)
    row_vals, col_vals = _value_masks(Hk.row_labels), _value_masks(Hk.col_labels)
    value, pairs, completed = engine._urm_search(
        list(Hk.rows), Hk.n, 0, node_budget, None, row_vals, col_vals
    )
    cert = engine._certificate_from_sequence(Hk, pairs or [])
    return DistinctRankResult(k, value, cert, completed)


def _value_masks(labels) -> list[int]:
    """Each label's set of values as a bitmask, one bit per distinct value."""
    bit = {v: b for b, v in enumerate(sorted({v for lab in labels for v in lab}))}
    return [sum(1 << bit[v] for v in set(lab)) for lab in labels]


@dataclass(frozen=True)
class CapacityEstimate:
    """Per-tensor-level certified lower bounds on vrk(H^(xk)), the best
    value of vrk(H^(xk))^(1/k) among them, and a sound upper bound per level.

    ``per_level[k]`` is (lower, exact), where exact means that the lower
    bound meets ``upper[k]``.
    """

    per_level: dict[int, tuple[int, bool]]
    best: float
    upper: dict[int, int]

    def to_json(self) -> dict:
        return {
            "per_level": {
                str(k): {"lower": v, "upper": self.upper[k], "exact": e}
                for k, (v, e) in self.per_level.items()
            },
            "best": self.best,
        }


def _witness_rank(H: Stencil, floor: int) -> int:
    """Least GF(p) rank among witnesses of H, p the three smallest primes
    >= max(n, 2): the stopping-set witness over the first, then, while the
    least rank is above ``floor``, the polynomial witness over each in turn.
    Each witness is validated (a failure raises), so vrk(H) <= rank(W), and
    its Kronecker powers are witnesses of the tensor powers, so
    vrk(H^(xk)) <= rank(W)^k.

    ``floor`` is a certified lower bound on vrk(H), so a rank that meets it
    is vrk(H) and no witness can beat it.  The stopping-set witness has rank
    at most n - 1 whenever vrk(H) < n (see ``stopping_set_witness``), so it
    alone often meets vrk(H); where it does not, the polynomial witnesses
    may, as on stencils whose rows all miss few columns.
    """
    primes = list(islice(filter(is_prime, count(max(H.n, 2))), 3))
    w = _validated_rank(stopping_set_witness(H, primes[0]))
    for p in primes:
        if w <= floor:
            break
        w = min(w, _validated_rank(low_rank_witness(H, p)))
    return w


def _validated_rank(W: WitnessMatrix) -> int:
    ok, at = validate_witness(W)
    if not ok:
        raise StencilError(f"the GF({W.p}) witness misses the star pattern at {at}")
    return gf_rank(W)


def _power_searches(
    H: Stencil,
    k_max: int,
    node_budget: int,
    time_budget: float | None,
    max_entries: int,
) -> tuple[list[VrankResult], int | None]:
    """Search H^(xk) for k = 1, ..., k_max while ``_fits`` admits the power
    (level 1 always); returns the levels' results and the witness rank w.

    w is None unless a level k >= 2 fits: a stencil searched only at level 1
    does not pay for the eliminations.  Otherwise w is ``_witness_rank`` with
    the greedy bound as its floor, built before level 1 is searched, so that
    a greedy incumbent that meets w closes level 1 at once.  Each level k is
    given the upper bound w^k; a level k >= 2 is seeded with level k-1's
    certificate tensored with level 1's, which closes it without a search
    once the seed meets w^k.  Every level is one ``visible_rank_exact``
    call, whose search of H^(xk) finds its factor reversal from the
    concatenated column labels.  All levels share the one deadline
    ``time_budget`` sets."""
    deadline = time.monotonic() + (math.inf if time_budget is None else time_budget)
    w = None
    if k_max >= 2 and _fits(H, 2, max_entries):
        w = _witness_rank(H, engine.greedy_lower_bound(H)[0])
    res1 = engine.visible_rank_exact(
        H, node_budget=node_budget, time_budget=time_budget, upper=w
    )
    levels, Hk = [res1], H
    for k in range(2, k_max + 1):
        if not _fits(H, k, max_entries):
            break
        remaining = deadline - time.monotonic()
        seed = tensor_certificate(Hk, levels[-1].certificate, H, res1.certificate)
        Hk = tensor_product(Hk, H, max_entries=max_entries)
        levels.append(
            engine.visible_rank_exact(
                Hk,
                node_budget=node_budget,
                time_budget=remaining,
                initial=seed,
                upper=None if w is None else w**k,
            )
        )
    return levels, w


def capacity_lower_bound(
    H: Stencil,
    k_max: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float | None = None,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> CapacityEstimate:
    """Certified lower bounds on vrk(H^(xk)) for k = 1..k_max, each with a
    sound upper bound.

    Powers that fit in ``max_entries`` are searched, each seeded with the
    tensored certificate of the level below and bounded above by w^k, w the
    least witness rank built (see ``_witness_rank``, which builds the
    stopping-set witness first and the polynomial ones only while it stays
    above H's greedy bound); the search of a level k >= 2 visits each state
    once up to a reversal of H^(xk)'s column labels, (c1, ..., ck) ->
    (ck, ..., c1) for a base with 1-tuple labels (see
    ``engine._label_flip``).  The upper bound of a searched level is the
    search's, which is at most w^k.  Larger powers fall back to vrk(H)^k, plus the implicit
    diagonal certificate when the row-label shape admits one, below w^k, or
    below min(m, n)^k when no witness was built.
    """
    if k_max < 1:
        raise StencilError("tensor power requires k_max >= 1")
    levels, w = _power_searches(H, k_max, node_budget, time_budget, max_entries)
    lower = {k: res.lower_bound for k, res in enumerate(levels, start=1)}
    upper = {k: res.upper_bound for k, res in enumerate(levels, start=1)}
    cap = w if w is not None else min(H.m, H.n)
    groups = row_groups(H)
    for k in range(2, k_max + 1):
        if k not in lower:
            lower[k], upper[k] = lower[1] ** k, cap**k
        if groups is not None and len(groups[0]) == k:
            _, identity = diagonal_tensor_certificate(H, k)
            if identity:
                lower[k] = max(lower[k], H.n)
    per_level = {k: (lb, lb == upper[k]) for k, lb in lower.items()}
    best = max(_root(v, k) for k, v in lower.items())
    return CapacityEstimate(per_level, best, upper)


def _root(v: int, k: int) -> float:
    """v^(1/k) for an integer v >= 0: the integer root when v is a k-th
    power, else the float power while v converts to a float, and past that
    2^(log2(v)/k); ``math.log2`` reads a big integer without converting it."""
    try:
        root = v ** (1.0 / k)
    except OverflowError:
        root = 2 ** (math.log2(v) / k)
    a = round(root)
    return float(a) if a**k == v else root


def tensor_power_vrank(
    H: Stencil,
    k: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float | None = None,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> VrankResult:
    """Exact-or-bounded vrk of H^(xk): the level-k search of the power loop
    (see ``_power_searches``), which searches every power below it, shares
    ``time_budget`` with them, bounds each level by the witness rank of H
    and searches each level k >= 2 up to the factor reversal that
    ``visible_rank_exact`` reads off its column labels."""
    _check_power(H, k, max_entries)
    levels, _ = _power_searches(H, k, node_budget, time_budget, max_entries)
    return levels[-1]
