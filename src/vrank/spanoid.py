"""Symmetric spanoids: span closure, rank, the canonical stencil, and the
rank-nullity correspondence with visible rank."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .engine import (
    DEFAULT_NODE_BUDGET,
    VrankResult,
    _peel,
    visible_rank_exact,
    visibly_independent,
)
from .stencil import Stencil, StencilError, is_json_int, is_json_int_list


class SpanoidError(StencilError):
    pass


@dataclass(frozen=True)
class SymmetricSpanoid:
    """Universe [n] with defining sets S_1..S_m; every S_j generates the
    inference rules S_j \\ {i} -> i for i in S_j.

    Singleton sets are allowed (they make their element free); duplicate sets
    are kept, since they change m but not spans.
    """

    n: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise SpanoidError("negative universe size")
        for s in self.sets:
            if not s:
                raise SpanoidError("defining sets must be nonempty")
            if not all(1 <= i <= self.n for i in s):
                raise SpanoidError(f"set {sorted(s)} escapes universe [{self.n}]")

    @staticmethod
    def from_sets(n: int, sets) -> "SymmetricSpanoid":
        return SymmetricSpanoid(n, tuple(frozenset(s) for s in sets))

    def to_json(self) -> dict:
        return {"n": self.n, "sets": [sorted(s) for s in self.sets]}

    @staticmethod
    def from_json(doc: dict) -> "SymmetricSpanoid":
        n = doc.get("n") if isinstance(doc, dict) else None
        sets = doc.get("sets") if isinstance(doc, dict) else None
        if not (
            is_json_int(n)
            and isinstance(sets, list)
            and all(map(is_json_int_list, sets))
        ):
            raise SpanoidError(
                'spanoid JSON must be {"n": <int>, "sets": [[<int>, ...], ...]}'
            )
        return SymmetricSpanoid.from_sets(n, sets)

    @staticmethod
    def from_json_str(text: str) -> "SymmetricSpanoid":
        return SymmetricSpanoid.from_json(json.loads(text))


def _set_masks(S: SymmetricSpanoid) -> list[int]:
    return [sum(1 << (i - 1) for i in s) for s in S.sets]


def span_closure(S: SymmetricSpanoid, T) -> frozenset[int]:
    """Least fixed point of the inference rules applied to T: add i whenever
    some S_j containing i has S_j \\ {i} inside the current set.  That is
    peeling the columns outside T on the canonical stencil, and the span is
    what the peel drops, with T."""
    T = frozenset(T)
    for i in T:
        if not 1 <= i <= S.n:
            raise SpanoidError(f"element {i} out of range")
    left = _peel(_set_masks(S), ((1 << S.n) - 1) & ~sum(1 << (i - 1) for i in T))[1]
    return frozenset(i + 1 for i in range(S.n) if not left >> i & 1)


@dataclass(frozen=True)
class SpanoidRankResult:
    value: int
    basis: frozenset[int]
    exhaustive: bool


def spanoid_rank(
    S: SymmetricSpanoid, node_budget: int = DEFAULT_NODE_BUDGET
) -> SpanoidRankResult:
    """Size of the smallest spanning subset of [n], computed as n - vrk of the
    canonical stencil by one exact visible-rank search.

    ``basis`` is the complement of the search certificate's columns: those
    columns are visibly independent, so their complement spans (column
    equivalence).  ``exhaustive`` is the search's ``exact`` flag.  When the
    node budget runs out it is False and ``value`` is a sound upper bound,
    still witnessed by the spanning ``basis``.
    """
    return _rank_by_search(S, canonical_stencil(S), node_budget)[1]


def _rank_by_search(
    S: SymmetricSpanoid, H: Stencil, node_budget: int
) -> tuple[VrankResult, SpanoidRankResult]:
    res = visible_rank_exact(H, node_budget=node_budget)
    basis = frozenset(range(1, S.n + 1)) - frozenset(res.certificate.col_subset)
    return res, SpanoidRankResult(S.n - res.lower_bound, basis, res.exact)


def canonical_stencil(S: SymmetricSpanoid) -> Stencil:
    """m x n stencil with row i's star support equal to S_i."""
    return Stencil.from_rows(_set_masks(S), S.n)


@dataclass(frozen=True)
class RankNullityReport:
    n: int
    vrank: int
    vrank_exact: bool
    spanoid_rank: int
    spanoid_exhaustive: bool
    identity_holds: bool
    column_equivalence_checked: bool
    column_equivalence_holds: bool | None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "vrank": self.vrank,
            "spanoid_rank": self.spanoid_rank,
            "identity_holds": self.identity_holds,
            "column_equivalence_checked": self.column_equivalence_checked,
            "column_equivalence_holds": self.column_equivalence_holds,
        }


def rank_nullity_check(
    S: SymmetricSpanoid,
    check_columns: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> RankNullityReport:
    """Verify vrk(canonical stencil) + rank(spanoid) = n, and optionally the
    column equivalence (visible independence of C vs span of its complement)
    for every C in 2^[n].  Failures indicate an implementation bug: the
    identity is unconditional."""
    H = canonical_stencil(S)
    vres, rres = _rank_by_search(S, H, node_budget)
    universe = frozenset(range(1, S.n + 1))
    # Both sides come from one search, so n - vrk = rank holds by
    # construction; the two replays below do not trust the search.
    holds = (
        vres.exact
        and vres.certificate.verify(H)
        and span_closure(S, rres.basis) == universe
    )

    col_ok: bool | None = None
    if check_columns:
        col_ok = all(
            visibly_independent(H, C, node_budget=node_budget)
            == (span_closure(S, universe - set(C)) == universe)
            for size in range(S.n + 1)
            for C in combinations(sorted(universe), size)
        )
    return RankNullityReport(
        S.n,
        vres.lower_bound,
        vres.exact,
        rres.value,
        rres.exhaustive,
        holds,
        check_columns,
        col_ok,
    )
