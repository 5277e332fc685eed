"""Visible rank: peeling decision procedure, triangularization, exact search, bounds.

The exact solver explores triangular row sequences.  A square sub-stencil has
exactly one star diagonal iff its rows can be ordered r_1..r_k so that each
r_i carries a star in some column outside the supports of r_1..r_{i-1}; the
chosen columns then form the diagonal of a triangular pattern.  The search
therefore branches on "next row", with the union of chosen supports as the
only state, memoizing the best depth at which each union was reached.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable, Generator, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .stencil import (
    PermutationPair,
    Stencil,
    StencilError,
    SubsetError,
    is_json_int_list,
    max_matching_size,
    substencil,
)

DEFAULT_NODE_BUDGET = 5_000_000

PROV_EXACT = "exact-search"
PROV_MATCHING = "matching"
PROV_ZERO_RECT = "zero-rectangle"
PROV_WITNESS = "witness"


class CertificateError(StencilError):
    """Malformed certificate document."""


@dataclass(frozen=True)
class DiagonalCertificate:
    """Witness that a square sub-stencil has exactly one star diagonal.

    Applying ``perm_pair`` to ``substencil(H, row_subset, col_subset)`` yields
    an upper-triangular pattern with a star diagonal; ``peel_order`` replays
    the single-star-row peeling on the (unpermuted) sub-stencil, with 1-based
    positions into ``row_subset``/``col_subset``.
    """

    row_subset: tuple[int, ...]
    col_subset: tuple[int, ...]
    perm_pair: PermutationPair
    peel_order: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.row_subset)

    def verify(self, H: Stencil) -> bool:
        """True iff the permuted sub-stencil is upper triangular with a star
        diagonal and ``peel_order`` peels it.  Linear in the size: the
        presented order (the subsets taken in permutation order) is checked
        by ``_triangular_order``, and the peel is replayed on H's columns.
        """
        r = self.size
        if len(self.peel_order) != r:
            return False
        try:
            _, _, active = self._triangular_order(H)
        except StencilError:
            return False
        # Replay the peeling on the columns still active: r steps that each
        # clear one leave none, and a row peeled twice has no active star left.
        for pi, pj in self.peel_order:
            if not (1 <= pi <= r and 1 <= pj <= r):
                return False
            bit = 1 << (self.col_subset[pj - 1] - 1)
            if H.rows[self.row_subset[pi - 1] - 1] & active != bit:
                return False
            active ^= bit
        return True

    def _triangular_order(self, H: Stencil) -> tuple[list[int], list[int], int]:
        """The presented order, the subsets taken in permutation order, and
        its pivot mask; raises ``StencilError`` when a permutation and its
        subset differ in length, and otherwise as ``_triangular_pivots`` does."""
        rp, cp = self.perm_pair.row_perm, self.perm_pair.col_perm
        if len(rp) != len(self.row_subset) or len(cp) != len(self.col_subset):
            raise StencilError("a permutation and its subset differ in length")
        rows = [self.row_subset[a - 1] for a in rp]
        cols = [self.col_subset[b - 1] for b in cp]
        return rows, cols, _triangular_pivots(H, rows, cols)

    @staticmethod
    def triangular(rows, cols) -> "DiagonalCertificate":
        """Identity permutations and the peel order (r, r), ..., (1, 1) for
        ``rows`` and ``cols`` listed as an upper-triangular pattern with a
        star diagonal, which is not checked (``triangular_certificate`` is)."""
        r = len(rows)
        peel = tuple((k, k) for k in range(r, 0, -1))
        return DiagonalCertificate(tuple(rows), tuple(cols), PermutationPair.identity(r, r), peel)

    def to_json(self) -> dict:
        return {
            "rows": list(self.row_subset),
            "cols": list(self.col_subset),
            "row_perm": list(self.perm_pair.row_perm),
            "col_perm": list(self.perm_pair.col_perm),
            "peel_order": [list(p) for p in self.peel_order],
        }

    @staticmethod
    def from_json(doc: dict) -> "DiagonalCertificate":
        """Read the ``to_json`` form; raises ``CertificateError`` when the
        document does not have that shape."""

        def int_list(key: str) -> tuple[int, ...]:
            value = doc.get(key)
            if not is_json_int_list(value):
                raise CertificateError(f"certificate {key!r} must be a list of integers")
            return tuple(value)

        if not isinstance(doc, dict):
            raise CertificateError("certificate JSON must be an object")
        peel = doc.get("peel_order")
        if not (
            isinstance(peel, list) and all(is_json_int_list(p) and len(p) == 2 for p in peel)
        ):
            raise CertificateError("certificate 'peel_order' must be a list of [row, col] pairs")
        return DiagonalCertificate(
            int_list("rows"),
            int_list("cols"),
            PermutationPair(int_list("row_perm"), int_list("col_perm")),
            tuple((p[0], p[1]) for p in peel),
        )


@dataclass(frozen=True)
class VrankResult:
    """A visible-rank value bracketed by a certificate and a sound upper bound."""

    lower_bound: int
    upper_bound: int
    certificate: DiagonalCertificate
    upper_provenance: str
    exact: bool

    def to_json(self) -> dict:
        return {
            "lower": self.lower_bound,
            "upper": self.upper_bound,
            "exact": self.exact,
            "upper_provenance": self.upper_provenance,
            "certificate": self.certificate.to_json(),
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json())


def _peel(masks: Sequence[int], active: int) -> tuple[list[tuple[int, int]], int]:
    """Peel the columns of ``active``: in rounds over the live rows, a row that
    meets ``active`` in exactly one column drops that column at once.

    Returns the 0-based (row, column) drops in order and the mask of the
    columns left, the largest set inside ``active`` that no row meets in
    exactly one column (it does not depend on the order of the drops).
    """
    drops: list[tuple[int, int]] = []
    live: Sequence[int] = range(len(masks))
    while True:
        rest = []
        for i in live:
            x = masks[i] & active
            if x & (x - 1):
                rest.append(i)
            elif x:
                drops.append((i, x.bit_length() - 1))
                active ^= x
        if len(rest) == len(live):
            return drops, active
        live = rest


def is_visibly_full_rank(M: Stencil) -> tuple[bool, DiagonalCertificate | None]:
    """Decide whether the square stencil M has exactly one star diagonal,
    that is, whether peeling drops all of its columns.

    On success also returns a certificate whose permutation pair
    triangularizes M.
    """
    if M.m != M.n:
        raise StencilError("is_visibly_full_rank requires a square stencil")
    order, left = _peel(M.rows, (1 << M.n) - 1)
    if left:
        return False, None
    r = M.n
    # Row peeled first belongs at the bottom of the triangular form.
    row_perm = tuple(order[r - 1 - i][0] + 1 for i in range(r))
    col_perm = tuple(order[r - 1 - j][1] + 1 for j in range(r))
    cert = DiagonalCertificate(
        tuple(range(1, r + 1)),
        tuple(range(1, r + 1)),
        PermutationPair(row_perm, col_perm),
        tuple((i + 1, j + 1) for i, j in order),
    )
    return True, cert


def _triangular_pivots(H: Stencil, rows, cols) -> int:
    """Mask of ``cols``, checking in one pass that the sub-stencil of ``H`` on
    the 1-based ``rows`` and ``cols``, in that order, is upper triangular with
    a star diagonal: every index is in range, and ``rows[i]`` has a star at
    ``cols[i]`` and none on ``cols[:i]`` (so a repeated index fails too).
    Raises ``SubsetError`` or ``StencilError`` otherwise."""
    if len(rows) != len(cols):
        raise StencilError(f"{len(rows)} rows but {len(cols)} columns")
    pivots = 0
    for i, j in zip(rows, cols):
        if not (1 <= i <= H.m and 1 <= j <= H.n):
            raise SubsetError(f"entry ({i},{j}) out of range")
        mask = H.rows[i - 1]
        if not mask >> (j - 1) & 1 or mask & pivots:
            raise StencilError(f"row {i} with pivot column {j} breaks the triangular order")
        pivots |= 1 << (j - 1)
    return pivots


def triangular_certificate(H: Stencil, rows, cols) -> DiagonalCertificate:
    """Certificate for the sub-stencil of ``H`` on the 1-based ``rows`` and
    ``cols``, listed as ``_triangular_pivots`` checks, which raises otherwise."""
    _triangular_pivots(H, rows, cols)
    return DiagonalCertificate.triangular(rows, cols)


def _certificate_from_sequence(H: Stencil, pairs: list[tuple[int, int]]) -> DiagonalCertificate:
    """Certificate of a forward triangular sequence of 0-based (row, col)
    pairs, each column outside the supports of all earlier rows; reversed,
    the sequence lists an upper-triangular pattern."""
    return triangular_certificate(
        H, [i + 1 for i, _ in reversed(pairs)], [j + 1 for _, j in reversed(pairs)]
    )


def greedy_lower_bound(H: Stencil) -> tuple[int, DiagonalCertificate]:
    """Greedy triangular sequence: scan rows by ascending support size, keep a
    row whenever it still has a star in an unblocked column, then block its
    whole support.  For an ell-LRC stencil this yields >= ceil(n/(ell+1))."""
    masks = H.rows
    blocked = 0
    pairs: list[tuple[int, int]] = []
    for i in sorted(range(H.m), key=lambda i: (masks[i].bit_count(), i)):
        fresh = masks[i] & ~blocked
        if fresh:
            pairs.append((i, (fresh & -fresh).bit_length() - 1))
            blocked |= masks[i]
    return len(pairs), _certificate_from_sequence(H, pairs)


def _packed(masks: list[int], n: int) -> np.ndarray:
    """The n-column bitmasks ``masks`` as rows of little-endian 64-bit words,
    ceil(n/64) of them per row (at least one); view it as ``np.uint8`` for
    the bytes."""
    words = max(1, -(-n // 64))
    data = b"".join(mask.to_bytes(8 * words, "little") for mask in masks)
    return np.frombuffer(data, "<u8").reshape(len(masks), words)


#: The most subsets ``zero_rectangle_bound`` counts over all its levels.
_ZRECT_SUBSETS = 2_000_000
#: Prefixes per matrix product in ``zero_rectangle_bound``.
_ZRECT_BLOCK = 64


def zero_rectangle_bound(H: Stencil, a_max: int = 3) -> int:
    """Upper bound on vrk: min over a of a + b*(a), where b*(a) is the widest
    all-zero a x b sub-stencil.  Exact at each completed level of a; the walk
    stops before a level that would take the subset count past
    ``_ZRECT_SUBSETS``.

    Level a extends the (a-1)-subsets whose zero sets still share a column,
    held as a packed array of their intersections and an array of their last
    rows i; level 1 has one all-ones prefix with last row -1.  The widths of
    a block of prefixes against every row are one 0/1 matrix product, of
    which only the columns past each prefix's last row count.  A prefix has
    C(m - i - 1, 2) grandchildren, so the next level is counted before this
    one runs, and its prefixes are collected only when it fits."""
    m, n = H.m, H.n
    if m == 0 or n == 0:
        return 0
    full = (1 << n) - 1

    def unpacked(rows: np.ndarray) -> np.ndarray:
        # float32 sums of 0/1 products are exact while n < 2**24.
        return np.unpackbits(rows, axis=1, count=n, bitorder="little").astype(np.float32)

    zeros = _packed([full & ~mask for mask in H.rows], n).view(np.uint8)
    zeros_t = unpacked(zeros).T
    cols = np.arange(m)
    prefixes, last = _packed([full], n).view(np.uint8), np.array([-1])
    best = min(m, n)
    spent = m
    a = 1
    while True:
        spent += int(((m - last - 1) * (m - last - 2) // 2).sum())
        deeper = a < a_max and a < m and spent <= _ZRECT_SUBSETS
        widest, rows, ends = 0, [], []
        for s in range(0, len(last), _ZRECT_BLOCK):
            block = last[s:s + _ZRECT_BLOCK]
            lo = block.min() + 1
            widths = unpacked(prefixes[s:s + _ZRECT_BLOCK]) @ zeros_t[:, lo:]
            widths *= cols[lo:] > block[:, None]
            widest = max(widest, int(widths.max(initial=0)))
            if deeper:
                r, j = np.nonzero(widths)
                rows.append(r + s)
                ends.append(j + lo)
        best = min(best, a + widest)
        if not deeper or best <= a + 1:
            return best
        rows, last = np.concatenate(rows), np.concatenate(ends)
        prefixes = prefixes[rows] & zeros[last]
        a += 1


def _upper_bound(H: Stencil, mub: int, upper: int | None = None) -> tuple[int, str]:
    """The least of the matching bound ``mub``, the zero-rectangle bound and
    ``upper``, with its provenance; ties go to them in that order."""
    bounds = [(mub, PROV_MATCHING), (zero_rectangle_bound(H), PROV_ZERO_RECT)]
    if upper is not None:
        bounds.append((upper, PROV_WITNESS))
    return min(bounds, key=lambda b: b[0])


def visible_rank_bounds(H: Stencil) -> VrankResult:
    """Cheap sound bracket: greedy lower bound vs min(matching, zero-rectangle)."""
    lb, cert = greedy_lower_bound(H)
    ub, prov = _upper_bound(H, max_matching_size(H))
    return VrankResult(lb, ub, cert, prov, exact=lb == ub)


def visible_rank_exact(
    H: Stencil,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float | None = None,
    initial: DiagonalCertificate | None = None,
    upper: int | None = None,
) -> VrankResult:
    """Exact visible rank by branch-and-bound over triangular row sequences.

    The incumbent starts from the greedy bound, or from ``initial`` when that
    certificate is larger; it is then replayed with ``verify``, and one that
    fails raises ``StencilError``.  ``upper`` is an optional known upper
    bound on vrk(H), such as the GF(p) rank of a witness of H; an incumbent
    above it raises ``StencilError``.  No search runs when the
    incumbent already meets ``upper`` or the matching bound (provenance
    ``witness`` or ``matching``).  If the search exhausts its node or time
    budget the result degrades to a sound bracket (``exact=False``) holding
    the best certificate found, with the upper bound min(matching,
    zero-rectangle, ``upper``).  The zero-rectangle bound is computed only in
    that case: a search that completes proves its value without it.  When
    H's column labels are tuples of two or more, the search visits each
    state once up to the first label reversal that is an automorphism of H
    (see ``_label_flip``), such as the factor reversal of a tensor power.
    """
    best, best_cert = greedy_lower_bound(H)
    if initial is not None and initial.size > best:
        if not initial.verify(H):
            raise StencilError(f"the initial certificate of size {initial.size} does not verify")
        best, best_cert = initial.size, initial
    _check_upper(best, upper)
    if best == upper:
        return VrankResult(best, best, best_cert, PROV_WITNESS, exact=True)
    mub = max_matching_size(H)
    if best >= mub:
        return VrankResult(best, best, best_cert, PROV_MATCHING, exact=True)

    value, pairs, completed = _urm_search(
        list(H.rows), H.n, best, node_budget, time_budget, flip=_label_flip(H)
    )
    if pairs is not None:
        best = value
        best_cert = _certificate_from_sequence(H, pairs)
        _check_upper(best, upper)
    if completed:
        return VrankResult(best, best, best_cert, PROV_EXACT, exact=True)
    ub, prov = _upper_bound(H, mub, upper)
    return VrankResult(best, ub, best_cert, prov, exact=best == ub)


def _check_upper(best: int, upper: int | None) -> None:
    if upper is not None and best > upper:
        raise StencilError(f"a certificate of size {best} exceeds the known upper bound {upper}")


#: ``_may_extend`` looks for chains of min(``_LONG_CHAIN``, need) rows at
#: nodes of depth at most ``_LONG_CHAIN_DEPTH`` once the search has spent
#: ``_LONG_CHAIN_AFTER`` nodes, and for pairs elsewhere.  Only a search that
#: large has subtrees below its shallow nodes big enough, tens of child
#: evaluations each, to repay a long chain; in a smaller one it costs more
#: than it cuts.
_LONG_CHAIN = 10
_LONG_CHAIN_DEPTH = 2
_LONG_CHAIN_AFTER = 1000
#: Work one chain check at a node may spend before it gives up and answers
#: "may extend": overlaps computed (per 64-bit word in ``_chain_walk``) and
#: member indices sorted.
_CHAIN_WORK = 300_000
#: Words of overlaps ``_chain_walk`` computes at a time, which bounds its
#: pair arrays whatever work it is granted.
_CHAIN_BLOCK = 1 << 16
#: The most sets of links one level of ``_chain_walk`` holds.  A per-node
#: check never holds that many: a level it walks holds at most min(C(k, s),
#: 300,000 / k) sets of s of its k links, 17,647 at most (k = 17, s = 7 to
#: 9), and a larger level would cost more than its ``_CHAIN_WORK``.
_CHAIN_SETS = 1 << 15
#: While the incumbent stalls, the search grants the root's ``_chain`` walk,
#: with need = incumbent + 1, ``_ROOT_WORK`` units of work per stalled node
#: and distinct row each time it has gone ``_ROOT_AFTER`` x 2^j nodes since
#: the incumbent last rose, and ``_ROOT_WORK_AFTER_BEAM`` units once the
#: beam has run.  The walk's cost thus stays within a constant factor of the
#: stalled search it may end.  Before the beam most walks seek past an
#: incumbent that is not final and cannot prove, so they get about a tenth
#: of the search's time per node.  After it the incumbent is mostly final
#: and its proof is the rest of the search, so the walk gets about the
#: search's own time: on DRGP-64 (128 rows, about 3 ns a unit) 128 units a
#: row cost about 50 us per stalled node, against 55 us of the search's own
#: per node.  On a 2-vCPU Xeon, exact_sweep's median DRGP-64 op took 42.5
#: ms at 16 and 29.6, 27.0 and 26.7 ms at post-beam rates of 64, 128 and
#: 256, the last step within the runs' spread; 128 before the beam too
#: slowed the tensor-gap-32 pool by 22-32%.
_ROOT_AFTER = 32
_ROOT_WORK = 16
_ROOT_WORK_AFTER_BEAM = 128
#: The search runs one ``_beam`` of ``_BEAM_WIDTH`` unions per level, at the
#: first stall point past ``_BEAM_AFTER`` nodes whose root walk does not
#: prove the incumbent, and takes its sequence when it beats the incumbent.
#: A smaller search, or one whose incumbent is already proven, finishes
#: before the beam would repay its cost.
_BEAM_WIDTH = 32
_BEAM_AFTER = 64


def _may_extend(
    live: list[tuple[int, int, int, int]],
    union: int,
    need: int,
    long: bool,
    deadline: float,
) -> bool:
    """False when no triangular sequence continuing the node adds ``need`` rows.

    ``live`` holds (c, index, mask, fresh) of the rows that still add a
    column, c being the number of their fresh columns, and ``union`` is U,
    the union of the fresh columns.  The pivots of an extension are distinct
    columns of U, so it needs ``need`` live rows and |U| >= need.  Its first
    s rows have no star on the need - s later pivots, so their zero sets in
    U share at least need - s columns: a zero-rectangle bound on the
    residual stencil, checked when need >= 3.  A ``long`` check grants the
    ``_chain`` walk one ``_CHAIN_WORK``; otherwise a pair test over Python
    ints checks s <= 2, within ``_CHAIN_WORK``.
    """
    size = union.bit_count()
    if len(live) < need or size < need:
        return False
    if need < 3:
        return True
    if long:
        return _grant(_chain(live, union, need, deadline), _CHAIN_WORK)
    zeros = [union & ~f for c, _, _, f in live if size - c >= need - 2]
    budget = _CHAIN_WORK
    for z in zeros:
        if z.bit_count() >= need - 1:
            budget -= len(zeros)
            if budget < 0 or time.monotonic() > deadline:
                return True
            # z meets itself in |z| >= need - 2 columns, so a second link is
            # a second hit.
            if sum((z & w).bit_count() >= need - 2 for w in zeros) > 1:
                return True
    return False


def _chain(
    live: list[tuple[int, int, int, int]], union: int, need: int, deadline: float
) -> Generator[bool | None, int, bool]:
    """The primed ``_chain_walk`` for chains of a = min(``_LONG_CHAIN``,
    need) rows of ``live`` (as ``_may_extend`` reads it) at ``need``.  Its
    links are the zero sets in U of the rows with |U| - c >= need - a,
    packed from the fresh masks: inside U a row's zero set is U & ~fresh,
    of size |U| - c, because mask & U == fresh.  It applies none of
    ``_may_extend``'s guards: that check applies them before its own walk,
    and the root node before the root walk, which every later node then
    repeats for its own need."""
    a = min(_LONG_CHAIN, need)
    size = union.bit_count()
    words = _packed([f for c, _, _, f in live if size - c >= need - a] + [union],
                    union.bit_length())
    walk = _chain_walk(words[-1] & ~words[:-1], need, a, deadline)
    next(walk)
    return walk


def _grant(walk: Generator[bool | None, int, bool], work: int) -> bool:
    """Send ``work`` units to the primed ``_chain_walk`` ``walk``: False only
    when the walk ends with a proof that no chain exists, True ("may
    extend") while it is paused for more work and once it has ended without
    a proof.  A walk that has ended answers True to any later grant, its
    ``StopIteration`` carrying None; so a caller must not grant a walk again
    after it answered False."""
    try:
        return walk.send(work)
    except StopIteration as done:
        return done.value is not False


def _chain_walk(
    zeros: np.ndarray,
    need: int,
    a: int,
    deadline: float,
) -> Generator[bool | None, int, bool]:
    """True when some a distinct rows z_1..z_a of ``zeros``, zero sets
    packed as ``_packed`` packs them, have |z_1 & ... & z_s| >= need - s for
    every s <= a; a walk paused whenever its work runs out.

    A greedy dive first: from the largest zero set, take at each step the
    link meeting the running intersection in the most columns; reaching a
    links answers True.  Then a walk over sets of links: level 1 holds the
    links with |z| >= need - 1, and level s + 1 the distinct sets S + {y},
    y not in S, whose intersection I_S & z_y keeps need - s - 1 columns.
    Whether a set continues a chain depends only on its intersection, so
    each level is built once, as sorted member rows with their
    intersections, and deduplicated; an empty level answers False, and at
    level a - 1 any passing pair answers True.  A level is walked in blocks
    of sets whose overlaps with every link fill ``_CHAIN_BLOCK`` words; the
    passing (set, link) pairs are deduplicated after the last block, and
    before it whenever more are held than are already distinct, so no array
    grows with the work granted past the next level, which is charged in
    full.

    Prime it with ``next`` and send it units of work.  The dive costs a x
    links x words, each level frontier x links x words plus the member
    indices it sorts.  Where the work spent would pass the work granted, the
    walk yields True ("may extend") and waits, holding its state, for the
    next grant; so the walk fed grants w1..wk stops exactly where one grant
    of w1 + ... + wk would.  Its return value is the answer.  Past
    ``deadline``, read once per block, or past ``_CHAIN_SETS`` sets in a
    level, it returns True.
    """
    work = yield None
    k, words = zeros.shape
    if k < a:
        return False
    if a <= 0:
        return True
    work -= a * k * words
    while work < 0:
        work += yield True
    counts = sizes = np.bitwise_count(zeros).sum(axis=1, dtype=np.int64)
    inter = ~np.zeros(words, np.uint64)
    used = np.zeros(k, bool)
    for s in range(1, a + 1):
        y = counts.argmax()
        if counts[y] < need - s:
            break
        if s == a:
            return True
        used[y] = True
        inter = inter & zeros[y]
        counts = np.bitwise_count(inter & zeros).sum(axis=1, dtype=np.int64)
        counts[used] = -1
    members = np.flatnonzero(sizes >= need - 1)[:, None]
    inter = zeros[members[:, 0]]
    step = max(1, _CHAIN_BLOCK // (k * words))
    for s in range(1, a):
        f = len(members)
        if not f:
            return False
        work -= f * k * words
        while work < 0:
            work += yield True
        # The next level's (set, link) pairs as parts (rows, ys), the first
        # of them deduplicated each time the others hold more pairs than it
        # and than a block has sets.
        parts, held, distinct = [], 0, 0
        for b in range(0, f, step):
            if time.monotonic() > deadline:
                return True
            counts = np.bitwise_count(inter[b:b + step, None, :] & zeros)
            counts = counts.sum(axis=2, dtype=np.int64) if words > 1 else counts[:, :, 0]
            passing = counts >= need - s - 1
            passing[np.arange(len(passing))[:, None], members[b:b + step]] = False
            if s == a - 1:
                if passing.any():
                    return True
                continue
            rows, ys = np.nonzero(passing)
            work -= len(rows) * (s + 1)
            while work < 0:
                work += yield True
            parts.append((rows + b, ys))
            held += len(rows)
            if b + step >= f or held - distinct > max(distinct, step):
                rows, ys = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
                grown = np.sort(np.concatenate([members[rows], ys[:, None]], axis=1), axis=1)
                first = _first_of_each(grown, k)
                grown, parts = grown[first], [(rows[first], ys[first])]
                held = distinct = len(first)
                # The next level costs its size x links x words: past
                # ``_CHAIN_SETS`` sets answer now, and past the work left
                # wait for more.
                if distinct > _CHAIN_SETS:
                    return True
                while distinct * k * words > work:
                    work += yield True
        if s == a - 1:
            return False
        members, inter = grown, inter[parts[0][0]] & zeros[parts[0][1]]
    return len(members) > 0


def _first_of_each(rows: np.ndarray, k: int) -> np.ndarray:
    """Index of the first of each distinct row of ``rows``, entries in [0, k):
    one int64 key per row in base k, its prefix replaced by its rank among
    the prefixes whenever the next digit would overflow it."""
    key, span = np.zeros(len(rows), np.int64), 1
    for digit in rows.T:
        if span * k > 2**62:
            key, span = np.unique(key, return_inverse=True)[1], len(rows)
        key, span = key * k + digit, span * k
    return np.unique(key, return_index=True)[1]


def _beam(
    rows: list[tuple[int, int, int, int]],
    n: int,
    width: int,
    deadline: float,
    floor: int = 0,
) -> tuple[int, list[tuple[int, int]]]:
    """Beam search over triangular row sequences of the search's (c, index,
    mask, fresh) row records on n columns, of which it reads index and mask:
    returns (depth, sequence of (index, lowest fresh column) pairs), the
    forward sequence ``_certificate_from_sequence`` replays.

    Level d + 1 keeps the ``width`` distinct unions B | r with the fewest
    columns, over the unions B of level d and the rows r with a column
    outside B.  A child with c columns extends to at most d + 1 + n - c
    rows, as in the search's own prune, so the children that cannot pass
    ``floor`` rows are dropped, and a beam that cannot beat that incumbent
    stops early.  The rows are packed once as ``_packed`` packs them, any
    number of words each; a level's children are ranked by one stable sort
    of their column counts.  The deadline is read once per level; on a stop
    the deepest sequence held is returned.
    """
    packed = _packed([mask for _, _, mask, _ in rows], n)
    k, words = packed.shape
    absent = n + 1  # the size of a child that does not exist
    dtype = np.min_scalar_type(absent)
    union = np.dtype((np.void, 8 * words))  # one sortable key per union
    level, sizes = np.zeros((1, words), np.uint64), np.zeros((1, 1), dtype)
    steps = []  # the (parents, rows) of each level's unions
    while time.monotonic() <= deadline:
        fresh = np.bitwise_count(packed & ~level[:, None, :]).sum(axis=2, dtype=dtype)
        counts = sizes + fresh
        counts[fresh == 0] = absent
        live = np.count_nonzero(counts <= min(n, n + len(steps) - floor))
        if not live:
            break
        # Ties go to the later parent, then to the later row: parents are
        # ranked by size, so of two children of one size this prefers the
        # one that adds fewer columns.
        order = counts.size - 1 - counts[::-1, ::-1].argsort(axis=None, kind="stable")[:live]
        # The first ``width`` distinct unions in that order, sought in a
        # prefix that doubles until it holds them.
        span = 4 * width
        while True:
            parents, picked = np.divmod(order[:span], k)
            grown = level[parents] | packed[picked]
            keys = grown[:, 0] if words == 1 else grown.view(union)[:, 0]
            first = np.sort(np.unique(keys, return_index=True)[1])[:width]
            if len(first) == width or span >= live:
                break
            span *= 2
        level, sizes = grown[first], counts.ravel()[order[first]][:, None]
        steps.append((parents[first].tolist(), picked[first].tolist()))
    # Backtrack from the first union of the deepest level, then replay the
    # rows forward for their lowest fresh columns.
    i, chosen = 0, []
    for parents, picked in reversed(steps):
        chosen.append(picked[i])
        i = parents[i]
    seq, blocked = [], 0
    for r in reversed(chosen):
        _, idx, mask, _ = rows[r]
        fresh = mask & ~blocked
        seq.append((idx, (fresh & -fresh).bit_length() - 1))
        blocked |= mask
    return len(seq), seq


def _urm_search(
    masks: list[int],
    n: int,
    incumbent: int,
    node_budget: int,
    time_budget: float | None,
    row_vals: list[int] | None = None,
    col_vals: list[int] | None = None,
    flip: Callable[[int], int] | None = None,
) -> tuple[int, list[tuple[int, int]] | None, bool]:
    """Core search.  Returns (best, improving sequence or None, completed).

    Depth-first over an explicit stack, so a deep sequence cannot hit the
    interpreter's recursion limit; the deadline, +inf without a
    ``time_budget``, is read at every node and inside ``_may_extend``, the
    root walk and the beam.

    Most of a search proves an incumbent already found, so the search holds
    one ``_chain`` walk per incumbent, asking whether any ``best + 1``
    rows form a triangular sequence.  Each time the search has gone
    ``_ROOT_AFTER``, twice that, four times that, ... nodes since the
    incumbent last rose, it grants that walk ``rate`` units per stalled node
    and distinct row through ``_grant``: a walk that ran out of work resumes
    where it paused, so no grant redoes the work of the ones before it.
    "No" completes the search; a rise of the incumbent drops the walk, and
    the next stall point starts one for the new need.
    The first stall point past ``_BEAM_AFTER`` nodes whose walk answers
    "may extend" is followed by one ``_beam`` of ``_BEAM_WIDTH`` unions per
    level, floored at the incumbent: a primal heuristic that often reaches
    the optimum the depth-first order finds late.  Its sequence becomes the
    incumbent when it is longer, and the stall count restarts.
    The beam reads the search's deadline once per level, and is skipped when
    value bitmasks are given.  ``rate`` is ``_ROOT_WORK`` until the beam has
    run and ``_ROOT_WORK_AFTER_BEAM`` from then on: the walk that proves the
    beam's incumbent gets work at about the search's own rate per node,
    while a search that runs no beam keeps the lower rate throughout.  On
    the DRGP-64 pool (seeds 0-31) this ends the searches in 9,919 nodes, not
    21,862.  The schedule, the grants and the beam's trigger read node
    counts only, so the nodes a search spends stay deterministic.

    A row is one record (c, index, mask, fresh) throughout: the pass that
    drops duplicate rows builds the root's, (|mask|, index, mask, mask),
    which are the root's candidates and the rows of the root walk and of the
    beam.  A node makes one pass over its candidate records, building each
    live row's fresh columns, their count c and the union U of them, which
    is all the ``_may_extend`` prune reads: at shallow nodes of a large
    search, the same ``_chain`` walk the root holds, granted once;
    elsewhere, pairs tested on the masks themselves.  A node the prune keeps picks a forced
    move in its own candidate order, and passes that order on; otherwise one
    sort by (c, index) orders its children; either way its live records, in
    that order, are its children's candidates.

    The memo keeps, per state, the greatest depth at which the search
    entered it, and a node entered no deeper than that is not expanded
    again.  A state is B alone: the node's candidates are every distinct row
    live at B, and B grows strictly along a path.  ``flip`` applies to a
    column mask an involution s of the columns that maps the distinct
    nonzero rows onto themselves (see ``_flip``).  Such an automorphism maps
    the subtree at B onto the one at s(B), at equal depths, and {B, s(B)} is
    the whole orbit of B, so the memo keys each state by min(B, s(B)).  A
    value search, whose key holds more than B, raises ``StencilError`` when
    given one.

    The value bitmasks ``row_vals`` and ``col_vals``, given together or not
    at all, keep the rows, and the pivot columns, pairwise disjoint in
    value, as distinct rank asks: a pivot adds the columns sharing its
    values to B, a row drops the rows sharing its values from the candidates
    below it and adds them, shifted past the n columns, to UR, and the memo
    key is B | UR.  Giving them is the one switch of such a value search,
    which runs no beam and makes no forced moves: a move is forced only for
    a row and a pivot column without values, and every label of a tensor
    power has one."""
    deadline = time.monotonic() + (math.inf if time_budget is None else time_budget)
    values = row_vals is not None
    beam_due = not values
    row_vals = [v << n for v in row_vals] if values else [0] * len(masks)
    if values:
        # The columns each pivot column blocks: those sharing one of its values.
        conflict = [sum(1 << d for d, w in enumerate(col_vals) if v & w) for v in col_vals]
    # The root's records and union: distinct (support, values) only, since a
    # row duplicating another's can never join the same triangular sequence.
    seen_rows: set[int] = set()
    root: list[tuple[int, int, int, int]] = []
    root_union = 0
    for idx, mask in enumerate(masks):
        key = mask | row_vals[idx]
        if mask and key not in seen_rows:
            seen_rows.add(key)
            root.append((mask.bit_count(), idx, mask, mask))
            root_union |= mask
    if flip is not None and values:
        raise StencilError("a value search takes no column symmetry")

    best = incumbent
    best_seq: list[tuple[int, int]] | None = None
    visited: dict[int, int] = {}
    nodes = 0
    # For the root's prune while the incumbent stalls: ``risen`` is the node
    # at which it last rose, ``walk`` the root walk for best + 1 (None until
    # the first stall point after the rise), the walk's next grant comes
    # when the stall reaches ``stall``, and ``rate`` is its work per stalled
    # node and distinct row.
    risen, stall, walk, rate = 0, _ROOT_AFTER, None, _ROOT_WORK
    seq: list[tuple[int, int]] = []  # (row, pivot column) pairs leading to the node
    # Frames of the nodes being expanded: (B, UR, depth, the node's ordered
    # live records as its children's candidates, iterator over the children
    # not yet tried).  A child is (c, row, columns it blocks, columns whose
    # lowest is its pivot).
    stack: list[
        tuple[int, int, int, list[tuple[int, int, int, int]], Iterator[tuple[int, int, int, int]]]
    ] = []
    B, UR, depth, cands = 0, 0, 0, root
    while True:
        nodes += 1
        if nodes > node_budget or time.monotonic() > deadline:
            return best, best_seq, False
        if depth > best:
            best = depth
            best_seq = seq.copy()
            risen, stall, walk = nodes, _ROOT_AFTER, None
        elif nodes - risen == stall:
            if walk is None:
                walk = _chain(root, root_union, best + 1, deadline)
            if not _grant(walk, rate * stall * len(root)):
                return best, best_seq, True
            stall *= 2
            if beam_due and nodes >= _BEAM_AFTER:
                beam_due, rate = False, _ROOT_WORK_AFTER_BEAM
                value, beam_seq = _beam(root, n, _BEAM_WIDTH, deadline, best)
                if value > best:
                    best, best_seq = value, beam_seq
                    risen, stall, walk = nodes, _ROOT_AFTER, None
        key = B | UR if flip is None else min(B, flip(B))
        prev = visited.get(key)
        if prev is None or prev < depth:
            visited[key] = depth
            live = []
            union = 0
            free = ~B
            for _, idx, mask, _ in cands:
                fresh = mask & free
                if fresh:
                    live.append((fresh.bit_count(), idx, mask, fresh))
                    union |= fresh
            long = depth <= _LONG_CHAIN_DEPTH and nodes > _LONG_CHAIN_AFTER
            if live and _may_extend(live, union, best - depth + 1, long, deadline):
                # Forced move: a row adding one fresh column can be taken
                # first without loss when no row or column has values.
                forced = None if values else next((t for t in live if t[0] == 1), None)
                if forced is None:
                    order = sorted(live)
                    kids = _pivot_classes(order, conflict) if values else order
                else:
                    kids, order = [forced], live
                stack.append((B, UR, depth, order, iter(kids)))
        # Move to the next child of the deepest frame that has one left.
        while stack:
            pB, pUR, pdepth, pcands, kids = stack[-1]
            for _, idx, block, fresh in kids:
                nb = pB | block
                if pdepth + 1 + (n - nb.bit_count()) > best:
                    break
            else:
                stack.pop()
                continue
            del seq[pdepth:]
            seq.append((idx, (fresh & -fresh).bit_length() - 1))
            B, UR, depth, cands = nb, pUR | row_vals[idx], pdepth + 1, pcands
            if row_vals[idx]:
                cands = [t for t in pcands if not row_vals[t[1]] & row_vals[idx]]
            break
        else:
            return best, best_seq, True


def _label_flip(H: Stencil) -> Callable[[int], int] | None:
    """The column-mask map of the first label reversal of H that is an
    automorphism, or None.  For each b < a that divides H's column-label
    arity a, smallest first, s_b cuts every column label into blocks of
    length b and reverses their order; labels are distinct, so s_b is an
    involution when it maps them onto themselves.  ``tensor_product``
    concatenates labels, so s_1 is the factor reversal of every power of a
    stencil with 1-tuple labels, and s_(a/k) that of H^(xk) for any labels."""
    a = H.col_arity
    if a < 2:
        return None
    index = {lab: c for c, lab in enumerate(H.col_labels)}
    rows = set(H.rows) - {0}
    for b in (b for b in range(1, a) if a % b == 0):
        rev = [index.get(sum((lab[i : i + b] for i in range(a - b, -1, -b)), ()))
               for lab in H.col_labels]
        flip = None if None in rev else _flip(rev, rows)
        if flip is not None:
            return flip
    return None


def _flip(sym: list[int], rows: set[int]) -> Callable[[int], int] | None:
    """The map of column masks that moves column c to ``sym[c]``, by one
    256-entry table per byte of the mask, or None unless it maps the masks
    ``rows`` onto themselves.  ``sym`` is an involution of the columns,
    given as 0-based images."""
    n = len(sym)
    size = -(-n // 8)
    tables = []
    for base in range(0, 8 * size, 8):
        table = [0]  # entry b: the image of the columns of the bits of b
        for c in range(base, base + 8):
            image = 1 << (sym[c] if c < n else c)
            table += [t | image for t in table]
        tables.append(table)

    def flip(mask: int) -> int:
        # The bytes' images are disjoint, so their sum is their union.
        return sum(map(list.__getitem__, tables, mask.to_bytes(size, "little")))

    return flip if {flip(mask) for mask in rows} == rows else None


def _pivot_classes(live, conflict: list[int]) -> list[tuple[int, int, int, int]]:
    """One child per live row and set of columns that a pivot among its fresh
    columns blocks (see ``_urm_search``), pivoting on the lowest of them."""
    kids: dict[tuple[int, int], int] = {}
    for _, idx, mask, fresh in live:
        while fresh:
            bit = fresh & -fresh
            fresh ^= bit
            kids.setdefault((mask | conflict[bit.bit_length() - 1], idx), bit)
    return [(1, idx, block, bit) for (block, idx), bit in kids.items()]


def visibly_independent(
    H: Stencil,
    cols,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> bool:
    """True iff the given 1-based columns contain a visibly full rank square
    sub-stencil of matching size (``substencil`` rejects a repeated or
    out-of-range column)."""
    sub = substencil(H, range(1, H.m + 1), cols)
    res = visible_rank_exact(sub, node_budget=node_budget)
    if res.lower_bound == sub.n:
        return True
    if res.exact or res.upper_bound < sub.n:
        return False
    raise StencilError("budget exhausted before visible independence was decided")
