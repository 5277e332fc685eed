"""Seeded generators and validators for the locality stencil families.

All randomness flows through numpy substreams keyed by
``[seed, family_tag, coordinates...]``: one stream per row for LRC, per
(column, group) for LCC, and per row group for DRGP and tensor-gap (with
vectorized within-group draws).  Each stream is exactly
``np.random.default_rng([seed, family_tag, *cell])``; ``_streams`` builds a
generator's streams in one batch by running numpy's ``SeedSequence`` hash
on all cells at once.  Generation is deterministic, platform-independent,
and safe to parallelize across substreams.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .stencil import Stencil, StencilError


class Family(str, enum.Enum):
    LRC = "lrc"
    LCC = "lcc"
    DRGP = "drgp"
    TENSOR_GAP = "tensor-gap"


_TAG = {Family.LRC: 1, Family.LCC: 2, Family.DRGP: 3, Family.TENSOR_GAP: 4}

DEFAULT_DELTA = 0.05


class FamilyParamError(StencilError):
    pass


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of one family instance; ``param`` is ell, q, or t.  An LCC
    without ``delta`` gets ``DEFAULT_DELTA``."""

    family: Family
    n: int
    param: int
    delta: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise FamilyParamError(f"seed must be >= 0, got {self.seed}")
        if self.n < 1:
            raise FamilyParamError("n must be positive")
        if self.family is Family.LRC:
            if not 1 <= self.param <= self.n - 1:
                raise FamilyParamError(f"ell={self.param} out of range for n={self.n}")
        elif self.family is Family.LCC:
            q = self.param
            if self.delta is None:
                object.__setattr__(self, "delta", DEFAULT_DELTA)
            if q < 3:
                raise FamilyParamError("LCC requires q >= 3")
            if not 0 < self.delta < 1:
                raise FamilyParamError("delta must lie in (0, 1)")
            t = self.groups_per_column
            if t < 1:
                raise FamilyParamError(f"floor(delta*n) = {t} < 1")
            if q * t > self.n - 1:
                raise FamilyParamError(
                    f"disjoint groups do not fit: q*floor(delta*n) = {q * t} > n-1 = {self.n - 1}"
                )
        else:
            if self.param < 2:
                raise FamilyParamError(f"{self.family.value} requires t >= 2")
            if self.n < 2:
                raise FamilyParamError("n must be at least 2")

    @property
    def groups_per_column(self) -> int:
        if self.family is Family.LCC:
            return math.floor(self.delta * self.n)
        if self.family in (Family.DRGP, Family.TENSOR_GAP):
            return self.param
        return 1


# Constants of numpy's ``SeedSequence`` hash (pool of four 32-bit words).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The running multiplier of ``calls`` successive hashmix calls, as a
    uint32 column: call k xors with entry k and multiplies by entry k + 1."""
    out = [init]
    for _ in range(calls):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """``len(consts) - 1`` successive hashmix calls, one per row of
    ``values``, or all on ``values`` when it is one row; uint32 array
    products wrap modulo 2^32 as the C code's do."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ values >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * _MIX_L - y * _MIX_R
    return value ^ value >> 16


class _State(ISeedSequence):
    """Hands ``PCG64`` a seed state computed ahead of time."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.state


def _streams(
    seed: int, family: Family, cells: Sequence[tuple[int, ...]]
) -> list[np.random.Generator]:
    """``np.random.default_rng([seed, tag, *cell])`` for every cell, with the
    ``SeedSequence`` hash of all cells run at once on uint32 columns.  The
    entropy is seed and tag, each split into 32-bit words least significant
    first as numpy splits an int, then the cell's coordinates."""
    seed = operator.index(seed)
    width = 4 * max(1, (seed.bit_length() + 31) // 32)
    shared = np.frombuffer(seed.to_bytes(width, "little"), "<u4").tolist() + [_TAG[family]]
    coords = np.array(cells, dtype=np.uint32).T
    # One row per entropy word, one column per cell; zero rows pad the
    # entropy to the pool size, as numpy hashes zeros for missing words.
    entropy = np.zeros((max(_POOL, len(shared) + len(coords)), len(cells)), np.uint32)
    entropy[: len(shared)] = np.array(shared, np.uint32)[:, None]
    entropy[len(shared) : len(shared) + len(coords)] = coords

    # mix_entropy: each hashmix of one step below takes the next multipliers.
    extra = entropy[_POOL:]
    consts = _consts(_INIT_A, _MULT_A, _POOL * (_POOL + len(extra)))
    pool = _hashmix(entropy[:_POOL], consts[: _POOL + 1])
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k : k + _POOL]))
        k += _POOL - 1
    for word in extra:
        pool = _mix(pool, _hashmix(word, consts[k : k + _POOL + 1]))
        k += _POOL

    # generate_state(4, np.uint64): eight words cycling over the pool, read
    # as little-endian pairs.
    words = _hashmix(np.tile(pool, (2, 1)), _consts(_INIT_B, _MULT_B, 2 * _POOL))
    states = words.T.astype("<u4", order="C").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_State(state))) for state in states]


def gen_lrc(n: int, ell: int, seed: int) -> Stencil:
    """n x n stencil: stars on the diagonal plus ell uniformly sampled other
    stars in each row."""
    FamilyParams(Family.LRC, n, ell, seed=seed)
    cells = [(i + 1,) for i in range(n)]
    masks = []
    for i, rng in enumerate(_streams(seed, Family.LRC, cells)):
        picks = rng.choice(n - 1, size=ell, replace=False)
        mask = 1 << i
        # Pick p of the n - 1 columns other than i is column p + (p >= i).
        for p in picks.tolist():
            mask |= 1 << (p + (p >= i))
        masks.append(mask)
    return Stencil.from_rows(masks, n)


def _group_labels(n: int, t: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, s) for i in range(1, n + 1) for s in range(1, t + 1))


def gen_lcc(n: int, q: int, delta: float, seed: int) -> Stencil:
    """q-LCC stencil with t = floor(delta*n) disjoint q-groups per column.

    Groups are drawn sequentially and uniformly from the shrinking pool of
    columns not yet used by earlier groups of the same column, matching the
    conditional law of uniform disjoint group sampling.
    """
    params = FamilyParams(Family.LCC, n, q, delta=delta, seed=seed)
    t = params.groups_per_column
    streams = _streams(seed, Family.LCC, _group_labels(n, t))
    masks = []
    for i in range(n):
        pool = [j for j in range(n) if j != i]
        for rng in streams[i * t : (i + 1) * t]:
            picks = sorted(rng.choice(len(pool), size=q, replace=False).tolist(), reverse=True)
            mask = 1 << i
            for p in picks:
                mask |= 1 << pool.pop(int(p))
            masks.append(mask)
    return Stencil.from_rows(masks, n, row_labels=_group_labels(n, t))


def _gen_grouped(family: Family, n: int, t: int, seed: int) -> Stencil:
    """Rows (i, s) over [n] x [t]; every row of group i stars column i, and
    each other column j draws one uniform slot s_j of the group: DRGP stars
    ((i, s_j), j) only, tensor-gap zeros it and stars the other rows.

    One substream per row group i; within it, the slots for columns 1..n are
    a single vectorized draw (the slot at j = i is discarded).
    """
    FamilyParams(family, n, t, seed=seed)
    cells = [(i + 1,) for i in range(n)]
    slots = np.array([rng.integers(t, size=n) for rng in _streams(seed, family, cells)])
    diag = np.eye(n, dtype=bool)
    masks = [0] * (n * t)
    for s in range(t):
        stars = (slots == s) if family is Family.DRGP else (slots != s)
        packed = np.packbits(stars | diag, axis=1, bitorder="little")
        for i, row in enumerate(packed):
            masks[i * t + s] = int.from_bytes(row.tobytes(), "little")
    return Stencil.from_rows(masks, n, row_labels=_group_labels(n, t))


def gen_drgp(n: int, t: int, seed: int) -> Stencil:
    """t-DRGP stencil: rows (i, s), stars at (i,s),i; for each i != j exactly
    one uniformly chosen row of group i carries a star in column j."""
    return _gen_grouped(Family.DRGP, n, t, seed)


def gen_tensor_gap(n: int, t: int, seed: int) -> Stencil:
    """Tensor-gap family: rows (i, s); group diagonal all stars; for i != i'
    exactly one uniformly chosen entry of the group column is zero.

    At t = 2 one-zero-of-two coincides with one-star-of-two, so this delegates
    to the DRGP sampler and the two families are pointwise identical.
    """
    if t == 2:
        return gen_drgp(n, 2, seed)
    return _gen_grouped(Family.TENSOR_GAP, n, t, seed)


def generate(params: FamilyParams) -> Stencil:
    if params.family is Family.LRC:
        return gen_lrc(params.n, params.param, params.seed)
    if params.family is Family.LCC:
        return gen_lcc(params.n, params.param, params.delta, params.seed)
    if params.family is Family.DRGP:
        return gen_drgp(params.n, params.param, params.seed)
    return gen_tensor_gap(params.n, params.param, params.seed)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    clause: str | None = None
    where: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return f"violated clause {self.clause!r} at {self.where}"


def row_groups(H: Stencil) -> list[list[int]] | None:
    """Row masks of H in the (i, s) layout of the row-grouped families:
    ``groups[i-1][s-1]`` is the row labeled (i, s).  None unless the row
    labels are exactly [n] x [t] for some t >= 1, with n, m > 0."""
    n = H.n
    if n == 0 or H.m == 0 or H.m % n or H.row_arity != 2:
        return None
    t = H.m // n
    groups = [[0] * t for _ in range(n)]
    # Labels are distinct, so n * t labels inside [n] x [t] cover it.
    for (i, s), mask in zip(H.row_labels, H.rows):
        if not (1 <= i <= n and 1 <= s <= t):
            return None
        groups[i - 1][s - 1] = mask
    return groups


def validate_family(H: Stencil, params: FamilyParams) -> ValidationReport:
    """Check every clause of the family definition; report the first violated
    clause with its indices (1-based)."""
    fam, n = params.family, params.n

    if fam is Family.LRC:
        ell = params.param
        if H.m != n or H.n != n:
            return ValidationReport(False, "square n x n", (H.m, H.n))
        for i in range(n):
            if not H.rows[i] >> i & 1:
                return ValidationReport(False, "star on the diagonal", (i + 1, i + 1))
            if H.rows[i].bit_count() > ell + 1:
                return ValidationReport(False, "at most ell other stars per row", (i + 1,))
        return ValidationReport(True)

    t = params.groups_per_column
    if H.n != n:
        return ValidationReport(False, "column count", (H.n,))
    groups = row_groups(H)
    if groups is None or len(groups[0]) != t:
        return ValidationReport(False, "rows labeled by [n] x [t]", (H.m,))

    for i, group in enumerate(groups, start=1):
        for s, row in enumerate(group, start=1):
            if not row >> (i - 1) & 1:
                return ValidationReport(False, "star at ((i,s), i)", ((i, s), i))

    # A column j != i of group i is bad when two of its sets hold it (stars
    # for DRGP and LCC, zeros for tensor-gap) or, for tensor-gap, none does.
    tensor_gap = fam is Family.TENSOR_GAP
    full = (1 << n) - 1
    for i, group in enumerate(groups, start=1):
        seen = twice = 0
        for cols in ([full & ~row for row in group] if tensor_gap else group):
            twice |= seen & cols
            seen |= cols
        bad = (twice | full & ~seen if tensor_gap else twice) & ~(1 << (i - 1))
        if bad:
            clause = "exactly one zero in S_{i,j}" if tensor_gap else "at most one star in S_{i,j}"
            return ValidationReport(False, clause, (i, (bad & -bad).bit_length()))

    if fam is Family.LCC:
        q = params.param
        for idx, mask in enumerate(H.rows):
            if mask.bit_count() > q + 1:
                return ValidationReport(
                    False, "at most q+1 stars per row", (H.row_labels[idx],)
                )
    return ValidationReport(True)
