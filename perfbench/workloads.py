"""Instance pools, operations and answer checks of the vrank benchmark.

One *op* carries one instance from generation to a checked answer.  Every
kind of op draws its instances from a fixed pool: pool index ``i`` is the
generator seed (``gen_drgp(64, 2, i)``) or, for the benchmark-drawn stencils
and spanoids, the key of their numpy substream.  Each op returns an *answer*
dict that ``pins.json`` records for every pool instance; internal checks
(certificate replay, budget flags, ``vrk <= minrank``) raise ``OpFailure``.

The library is called through module attributes (``engine.visible_rank_exact``)
so that the traced run sees the wrappers patched onto those modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from vrank import engine, families, gf, spanoid, stencil, tensor
from vrank.families import Family, FamilyParams

#: Node budget of every exact search; no time budget, so the work an op does
#: does not depend on machine load.
NODE_BUDGET = engine.DEFAULT_NODE_BUDGET
MINRANK_FIELD = 3
#: Key of the benchmark's own numpy substreams (random stencils and spanoids).
STREAM_TAG = 0x76726B


class OpFailure(Exception):
    """An op ended on a budget, failed a certificate replay or an invariant."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise OpFailure(what)


def _replay(H, res) -> None:
    cert = res.certificate
    _require(cert.size == res.lower_bound, "certificate size differs from the lower bound")
    _require(cert.verify(H), "certificate replay failed")


def _tensor_identity(H, params: FamilyParams) -> bool | None:
    if params.family is Family.LRC:
        return None
    _, identity = tensor.diagonal_tensor_certificate(H, params.groups_per_column)
    return identity


def exact_op(family: Family, n: int, param: int, delta: float | None = None):
    """generate -> visible_rank_exact -> certificate replay -> diagonal tensor
    certificate (row-grouped families)."""

    def op(i: int) -> dict:
        params = FamilyParams(family, n, param, delta=delta, seed=i)
        H = families.generate(params)
        res = engine.visible_rank_exact(H, node_budget=NODE_BUDGET)
        _require(res.exact, "search ended on its node budget")
        _replay(H, res)
        return {"vrk": res.lower_bound, "exact": res.exact,
                "tensor_identity": _tensor_identity(H, params)}

    return op


def bounds_op(family: Family, n: int, param: int, delta: float | None = None):
    """generate -> validate_family -> visible_rank_bounds -> greedy certificate
    replay -> diagonal tensor certificate (row-grouped families)."""

    def op(i: int) -> dict:
        params = FamilyParams(family, n, param, delta=delta, seed=i)
        H = families.generate(params)
        report = families.validate_family(H, params)
        _require(report.ok, f"generator output fails validation: {report}")
        res = engine.visible_rank_bounds(H)
        _replay(H, res)
        return {"lower": res.lower_bound, "upper": res.upper_bound,
                "tensor_identity": _tensor_identity(H, params)}

    return op


#: Star counts of the min-rank stencils, drawn uniformly from this tuple.
#: Every extra star doubles an op's time, so op times fall into one cluster
#: per star count; 13 stars weighs four times as much as the others so that
#: the median op of ``oracles`` falls inside that cluster, not in a gap
#: between two clusters, where it would jump from run to run.
MINRANK_STARS = (10, 11, 12, 13, 13, 13, 13, 14, 15, 16)


def minrank_stencil(i: int) -> stencil.Stencil:
    """Random 4x4 or 5x5 stencil with 10..16 stars (16 only on 5x5) that no
    rank-1 matrix fits (its nonzero rows do not all share one support), so
    min-rank is at least 2 and the brute force enumerates all 2^stars
    witnesses over GF(3)."""
    rng = np.random.default_rng([STREAM_TAG, 1, i])
    stars = int(rng.choice(MINRANK_STARS))
    side = 5 if stars == 16 else int(rng.integers(4, 6))
    while True:
        masks = [0] * side
        for cell in rng.choice(side * side, size=stars, replace=False):
            masks[cell // side] |= 1 << int(cell % side)
        if len({m for m in masks if m}) > 1:
            return stencil.Stencil.from_rows(masks, side)


def minrank_op(i: int) -> dict:
    """minrank_bruteforce over GF(3), witness replay, and vrk <= minrank."""
    H = minrank_stencil(i)
    res = gf.minrank_bruteforce(H, MINRANK_FIELD)
    _require(res.exhaustive, "min-rank enumeration ended on its budget")
    ok, _ = gf.validate_witness(res.witness)
    _require(ok, "min-rank witness does not fit the stencil")
    _require(gf.gf_rank(res.witness) == res.value, "min-rank witness has another rank")
    vres = engine.visible_rank_exact(H, node_budget=NODE_BUDGET)
    _require(vres.exact, "search ended on its node budget")
    _replay(H, vres)
    _require(vres.lower_bound <= res.value, "vrk exceeds min-rank")
    return {"minrank": res.value, "vrk": vres.lower_bound}


def random_spanoid(i: int) -> spanoid.SymmetricSpanoid:
    """Symmetric spanoid on n = 16..20 elements with n/2 sets of size 2-3."""
    rng = np.random.default_rng([STREAM_TAG, 2, i])
    n = 16 + i % 5
    sets = [rng.choice(n, size=int(rng.integers(2, 4)), replace=False) + 1
            for _ in range(n // 2)]
    return spanoid.SymmetricSpanoid.from_sets(n, [s.tolist() for s in sets])


def spanoid_op(i: int) -> dict:
    """rank_nullity_check: vrk(canonical stencil) + spanoid rank = n."""
    rep = spanoid.rank_nullity_check(random_spanoid(i), node_budget=NODE_BUDGET)
    _require(rep.vrank_exact, "search ended on its node budget")
    _require(rep.spanoid_exhaustive, "spanoid rank fell back to greedy")
    return {"vrank": rep.vrank, "rank": rep.spanoid_rank,
            "identity_holds": rep.identity_holds}


def capacity_op(i: int) -> dict:
    """capacity_lower_bound(gen_drgp(n, 2), 2) for n = 4, 5, 6."""
    H = families.gen_drgp(4 + i % 3, 2, i // 3)
    est = tensor.capacity_lower_bound(H, 2, node_budget=NODE_BUDGET)
    _require(all(exact for _, exact in est.per_level.values()),
             "a tensor level ended on its node budget")
    return {"per_level": {str(k): [v, e] for k, (v, e) in sorted(est.per_level.items())}}


@dataclass(frozen=True)
class Kind:
    name: str
    pool: int
    op: Callable[[int], dict]


KINDS = {k.name: k for k in [
    Kind("drgp64", 32, exact_op(Family.DRGP, 64, 2)),
    Kind("drgp32", 32, exact_op(Family.DRGP, 32, 2)),
    Kind("tgap32", 32, exact_op(Family.TENSOR_GAP, 32, 3)),
    Kind("lcc64", 32, exact_op(Family.LCC, 64, 3, 0.05)),
    Kind("lrc32", 32, exact_op(Family.LRC, 32, 2)),
    Kind("drgp512b", 32, bounds_op(Family.DRGP, 512, 2)),
    Kind("drgp256b", 32, bounds_op(Family.DRGP, 256, 2)),
    Kind("lcc128b", 32, bounds_op(Family.LCC, 128, 3, 0.05)),
    Kind("tgap128b", 32, bounds_op(Family.TENSOR_GAP, 128, 3)),
    Kind("lrc256b", 32, bounds_op(Family.LRC, 256, 2)),
    Kind("minrank", 64, minrank_op),
    Kind("spanoid", 40, spanoid_op),
    Kind("capacity", 30, capacity_op),
]}


@dataclass(frozen=True)
class Workload:
    """``cycle`` lists the kinds of one cycle of ops; a run executes whole
    cycles, so every kind keeps its share of the ops.

    The shares place the percentiles inside one kind's latencies, not in a
    gap between kinds, where a percentile would jump from run to run: in
    exact_sweep the four LRC-32, eight DRGP-32, two tensor-gap-32 and two
    large ops per cycle put the median in the middle of the DRGP-32 ops and
    p93 in the middle of the DRGP-64 and LCC-64 ops.  In oracles the spanoid
    and capacity ops have heavy-tailed times (up to 2 s and 3.8 s), so a run
    draws as many of them as it can while the median stays among the
    13-star min-rank ops.  ``tail_pct`` is fixed so that runs and commits
    stay comparable; it is the highest percentile near which the latencies
    are dense and that has about ten samples beyond it in a 36 s run at the
    commit that defined it.
    """

    name: str
    cycle: tuple[str, ...]
    tail_pct: float


WORKLOADS = {w.name: w for w in [
    Workload("exact_sweep", ("drgp64", "lcc64") + ("tgap32",) * 2 + ("drgp32",) * 8
             + ("lrc32",) * 4, 93.0),
    Workload("bounds_sweep", ("drgp512b", "drgp256b", "lcc128b", "tgap128b", "lrc256b"), 95.0),
    Workload("oracles", ("minrank",) * 6 + ("spanoid",) * 2 + ("capacity",), 91.0),
]}

_GOLDEN = (math.sqrt(5) - 1) / 2


class Schedule:
    """The instances a run draws, derived from the seed alone.

    Each kind's pool is sorted by the op time recorded when it was pinned.
    The k-th draw of a kind takes the pool position ``frac(u + k * golden)``
    with a seed-drawn start ``u``: any run of consecutive draws covers easy
    and hard instances evenly, so seeds change which instances run but hardly
    how much work a run holds.
    """

    def __init__(self, workload: Workload, seed: int, order: dict[str, list[int]]):
        self.workload = workload
        self.order = order
        self.start = {name: float(np.random.default_rng([seed, j]).random())
                      for j, name in enumerate(sorted(set(workload.cycle)))}
        self.per_cycle = {name: workload.cycle.count(name) for name in self.start}

    def cycle(self, c: int) -> list[tuple[Kind, int]]:
        seen: dict[str, int] = {}
        ops = []
        for name in self.workload.cycle:
            k = c * self.per_cycle[name] + seen.get(name, 0)
            seen[name] = seen.get(name, 0) + 1
            order = self.order[name]
            pos = int(math.fmod(self.start[name] + k * _GOLDEN, 1.0) * len(order))
            ops.append((KINDS[name], order[pos]))
        return ops
