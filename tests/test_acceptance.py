"""Acceptance suite: certificate- and oracle-based checks at desk scale.

Each test prints one summary line and enforces its wall-clock limit.  The
thresholds in criterion 7 were pinned by scripts/calibrate_drgp.py (50 seeds
per size, threshold = observed max + 2); the acceptance run uses fresh seeds.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from tests.conftest import (
    brute_spanoid_rank,
    brute_vrank,
    count_star_diagonals,
    lcc_zero_rectangle_probe,
    random_stencil,
    rng_for,
)
from vrank.engine import (
    is_visibly_full_rank,
    visible_rank_exact,
    visibly_independent,
)
from vrank.families import (
    Family,
    FamilyParams,
    gen_drgp,
    gen_lcc,
    gen_tensor_gap,
    validate_family,
)
from vrank.gf import (
    gf_rank,
    gf_rank_rows,
    is_prime,
    low_rank_witness,
    minrank_bruteforce,
    validate_witness,
)
from vrank.spanoid import (
    SymmetricSpanoid,
    canonical_stencil,
    span_closure,
)
from vrank.stencil import Stencil
from vrank.tensor import (
    diagonal_tensor_certificate,
    distinct_rank_exact,
    tensor_power,
    tensor_power_vrank,
    tensor_product,
)

# Pinned by scripts/calibrate_drgp.py over seeds 0..49 (observed max + 2).
DRGP_THRESHOLD = {16: 13, 32: 16, 64: 19}
TENSOR_GAP_L1_THRESHOLD = 12

FRESH_SEED_BASE = 1000


def report(name: str, elapsed: float, limit: float, detail: str = "") -> None:
    print(f"{name}: PASS in {elapsed:.1f}s (limit {limit:.0f}s) {detail}")
    assert elapsed < limit


def random_spanoid(rng: np.random.Generator) -> SymmetricSpanoid:
    n = int(rng.integers(1, 9))
    m = int(rng.integers(0, 6))
    sets = []
    for _ in range(m):
        size = int(rng.integers(1, n + 1))
        sets.append([int(x) + 1 for x in rng.choice(n, size=size, replace=False)])
    return SymmetricSpanoid.from_sets(n, sets)


def test_01_peeling_oracle_equivalence():
    t0 = time.monotonic()
    checked = 0
    for bits in range(1 << 9):
        M = Stencil.from_rows([bits & 7, bits >> 3 & 7, bits >> 6 & 7], 3)
        ok, cert = is_visibly_full_rank(M)
        assert ok == (count_star_diagonals(M) == 1)
        if ok:
            assert cert.verify(M)
        checked += 1
    rng = rng_for([1, 0])
    for n in (4, 5):
        for _ in range(5000):
            M = random_stencil(rng, n, n, density=0.5)
            ok, _ = is_visibly_full_rank(M)
            assert ok == (count_star_diagonals(M) == 1)
            checked += 1
    report("criterion 1 (peeling oracle)", time.monotonic() - t0, 10,
           f"{checked} stencils, zero mismatches")


def test_02_exact_vrank_vs_exhaustion():
    t0 = time.monotonic()
    rng = rng_for([2, 0])
    for count, n in ((500, 5), (200, 6)):
        for _ in range(count):
            H = random_stencil(rng, n, n, density=0.5)
            res = visible_rank_exact(H)
            assert res.exact
            assert res.lower_bound == brute_vrank(H)
    report("criterion 2 (exact vs exhaustion)", time.monotonic() - t0, 60,
           "700 stencils, exact match")


def test_03_vrank_minrank_sandwich():
    t0 = time.monotonic()
    rng = rng_for([3, 0])
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        H = random_stencil(rng, m, n, density=0.5)
        vres = visible_rank_exact(H)
        mres = minrank_bruteforce(H, 2)
        assert vres.exact and mres.exhaustive
        assert vres.lower_bound <= mres.value
    done = 0
    while done < 200:
        H = random_stencil(rng, 4, 4, density=0.5)
        if H.star_count() > 10:
            continue
        vres = visible_rank_exact(H)
        mres = minrank_bruteforce(H, 3)
        assert vres.exact and mres.exhaustive
        assert vres.lower_bound <= mres.value
        done += 1
    report("criterion 3 (rank sandwich)", time.monotonic() - t0, 300,
           "1000 GF(2) + 200 GF(3), zero violations")


def test_04_rank_nullity():
    t0 = time.monotonic()
    rng = rng_for([4, 0])
    spanoids = [random_spanoid(rng) for _ in range(300)]
    for S in spanoids:
        vres = visible_rank_exact(canonical_stencil(S))
        assert vres.exact
        assert vres.lower_bound + brute_spanoid_rank(S) == S.n
    for S in spanoids[:50]:
        H = canonical_stencil(S)
        universe = frozenset(range(1, S.n + 1))
        for size in range(S.n + 1):
            for C in combinations(sorted(universe), size):
                vi = visibly_independent(H, C)
                spans = span_closure(S, universe - set(C)) == universe
                assert vi == spans
    report("criterion 4 (rank-nullity)", time.monotonic() - t0, 120,
           "300 identities + 50 full column equivalences")


def test_05_tensor_laws():
    t0 = time.monotonic()
    rng = rng_for([5, 0])
    for _ in range(100):
        n1 = int(rng.integers(2, 5))
        n2 = int(rng.integers(2, 5))
        if n1 * n2 > 16:
            n2 = 16 // n1
        H1 = random_stencil(rng, n1, n1, density=0.5)
        H2 = random_stencil(rng, n2, n2, density=0.5)
        v1 = visible_rank_exact(H1)
        v2 = visible_rank_exact(H2)
        P = tensor_product(H1, H2)
        vp = visible_rank_exact(P)
        assert v1.exact and v2.exact and vp.exact
        assert v1.lower_bound * v2.lower_bound <= vp.lower_bound
        assert vp.lower_bound <= v1.lower_bound * n2
        sq = visible_rank_exact(tensor_power(H1, 2))
        assert sq.exact
        assert sq.lower_bound <= n1 * v1.lower_bound
    report("criterion 5 (tensor laws)", time.monotonic() - t0, 300,
           "100 pairs, zero violations")


def test_06_drgp_diagonal_certificate():
    t0 = time.monotonic()
    for n in (16, 64, 256):
        for seed in range(20):
            H = gen_drgp(n, 2, seed)
            sub, identity = diagonal_tensor_certificate(H, 2)
            assert identity, (n, seed)
            assert sub.m == sub.n == n
    report("criterion 6 (tensor certificate)", time.monotonic() - t0, 5,
           "60/60 seeds certify vrk(H*H) >= n")


def test_07_gap_demonstration_calibrated():
    t0 = time.monotonic()
    for n, thresh in DRGP_THRESHOLD.items():
        for seed in range(FRESH_SEED_BASE, FRESH_SEED_BASE + 20):
            H = gen_drgp(n, 2, seed)
            res = visible_rank_exact(H)
            assert res.exact, (n, seed)
            assert res.lower_bound <= thresh, (n, seed, res.lower_bound)
    t16, t32, t64 = (DRGP_THRESHOLD[k] for k in (16, 32, 64))
    assert t64 < 64
    assert t64 - t16 <= 3 * (t32 - t16) + 2
    # Same protocol for the tensor-gap family at n=32, t=3: level-1 exact,
    # level-2 via the sound power bound, level-3 certified >= 32.
    for seed in range(FRESH_SEED_BASE, FRESH_SEED_BASE + 20):
        H = gen_tensor_gap(32, 3, seed)
        res = visible_rank_exact(H)
        assert res.exact
        assert res.lower_bound <= TENSOR_GAP_L1_THRESHOLD, (seed, res.lower_bound)
        level2_upper = 32 * res.lower_bound
        assert level2_upper <= 32 * TENSOR_GAP_L1_THRESHOLD
        _, identity = diagonal_tensor_certificate(H, 3)
        assert identity
    report("criterion 7 (calibrated gap)", time.monotonic() - t0, 1800,
           f"thresholds {DRGP_THRESHOLD}, tensor-gap L1 <= {TENSOR_GAP_L1_THRESHOLD}")


def test_08_low_rank_witness_construction():
    t0 = time.monotonic()
    rng = rng_for([8, 0])
    for _ in range(100):
        n = int(rng.integers(2, 17))
        m = int(rng.integers(1, 17))
        H = random_stencil(rng, m, n, density=0.5)
        p = next(q for q in range(max(n, 2), 2 * n + 3) if is_prime(q))
        W = low_rank_witness(H, p)
        ok, where = validate_witness(W)
        assert ok, where
        d = max((n - mask.bit_count() for mask in H.rows), default=0)
        assert gf_rank(W) <= d + 1
    for n in range(3, 9):
        full = (1 << n) - 1
        Dn = Stencil.from_rows([full ^ (1 << i) for i in range(n)], n)
        rows = [[int(b) for b in row] for row in Dn.entries()]
        assert gf_rank_rows(rows, 2) >= n - 1
    report("criterion 8 (low-rank witness)", time.monotonic() - t0, 60,
           "100 constructions + D_n caution cases")


def test_09_high_rate_cap():
    t0 = time.monotonic()
    rng = rng_for([9, 0])
    for _ in range(100):
        n = int(rng.integers(2, 7))
        H = random_stencil(rng, n, n, density=0.5)
        res = visible_rank_exact(H)
        assert res.exact
        s = n - res.lower_bound
        sq = tensor_power_vrank(H, 2)
        assert sq.exact
        assert math.sqrt(sq.lower_bound) <= n - s / 2 + 1e-9
    report("criterion 9 (high-rate cap)", time.monotonic() - t0, 600,
           "100 exact squares, zero violations")


def test_10_distinct_rank_inequality():
    t0 = time.monotonic()
    rng = rng_for([10, 0])
    for _ in range(50):
        H = random_stencil(rng, 4, 4, density=0.5)
        v1 = visible_rank_exact(H)
        v2 = tensor_power_vrank(H, 2)
        dres = distinct_rank_exact(H, 2)
        assert v1.exact and v2.exact and dres.exhaustive
        assert v2.lower_bound <= 2 * 2**2 * v1.lower_bound * dres.value
    report("criterion 10 (distinct rank)", time.monotonic() - t0, 600,
           "50 stencils, zero violations")


def test_11_lcc_structure():
    t0 = time.monotonic()
    not_found = 0
    for seed in range(20):
        H = gen_lcc(64, 3, 0.05, seed)
        params = FamilyParams(Family.LCC, 64, 3, delta=0.05, seed=seed)
        assert validate_family(H, params)
        rep = lcc_zero_rectangle_probe(H, s=8, k=2, trials=10_000, seed=seed)
        if not rep.found:
            not_found += 1
    assert not_found >= 18
    report("criterion 11 (LCC structure)", time.monotonic() - t0, 300,
           f"{not_found}/20 seeds with no small zero rectangle")
