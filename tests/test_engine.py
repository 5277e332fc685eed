"""Visible rank engine: peeling, triangularization, exact search, bounds."""

import hashlib
import json
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrank.engine as engine
from tests.conftest import (
    brute_chain,
    brute_vrank,
    brute_zero_rectangle,
    count_star_diagonals,
    level_zero_rectangle,
    permute,
    random_stencil,
    rng_for,
    triangularize,
    verify_by_substencil,
)
from vrank.engine import (
    PROV_EXACT,
    PROV_WITNESS,
    PROV_ZERO_RECT,
    DiagonalCertificate,
    VrankResult,
    _beam,
    _certificate_from_sequence,
    _chain_walk,
    _first_of_each,
    _grant,
    _may_extend,
    _packed,
    greedy_lower_bound,
    is_visibly_full_rank,
    triangular_certificate,
    visible_rank_bounds,
    visible_rank_exact,
    visibly_independent,
    zero_rectangle_bound,
)
from vrank.families import gen_drgp, gen_lcc, gen_lrc, gen_tensor_gap
from vrank.tensor import (
    capacity_lower_bound,
    distinct_rank_exact,
    tensor_certificate,
    tensor_power_vrank,
    tensor_product,
)
from vrank.gf import gf_rank, low_rank_witness, validate_witness
from vrank.stencil import (
    PermutationPair,
    Stencil,
    StencilError,
    SubsetError,
    max_matching_size,
    stencil_from_json_doc,
    substencil,
    to_json_doc,
)

I3 = Stencil.from_rows([1, 2, 4], 3)
I5 = Stencil.from_rows([1 << i for i in range(5)], 5)
D3 = Stencil.from_rows([0b110, 0b101, 0b011], 3)
ALLSTAR = Stencil.from_rows([0b1111] * 4, 4)
ZRECT_SUBSETS = engine._ZRECT_SUBSETS


def _random_with_full_rows(rng, m: int, n: int) -> Stencil:
    """An m x n stencil at a random density, about one row in six all-star."""
    H = random_stencil(rng, m, n, density=rng.random())
    full = (1 << n) - 1
    return Stencil.from_rows([full if rng.random() < 1 / 6 else r for r in H.rows], n)


class TestPeeling:
    def test_upper_triangular(self):
        ok, cert = is_visibly_full_rank(Stencil.from_rows([0b11, 0b10], 2))
        assert ok and cert.verify(Stencil.from_rows([0b11, 0b10], 2))

    def test_all_star_2x2(self):
        ok, cert = is_visibly_full_rank(Stencil.from_rows([0b11, 0b11], 2))
        assert not ok and cert is None

    def test_zero_column(self):
        ok, _ = is_visibly_full_rank(Stencil.from_rows([0b01, 0b01], 2))
        assert not ok

    def test_non_square_rejected(self):
        with pytest.raises(StencilError):
            is_visibly_full_rank(Stencil.from_rows([1], 2))

    @given(st.integers(0, 2**30), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_equivalent_to_unique_star_diagonal(self, seed, n):
        M = random_stencil(rng_for(seed), n, n)
        ok, cert = is_visibly_full_rank(M)
        assert ok == (count_star_diagonals(M) == 1)
        if ok:
            assert cert.verify(M)

    @staticmethod
    def _shuffled_triangle(rng, n: int) -> list[int]:
        """Row masks of an n x n upper-triangular pattern with a star diagonal
        and random stars above it, its rows and columns randomly permuted."""
        grid = np.triu(rng.random((n, n)) < rng.random(), 1) | np.eye(n, dtype=bool)
        grid = grid[rng.permutation(n)][:, rng.permutation(n)]
        return list(Stencil.from_entries(grid.tolist()).rows)

    @given(st.integers(0, 2**30), st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_large_shuffled_triangles(self, seed, n):
        rng = rng_for(seed)
        M = Stencil.from_rows(self._shuffled_triangle(rng, n), n)
        ok, cert = is_visibly_full_rank(M)
        assert ok and cert.verify(M)
        T = permute(M, cert.perm_pair)
        assert all(T.star(i, i) for i in range(1, n + 1))
        assert not any(T.star(i, j) for i in range(1, n + 1) for j in range(1, i))

    @given(st.integers(0, 2**30), st.integers(2, 64))
    @settings(max_examples=60, deadline=None)
    def test_large_squares_with_a_repeated_row(self, seed, n):
        # Two equal rows give an even number of star diagonals: swapping
        # their columns pairs each diagonal with another.
        rng = rng_for(seed)
        rows = self._shuffled_triangle(rng, n)
        a, b = rng.choice(n, 2, replace=False)
        rows[b] = rows[a]
        assert is_visibly_full_rank(Stencil.from_rows(rows, n)) == (False, None)


class TestTriangularCertificate:
    def test_layout(self):
        # D3's row 1 stars columns 2 and 3, row 2 columns 1 and 3.
        cert = triangular_certificate(D3, [1, 2], [2, 1])
        assert cert.perm_pair.row_perm == cert.perm_pair.col_perm == (1, 2)
        assert cert.peel_order == ((2, 2), (1, 1))
        assert cert.verify(D3)

    @pytest.mark.parametrize(
        "rows, cols",
        [([1, 2], [1, 2]), ([1, 3], [2, 1]), ([1, 1], [2, 3]), ([1, 3], [2, 2]), ([1], [2, 1])],
        ids=["no-star-on-pivot", "star-on-earlier-pivot", "repeated-row", "repeated-column",
             "length-mismatch"],
    )
    def test_rejects_non_triangular(self, rows, cols):
        with pytest.raises(StencilError):
            triangular_certificate(D3, rows, cols)

    @pytest.mark.parametrize("rows, cols", [([4], [1]), ([1], [0]), ([0], [2])])
    def test_rejects_out_of_range(self, rows, cols):
        with pytest.raises(SubsetError):
            triangular_certificate(D3, rows, cols)


def one_entry_mutations(cert: DiagonalCertificate, m: int, n: int):
    """Certificates that differ from ``cert`` in one entry: a row, column or
    peel index set to another value (out of range included), two entries of
    one or both permutations swapped, or a list cut short by one."""
    r = cert.size
    rp, cp = cert.perm_pair.row_perm, cert.perm_pair.col_perm

    def make(rows=cert.row_subset, cols=cert.col_subset, perms=cert.perm_pair,
             peel=cert.peel_order):
        return DiagonalCertificate(tuple(rows), tuple(cols), perms, tuple(peel))

    for k in range(r):
        for v in range(m + 2):
            if v != cert.row_subset[k]:
                yield make(rows=cert.row_subset[:k] + (v,) + cert.row_subset[k + 1:])
        for v in range(n + 2):
            if v != cert.col_subset[k]:
                yield make(cols=cert.col_subset[:k] + (v,) + cert.col_subset[k + 1:])
        for side in range(2):
            for v in range(r + 2):
                pair = list(cert.peel_order[k])
                if v != pair[side]:
                    pair[side] = v
                    peel = list(cert.peel_order)
                    peel[k] = tuple(pair)
                    yield make(peel=peel)
        for k2 in range(k + 1, r):
            srp, scp = list(rp), list(cp)
            srp[k], srp[k2] = srp[k2], srp[k]
            scp[k], scp[k2] = scp[k2], scp[k]
            # Swapping both keeps a star diagonal but can break the order.
            for pair in ((srp, cp), (rp, scp), (srp, scp)):
                yield make(perms=PermutationPair(tuple(pair[0]), tuple(pair[1])))
    if r:
        yield make(rows=cert.row_subset[:-1])
        yield make(cols=cert.col_subset[:-1])
        yield make(peel=cert.peel_order[:-1])


class TestVerify:
    @given(st.integers(0, 2**30), st.integers(1, 5), st.integers(1, 5),
           st.sampled_from([0.3, 0.5, 0.7]))
    @settings(max_examples=120, deadline=None)
    def test_matches_quadratic_check(self, seed, m, n, density):
        rng = rng_for(seed)
        H = random_stencil(rng, m, n, density)
        certs = [visible_rank_exact(H).certificate]
        # A square sub-stencil's peeling certificate has non-identity
        # permutations and peel order.
        k = int(rng.integers(1, min(m, n) + 1))
        rows = [int(i) + 1 for i in rng.choice(m, size=k, replace=False)]
        cols = [int(j) + 1 for j in rng.choice(n, size=k, replace=False)]
        ok, c = is_visibly_full_rank(substencil(H, rows, cols))
        if ok:
            certs.append(DiagonalCertificate(
                tuple(rows[i - 1] for i in c.row_subset),
                tuple(cols[j - 1] for j in c.col_subset),
                c.perm_pair, c.peel_order))
        for cert in certs:
            assert cert.verify(H) and verify_by_substencil(cert, H)
            for bad in one_entry_mutations(cert, m, n):
                assert bad.verify(H) == verify_by_substencil(bad, H), bad
            # The same certificate on each stencil one entry away from H.
            for i in range(m):
                for j in range(n):
                    flipped = list(H.rows)
                    flipped[i] ^= 1 << j
                    F = Stencil.from_rows(flipped, n)
                    assert cert.verify(F) == verify_by_substencil(cert, F)

    def test_staircase_linear(self):
        # Rows {j, j+1}: the certificate lists rows and columns 1..n.
        n = 1500
        H = Stencil.from_rows([(0b11 << i) & ((1 << n) - 1) for i in range(n)], n)
        cert = triangular_certificate(H, range(1, n + 1), range(1, n + 1))
        start = time.monotonic()
        assert cert.verify(H)
        assert time.monotonic() - start < 0.2


class TestTriangularize:
    def test_lower_triangular_reversed(self):
        M = Stencil.from_rows([0b001, 0b011, 0b111], 3)
        p = triangularize(M)
        tri = permute(M, p)
        for i in range(1, 4):
            assert tri.star(i, i)
            for j in range(1, i):
                assert not tri.star(i, j)

    def test_identity(self):
        p = triangularize(I3)
        tri = permute(I3, p)
        assert all(tri.star(i, i) for i in range(1, 4))

    def test_failure(self):
        assert triangularize(Stencil.from_rows([0b11, 0b11], 2)) is None


class TestExact:
    def test_identity(self):
        res = visible_rank_exact(I5)
        assert (res.lower_bound, res.exact) == (5, True)

    def test_all_star(self):
        res = visible_rank_exact(ALLSTAR)
        assert (res.lower_bound, res.upper_bound, res.exact) == (1, 1, True)

    def test_derangement_pattern(self):
        res = visible_rank_exact(D3)
        assert (res.lower_bound, res.exact) == (2, True)
        assert res.certificate.verify(D3)

    def test_empty(self):
        res = visible_rank_exact(Stencil.from_rows([], 0))
        assert res.lower_bound == 0 and res.exact

    def test_all_zero(self):
        res = visible_rank_exact(Stencil.from_rows([0, 0], 3))
        assert res.lower_bound == 0 and res.exact

    @given(
        st.integers(0, 2**30),
        st.integers(2, 6),
        st.integers(2, 9),
        st.booleans(),
        st.sampled_from([0.3, 0.5, 0.7]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce(self, seed, short, long, tall, density):
        # Tall stencils are where the pair prune cuts, wide and sparse ones
        # where the union of fresh columns does.
        m, n = (long, short) if tall else (short, long)
        H = random_stencil(rng_for(seed), m, n, density)
        res = visible_rank_exact(H)
        assert res.exact
        assert res.lower_bound == brute_vrank(H)
        assert res.certificate.verify(H)
        assert res.certificate.size == res.lower_bound
        r = res.lower_bound
        assert res.certificate.peel_order == tuple((k, k) for k in range(r, 0, -1))

    @given(st.integers(0, 2**30))
    @settings(max_examples=30, deadline=None)
    def test_submonotone(self, seed):
        H = random_stencil(rng_for(seed), 6, 6)
        sub = substencil(H, [1, 2, 3, 4], [2, 3, 5, 6])
        assert visible_rank_exact(sub).lower_bound <= visible_rank_exact(H).lower_bound

    def test_budget_degrades_soundly(self):
        H = random_stencil(rng_for(99), 12, 12)
        res = visible_rank_exact(H, node_budget=3)
        full = visible_rank_exact(H)
        assert res.lower_bound <= full.lower_bound <= res.upper_bound
        assert res.certificate.verify(H)

    def test_budget_stop_reports_zero_rectangle(self):
        # The zero-rectangle bound (10) is below the matching bound (16), and
        # a one-node search stops before it can prove the value.
        H = gen_drgp(16, 2, 0)
        res = visible_rank_exact(H, node_budget=1)
        assert not res.exact and res.certificate.verify(H)
        assert zero_rectangle_bound(H) < max_matching_size(H)
        assert res.upper_bound == zero_rectangle_bound(H)
        assert res.upper_provenance == PROV_ZERO_RECT

    @pytest.mark.parametrize(
        "rows, n, value",
        [([0b11, 0b11], 2, 1), ([0b1111] * 4, 4, 1), ([0b011, 0b011, 0b110, 0b110], 3, 2)],
        ids=["pair", "all-star", "two-pairs"],
    )
    def test_duplicate_rows_closed_at_the_root(self, rows, n, value):
        # Duplicate rows put the matching bound above the greedy value, which
        # is the number of distinct rows: the root node's own guards (fewer
        # live rows, or fewer columns, than need) prove it at the first node,
        # with no root walk.
        H = Stencil.from_rows(rows, n)
        assert greedy_lower_bound(H)[0] == value < max_matching_size(H)
        res = visible_rank_exact(H, node_budget=1)
        assert res.exact and res.lower_bound == value
        assert res.upper_provenance == PROV_EXACT and res.certificate.verify(H)

    def test_time_budget_kept(self):
        # No search proves this one within 20 s; LCC-128 now completes in
        # about 0.4 s, too close to the budget to stop on it.
        H = gen_lcc(256, 4, 0.05, 1)
        start = time.monotonic()
        res = visible_rank_exact(H, time_budget=0.5)
        assert time.monotonic() - start < 1.5
        assert not res.exact and res.lower_bound < res.upper_bound
        assert res.certificate.verify(H) and res.certificate.size == res.lower_bound

    def test_deep_staircase_within_recursion_limit(self):
        # The search depth equals the visible rank, here the side n.
        n = 400
        H = Stencil.from_rows([(0b11 << i) & ((1 << n) - 1) for i in range(n)], n)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            res = visible_rank_exact(H)
        finally:
            sys.setrecursionlimit(limit)
        assert res.exact and res.lower_bound == n
        assert res.certificate.verify(H)

    def test_upper_met_by_incumbent_skips_search(self, monkeypatch):
        H = gen_drgp(6, 2, 1)
        P = tensor_product(H, H)
        cert = visible_rank_exact(H).certificate
        seed = tensor_certificate(H, cert, H, cert)
        monkeypatch.setattr(engine, "_urm_search", None)
        res = engine.visible_rank_exact(P, initial=seed, upper=seed.size)
        assert res.exact and res.upper_provenance == PROV_WITNESS
        assert res.lower_bound == res.upper_bound == 25 and res.certificate.verify(P)

    def test_unverified_initial_raises(self):
        # vrk 6, so the identity order on all 8 rows and columns is not
        # triangular; an initial certificate is replayed before it is trusted.
        H = gen_drgp(8, 2, 0)
        with pytest.raises(StencilError, match="does not verify"):
            visible_rank_exact(H, initial=DiagonalCertificate.triangular(range(1, 9), range(1, 9)))

    def test_upper_below_incumbent_raises(self):
        with pytest.raises(StencilError):
            visible_rank_exact(I5, upper=4)
        H = gen_drgp(8, 2, 0)  # greedy 4, vrk 6: the search's incumbent exceeds 5
        with pytest.raises(StencilError):
            visible_rank_exact(H, upper=5)

    def test_budget_stop_reports_witness(self):
        # The tensor square of a DRGP-6 stencil: the witness bound 5^2 = 25
        # is below the zero-rectangle (31) and matching (36) bounds, and a
        # one-node search stops at the greedy 16.
        H = gen_drgp(6, 2, 1)
        witnesses = [low_rank_witness(H, p) for p in (7, 11, 13)]
        assert all(validate_witness(W)[0] for W in witnesses)
        w = min(map(gf_rank, witnesses))
        P = tensor_product(H, H)
        res = visible_rank_exact(P, node_budget=1, upper=w**2)
        assert w**2 < min(zero_rectangle_bound(P), max_matching_size(P))
        assert not res.exact and res.lower_bound < res.upper_bound == w**2
        assert res.upper_provenance == PROV_WITNESS
        assert res.certificate.verify(P)

    def test_provenance_tag(self):
        H = random_stencil(rng_for(5), 8, 8)
        res = visible_rank_exact(H)
        if res.lower_bound < min(max_matching_size(H), zero_rectangle_bound(H)):
            assert res.upper_provenance == PROV_EXACT


class TestBounds:
    def test_identity(self):
        res = visible_rank_bounds(I5)
        assert res.lower_bound == res.upper_bound == 5

    @given(st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_bracket_exact(self, seed):
        H = random_stencil(rng_for(seed), 6, 6)
        b = visible_rank_bounds(H)
        v = visible_rank_exact(H).lower_bound
        assert b.lower_bound <= v <= b.upper_bound
        assert b.certificate.verify(H)

    def test_budget_stop_has_the_same_bracket(self):
        # A search stopped before its first node reports the bracket of
        # visible_rank_bounds, provenance and certificate included.
        rng = rng_for(7)
        cases = [_random_with_full_rows(rng, *(int(x) for x in rng.integers(0, 10, 2)))
                 for _ in range(300)]
        cases += [gen_drgp(16, 2, 0), gen_drgp(32, 2, 1), gen_lcc(64, 3, 0.05, 0)]
        for H in cases:
            assert visible_rank_exact(H, node_budget=0).to_json() == visible_rank_bounds(H).to_json()


class TestGreedy:
    def test_identity(self):
        val, cert = greedy_lower_bound(I5)
        assert val == 5 and cert.verify(I5)

    def test_all_zero(self):
        val, cert = greedy_lower_bound(Stencil.from_rows([0, 0], 3))
        assert val == 0 and cert.size == 0

    def test_lrc_guarantee(self):
        from vrank.families import gen_lrc

        for seed in range(10):
            H = gen_lrc(9, 2, seed)
            val, cert = greedy_lower_bound(H)
            assert val >= 3
            assert cert.verify(H)


class TestZeroRectangle:
    def test_identity_a1(self):
        assert zero_rectangle_bound(I3, a_max=1) == 3

    def test_all_star_a1(self):
        assert zero_rectangle_bound(Stencil.from_rows([0b111] * 3, 3), a_max=1) == 1

    def test_derangement_a2(self):
        assert zero_rectangle_bound(D3, a_max=2) == 2

    @given(st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_sound_upper_bound(self, seed):
        H = random_stencil(rng_for(seed), 6, 6, density=0.4)
        assert visible_rank_exact(H).lower_bound <= zero_rectangle_bound(H)

    @pytest.mark.parametrize("subsets", [0, 5, 30, 200, ZRECT_SUBSETS])
    def test_matches_level_lists(self, monkeypatch, subsets):
        # Small subset budgets skip levels; under the default one nothing is
        # skipped on 8 rows or fewer, so every a-subset is compared as well.
        monkeypatch.setattr(engine, "_ZRECT_SUBSETS", subsets)
        rng = rng_for(subsets)
        for _ in range(400):
            m, n, a_max = (int(x) for x in rng.integers(0, [11, 11, 6]))
            H = _random_with_full_rows(rng, m, n)
            got = zero_rectangle_bound(H, a_max)
            assert got == level_zero_rectangle(H, a_max, subsets)
            if subsets == ZRECT_SUBSETS and m <= 8:
                assert got == brute_zero_rectangle(H, a_max)

    @pytest.mark.parametrize("m", [63, 64, 65, 129])
    def test_matches_level_lists_at_block_edges(self, m):
        # Level 2 has m prefixes, so 65 and 129 rows cross one and two block
        # boundaries of engine._ZRECT_BLOCK = 64; at half density level 3
        # runs on 1.6k-8k prefixes for n >= 7.  n = 1 stops at level 1, and
        # n not a multiple of 8 leaves padding bits in the packed rows.
        rng = rng_for(m)
        for n in (1, 7, 9, 63, 65):
            H = random_stencil(rng, m, n, density=0.5)
            for a_max in (1, 2, 3):
                assert zero_rectangle_bound(H, a_max) == level_zero_rectangle(H, a_max, ZRECT_SUBSETS)

    @pytest.mark.parametrize(
        "make", [lambda: gen_drgp(32, 2, 0), lambda: gen_lcc(64, 3, 0.05, 0)], ids=["drgp32", "lcc64"]
    )
    def test_matches_level_lists_on_families(self, make):
        # Level 3 runs on both; level 4 runs on DRGP-32 and not on LCC-64,
        # whose 192 rows put it past the subset budget.
        H = make()
        for a_max in range(1, 5):
            assert zero_rectangle_bound(H, a_max) == level_zero_rectangle(H, a_max, ZRECT_SUBSETS)

    def test_walk_stores_no_level(self):
        # A list of every pair of the 512 rows, as a stored level 2 is, takes 19 MB.
        H = gen_drgp(256, 2, 0)
        tracemalloc.start()
        try:
            zero_rectangle_bound(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_large_walk_keeps_no_level_mask(self):
        # The 512 x 1024 float32 transposed zero sets take 2 MB; the products
        # run 64 prefixes at a time, and level 3 is past the subset budget, so
        # the children of level 2 (0.5M pairs) are never collected.
        H = gen_drgp(512, 2, 0)
        tracemalloc.start()
        try:
            zero_rectangle_bound(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestVisiblyIndependent:
    def test_identity_cols(self):
        assert visibly_independent(I3, [1, 3])

    def test_all_star_cols(self):
        assert not visibly_independent(Stencil.from_rows([0b111] * 3, 3), [1, 2])

    def test_derangement_cols(self):
        assert visibly_independent(D3, [1, 2])

    def test_empty_cols(self):
        assert visibly_independent(D3, [])

    def test_errors(self):
        with pytest.raises(StencilError):
            visibly_independent(D3, [1, 1])
        with pytest.raises(StencilError):
            visibly_independent(D3, [0])

    def test_budget_exhausted_raises(self):
        # Columns of a size-6 certificate of gen_drgp(8, 2, 0): the greedy
        # finds 5 of them and one node cannot settle the sixth.
        H, cols = gen_drgp(8, 2, 0), [1, 2, 3, 6, 7, 8]
        assert visibly_independent(H, iter(cols))
        with pytest.raises(StencilError, match="budget exhausted"):
            visibly_independent(H, cols, node_budget=1)


class TestSerialization:
    def test_result_json_shape(self):
        res = visible_rank_exact(D3)
        doc = res.to_json()
        assert set(doc) == {"lower", "upper", "exact", "upper_provenance", "certificate"}
        assert set(doc["certificate"]) >= {"rows", "cols", "row_perm", "col_perm"}

    def test_certificate_round_trip(self):
        from vrank.engine import DiagonalCertificate

        res = visible_rank_exact(D3)
        back = DiagonalCertificate.from_json(res.certificate.to_json())
        assert back == res.certificate and back.verify(D3)


def json_digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


#: vrk(H), which ``visible_rank_exact(H)`` proves by a completed search, and
#: the sha256 of its ``to_json()`` (keys sorted).  The digests were recorded
#: before the chain check replaced the pair prune: a sound prune that keeps
#: the child order leaves every value, flag and certificate as it was.  The
#: beam's incumbent replaced the certificates of DRGP-64 seed 1, LCC-64
#: seeds 0 and 1 and LRC-32 seeds 0 and 3 by other optimal ones, whose
#: digests were pinned again, after their values had been checked.
GOLDEN_RESULTS = [
    (gen_drgp, (64, 2, 0), 16,
     "c2a47239ed158a6faa35f050b89e5ee90f2bf38c55a1d080053b4bc9a9718694"),
    (gen_drgp, (64, 2, 1), 17,
     "e391290a7110e0a53e8189f6c9acc2ea26e465326d8da8d01e1f3386dec55fb2"),
    (gen_drgp, (32, 2, 0), 13,
     "497a30311fa67c585b664b05d4b7dba4ea39bf3b37b2db827fc0a8280a85acf8"),
    (gen_drgp, (32, 2, 1), 13,
     "dd4b5af5db574357d97cfcf9519b78b21d7b0ff17fc90b97b000f8231809dc48"),
    (gen_drgp, (32, 2, 2), 13,
     "8cd7e8c1854e6fbf0537a9c435ee9d653978e9d8df8838caaa20a9cf59f0f749"),
    (gen_drgp, (32, 2, 3), 12,
     "a7bf4d189329b10ba26e22cd14da1d900f41e3bb25c32c64933ad0c7f5108320"),
    (gen_drgp, (32, 2, 4), 13,
     "b2f37830804699aa0137058f583e7440752fd986a440d393106e5da10519f65b"),
    (gen_drgp, (32, 2, 5), 12,
     "c3ad76530a926acc988c076b633c180fc4a30a5ddab87be83bdc531856232611"),
    (gen_drgp, (32, 2, 6), 12,
     "887ba22427e0d0de4eba5915fd3fdf216e9acdd9847aa0161487d687c09c673f"),
    (gen_drgp, (32, 2, 7), 12,
     "32167caf7a4fc7fe2c1b685de1183402bc7bd3266001a222553ccd50c644e5af"),
    (gen_lcc, (64, 3, 0.05, 0), 59,
     "3ad8d272cf4ba7ca99cd90b958a2e327c3a42e3add489137799f72cd7466941d"),
    (gen_lcc, (64, 3, 0.05, 1), 59,
     "fb18d17aa6e6045b87f8dd5871e9ffbecb3a51fd95dd5cd9aed7681ee1e30ed8"),
    (gen_tensor_gap, (32, 3, 0), 9,
     "3901fd80ff2a049eda51201cb1aff8cf37a8f437f7235acf3f8f45a65641cfb7"),
    (gen_tensor_gap, (32, 3, 1), 10,
     "11e107017a42616671cd2a61b53f3835dcd089db190dd5cd46ba19cb5af419fe"),
    (gen_tensor_gap, (32, 3, 2), 9,
     "79e8342c49130a7e4e308274e494c10bd6e26fe5c16b3c802501e9668f29b987"),
    (gen_tensor_gap, (32, 3, 3), 10,
     "ad9384409ca4165d190c7ab3b0eb1d8d7ab2653f2c337dff2323dfc58cc163d4"),
    (gen_lrc, (32, 2, 0), 28,
     "2e556c71e3d6f1c0a88d432ed1ef6a4bc830ed4c5d93c27c4f3f2655a201e519"),
    (gen_lrc, (32, 2, 1), 28,
     "5ef7696b6127d7a1080ba8d8c5a81ec8b8d9c29776947f20b0045cde1bc1e5de"),
    (gen_lrc, (32, 2, 2), 29,
     "e8573650dec86a2537c9efa24417ae814305dac0f206b165096c9e36df998993"),
    (gen_lrc, (32, 2, 3), 28,
     "525e621e37f418bfed2babdbe536dc2fc9edb2a638521379ffbbb8fe13832d04"),
]

#: sha256 of ``capacity_lower_bound(gen_drgp(6, 2, s), 2).to_json()``, recorded
#: with the golden results above.
GOLDEN_CAPACITY = [
    (0, "47a1526ffc5e678beda8fa16d7084d41c82e0fa9bfd0b0cc536291099ba1ab13"),
    (4, "47a1526ffc5e678beda8fa16d7084d41c82e0fa9bfd0b0cc536291099ba1ab13"),
]


#: Nodes a completed search spends: each search ends exact with this node
#: budget and not with one node less.  The grants, the triggers and the caps
#: of a search read node counts or work units only, never the clock.
GOLDEN_NODES = [
    ("drgp64s0", lambda b: visible_rank_exact(gen_drgp(64, 2, 0), node_budget=b).exact, 160),
    ("drgp32s0", lambda b: visible_rank_exact(gen_drgp(32, 2, 0), node_budget=b).exact, 90),
    ("lcc64s0", lambda b: visible_rank_exact(gen_lcc(64, 3, 0.05, 0), node_budget=b).exact, 122),
    ("lrc32s0", lambda b: visible_rank_exact(gen_lrc(32, 2, 0), node_budget=b).exact, 499),
    ("distinct_lrc6s0",
     lambda b: distinct_rank_exact(gen_lrc(6, 2, 0), 2, node_budget=b).exhaustive, 19_491),
    # Level 2 searched up to the factor reversal from its tensored seed
    # proves 25 (10,715 nodes without the reversal).
    ("reversal_drgp6s0", lambda b: reversal_square(gen_drgp(6, 2, 0), b).exact, 5_650),
    # The same square read back from a JSON document, searched from its
    # greedy incumbent: its labels still give the reversal (10,719 nodes
    # without it).
    ("readback_drgp6s0",
     lambda b: visible_rank_exact(read_back_square(gen_drgp(6, 2, 0)), node_budget=b).exact,
     5_654),
    # The power loop searches level 1 only: its stopping-set witness has
    # rank 5 = vrk, so 5^2 closes level 2 at the tensored seed.
    ("power_drgp6s0",
     lambda b: tensor_power_vrank(gen_drgp(6, 2, 0), 2, node_budget=b).exact, 6),
]


def reversal_square(H: Stencil, node_budget: int) -> VrankResult:
    """The bare level-2 search of H's tensor square, seeded with level 1's
    certificate tensored with itself; the search reads the factor reversal
    off the square's column labels."""
    c = visible_rank_exact(H).certificate
    return visible_rank_exact(
        tensor_product(H, H), node_budget=node_budget, initial=tensor_certificate(H, c, H, c)
    )


def read_back_square(H: Stencil) -> Stencil:
    """H's tensor square after a round trip through its JSON document."""
    return stencil_from_json_doc(json.loads(json.dumps(to_json_doc(tensor_product(H, H)))))


class TestGolden:
    @pytest.mark.parametrize(
        "gen, args, value, digest", GOLDEN_RESULTS,
        ids=[f"{gen.__name__}{args}" for gen, args, _, _ in GOLDEN_RESULTS],
    )
    def test_exact_result(self, gen, args, value, digest):
        # Everything but the certificate first, which a change of search
        # order may replace by another optimal one.
        H = gen(*args)
        res = visible_rank_exact(H)
        doc = res.to_json()
        certificate = doc.pop("certificate")
        assert doc == {"lower": value, "upper": value, "exact": True,
                       "upper_provenance": PROV_EXACT}
        assert res.certificate.verify(H)
        assert json_digest({**doc, "certificate": certificate}) == digest

    @pytest.mark.parametrize(
        "seed, digest", GOLDEN_CAPACITY, ids=[f"seed{s}" for s, _ in GOLDEN_CAPACITY]
    )
    def test_capacity(self, seed, digest):
        assert json_digest(capacity_lower_bound(gen_drgp(6, 2, seed), 2).to_json()) == digest

    def test_distinct_rank(self):
        assert distinct_rank_exact(gen_lrc(6, 2, 0), 2).value == 5

    @pytest.mark.parametrize(
        "exact_within, nodes", [g[1:] for g in GOLDEN_NODES], ids=[g[0] for g in GOLDEN_NODES]
    )
    def test_node_count(self, exact_within, nodes):
        assert exact_within(nodes) and not exact_within(nodes - 1)


def chain_links(zeros: list[int], width: int | None = None) -> np.ndarray:
    """The zero sets packed as ``_chain_walk`` reads them."""
    return _packed(zeros, width or max((z.bit_length() for z in zeros), default=1))


def chain_exists(
    zeros: np.ndarray, need: int, a: int, deadline: float = math.inf, work: int | None = None
) -> bool:
    """``_chain_walk`` granted ``work`` units once (``_CHAIN_WORK`` by
    default), as ``_may_extend`` grants it: a pause answers True."""
    walk = _chain_walk(zeros, need, a, deadline)
    next(walk)
    return _grant(walk, engine._CHAIN_WORK if work is None else work)


def random_zero_sets(rng, width: int, count: int, density: float) -> list[int]:
    return [
        sum(1 << j for j in range(width) if rng.random() < density) for _ in range(count)
    ]


def missing_pairs(count: int, width: int | None = None) -> list[int]:
    """Zero sets over ``width`` columns (2 x ``count`` by default), link i
    missing 2i and 2i + 1."""
    full = (1 << (width or 2 * count)) - 1
    return [full & ~(0b11 << 2 * i) for i in range(count)]


class TestChain:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        # Zero sets of 3..10 columns, at most 8 of them, chains up to 4 long
        # and any need; a candidate that fails one link's threshold may meet
        # a later, lower one.
        rng = rng_for(seed)
        outcomes = []
        for _ in range(60):
            width = int(rng.integers(3, 11))
            density = float(rng.choice([0.5, 0.7, 0.85]))
            zeros = random_zero_sets(rng, width, int(rng.integers(0, 9)), density)
            a = int(rng.integers(0, 5))
            need = int(rng.integers(0, width + 3))
            expected = brute_chain(zeros, need, a)
            assert chain_exists(chain_links(zeros, width), need, a) == expected, (zeros, need, a)
            outcomes.append(expected)
        assert any(outcomes) and not all(outcomes)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_multiword(self, seed):
        # Zero sets of 65..200 columns, two to four words each, chains up to
        # 6 long, need down to -2 and fewer links than a: a link already in
        # the chain still meets it in every column, so it must be barred
        # even when the threshold is negative.
        rng = rng_for(100 + seed)
        outcomes = []
        for _ in range(30):
            width = int(rng.integers(65, 201))
            density = float(rng.choice([0.9, 0.95, 0.99]))
            zeros = random_zero_sets(rng, width, int(rng.integers(0, 8)), density)
            a = int(rng.integers(0, 7))
            need = int(rng.choice([rng.integers(-2, 1), rng.integers(width // 2, width + 3)]))
            expected = brute_chain(zeros, need, a)
            assert chain_exists(chain_links(zeros, width), need, a) == expected, (zeros, need, a)
            outcomes.append(expected)
        assert any(outcomes) and not all(outcomes)

    @pytest.mark.parametrize(
        "zeros, need, a, expected",
        [
            ([], -3, 0, True),
            ([], 0, 1, False),
            ([0, 0], -1, 3, False),
            ([0, 0, 0], -1, 3, True),
            ([0, 0, 0], 2, 3, False),
            ([1 << 70] * 6, 1, 6, True),
            ([1 << 70] * 5, 1, 6, False),
        ],
        ids=["a0", "no-links", "fewer-links", "need-negative", "empty-sets", "six", "five"],
    )
    def test_edge_cases(self, zeros, need, a, expected):
        assert brute_chain(zeros, need, a) == expected
        assert chain_exists(chain_links(zeros, 80), need, a) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_may_extend_matches_brute_force(self, seed):
        # The node-level prune on rows given by their fresh columns: the
        # a = 2 pair test over Python ints and the packed walk for a =
        # min(``_LONG_CHAIN``, need) both agree with the oracle on the zero
        # sets U & ~fresh.  The walk alone, with none of the prune's guards,
        # agrees with the oracle for every need >= 1.
        rng = rng_for(200 + seed)
        for _ in range(40):
            width = int(rng.integers(3, 80))
            fresh = random_zero_sets(rng, width, int(rng.integers(1, 8)), 0.15)
            fresh = [f or 1 for f in fresh]
            union = 0
            for f in fresh:
                union |= f
            live = [(f.bit_count(), i, f, f) for i, f in enumerate(fresh)]
            zeros = [union & ~f for f in fresh]
            need = int(rng.integers(0, union.bit_count() + 2))
            roomy = len(live) >= need and union.bit_count() >= need
            for long, a in ((False, 2), (True, engine._LONG_CHAIN)):
                expected = roomy and (need < 3 or brute_chain(zeros, need, min(a, need)))
                assert _may_extend(live, union, need, long, math.inf) == expected, (fresh, need, a)
            # The walk seeks chains of ``_LONG_CHAIN`` rows, and a finished
            # walk answers True to a second grant.
            if need >= 1:
                expected = brute_chain(zeros, need, min(engine._LONG_CHAIN, need))
                walk = engine._chain(live, union, need, math.inf)
                assert _grant(walk, 10**9) == expected, (fresh, need)
                assert _grant(walk, 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_resumed_walk_matches_one_grant(self, seed):
        # Single- and multi-word zero sets, each walk fed one to eight small
        # grants: after each grant it answers as one grant of their sum
        # would, a pause counting as "may extend", and a walk that finishes
        # False has proven that no chain exists.
        rng = rng_for(600 + seed)
        resumed = []
        for _ in range(300):
            width = int(rng.choice([rng.integers(3, 11), rng.integers(65, 201)]))
            density = float(rng.choice([0.5, 0.7, 0.85] if width < 64 else [0.9, 0.95, 0.99]))
            zeros = random_zero_sets(rng, width, int(rng.integers(0, 9)), density)
            a = int(rng.integers(0, 6))
            need = int(rng.integers(-2, width + 3))
            links = chain_links(zeros, width)
            walk = _chain_walk(links, need, a, math.inf)
            next(walk)
            total, paused = 0, False
            for _ in range(int(rng.integers(1, 9))):
                grant = int(rng.integers(0, 3 * links.size + 1))
                total += grant
                try:
                    answer, finished = walk.send(grant), False
                except StopIteration as done:
                    answer, finished = done.value, True
                assert answer == chain_exists(links, need, a, work=total), (zeros, need, a)
                if finished:
                    assert answer or not brute_chain(zeros, need, a), (zeros, need, a)
                    resumed.append((paused, answer))
                    break
                paused = True
        # Some walks paused, resumed and then finished, either way.
        assert (True, True) in resumed and (True, False) in resumed

    def test_later_link_kept(self):
        # Thresholds 3, 2, 1: z3 meets z1 and z2 in one column each, too few
        # for the second link, yet it is the third in z1, z2, z3.
        zeros = [0b0111, 0b1011, 0b0001]
        assert brute_chain(zeros, 4, 3)
        assert chain_exists(chain_links(zeros), 4, 3)
        assert not chain_exists(chain_links(zeros), 5, 3)

    def test_work_cap_and_deadline_answer_may_extend(self, monkeypatch):
        # No chain of three: the pair z1, z2 has no third link.  Giving up
        # answers True, which only keeps a node the check could have cut.
        links = chain_links([0b0111, 0b1011, 0b1100])
        assert not chain_exists(links, 4, 3)
        assert chain_exists(links, 4, 3, deadline=time.monotonic() - 1)
        monkeypatch.setattr(engine, "_CHAIN_WORK", 0)
        assert chain_exists(links, 4, 3)

    def test_pair_test_gives_up_as_may_extend(self, monkeypatch):
        # Need 3 over U = 4 columns: the zero sets {0, 1} and {2, 3} are
        # links of size need - 1 with no second hit, and the all-star row is
        # no link, so the pair test answers False; past its deadline or out
        # of work it answers True.
        fresh = [0b1100, 0b0011, 0b1111]
        live = [(f.bit_count(), i, f, f) for i, f in enumerate(fresh)]
        assert not brute_chain([0b1111 & ~f for f in fresh], 3, 2)
        assert not _may_extend(live, 0b1111, 3, False, math.inf)
        assert _may_extend(live, 0b1111, 3, False, time.monotonic() - 1)
        monkeypatch.setattr(engine, "_CHAIN_WORK", 0)
        assert _may_extend(live, 0b1111, 3, False, math.inf)

    def test_work_cap_bounds_the_walk(self):
        # Link i misses columns 2i and 2i + 1, so any s of the 128 links meet
        # in 256 - 2s columns: with need = 251 every set of at most five links
        # continues and none of six finishes, which the small copy below
        # confirms.  The walk would hold all C(128, 2) pairs against every
        # link, 33 MB of intersections, and C(128, 3) triples after them;
        # the work cap answers "may extend" first.
        assert not brute_chain(missing_pairs(7), 14 - 5, 6)
        assert not chain_exists(chain_links(missing_pairs(7)), 14 - 5, 6)
        links = chain_links(missing_pairs(128))
        tracemalloc.start()
        try:
            assert chain_exists(links, 256 - 5, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_work_cap_bounds_the_blocked_walk(self):
        # The same links under a root-sized cap: the C(128, 2) pairs of level
        # 2 fit it, and the walk sees them in blocks, not all at once (36.8 MB
        # for one unblocked product of their intersections with every link).
        links = chain_links(missing_pairs(128))
        tracemalloc.start()
        try:
            assert chain_exists(links, 256 - 5, 6, work=5_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_held_walk_bounded(self):
        # The links and cap of ``test_work_cap_bounds_the_blocked_walk``,
        # granted in 250 pieces of 20,000 units with the walk held between
        # them, paused between two levels or inside one: it answers "may
        # extend" to each and stays under the same memory gate.
        links = chain_links(missing_pairs(128))
        walk = _chain_walk(links, 256 - 5, 6, math.inf)
        next(walk)
        tracemalloc.start()
        try:
            assert all(walk.send(20_000) for _ in range(250))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_deadline_passed_between_grants(self):
        # No chain of six exists here, which the walk proves when granted
        # enough at once; a deadline that passes while it is paused before
        # its dive ends it with "may extend" at its first block.
        links = chain_links(missing_pairs(7))
        assert not chain_exists(links, 14 - 5, 6, work=10**9)
        walk = _chain_walk(links, 14 - 5, 6, time.monotonic() + 0.2)
        next(walk)
        assert walk.send(1)
        time.sleep(0.25)
        with pytest.raises(StopIteration) as done:
            walk.send(10**9)
        assert done.value.value is True

    def test_deadline_read_inside_a_level(self):
        # Any two of these links meet in width - 4 = need - 2 columns and no
        # three in need - 3, so the walk answers False after testing each of
        # the C(256, 2) pairs, within the set bound, against every link,
        # which takes longer than the budget below (0.8 s on a 2-vCPU Xeon);
        # under an unbounded cap only the deadline, read per block, stops it.
        assert not brute_chain(missing_pairs(8, 24), 22, 3)
        assert not chain_exists(chain_links(missing_pairs(8, 24)), 22, 3)
        assert engine._CHAIN_SETS >= 256 * 255 // 2
        links = chain_links(missing_pairs(256, 1024))
        start = time.monotonic()
        assert chain_exists(links, 1022, 3, deadline=start + 0.1, work=10**12)
        assert time.monotonic() - start < 0.1 + 0.5

    def test_drgp64_root_walk_node_count(self):
        # Re-asking the root's prune ends the proof phase at 1056 nodes; the
        # per-node prunes alone take 1788.
        H = gen_drgp(64, 2, 0)
        res = visible_rank_exact(H, node_budget=1100)
        assert res.exact and res.certificate.verify(H)
        assert res.upper_provenance == PROV_EXACT

    @pytest.mark.parametrize(
        "make, budget", [(lambda: gen_drgp(64, 2, 0), 600), (lambda: gen_drgp(32, 2, 0), 120)],
        ids=["drgp64", "drgp32"],
    )
    def test_resumed_root_walk_node_count(self, make, budget):
        # Resumed across stall points instead of restarted with a doubled
        # cap, the root walk has about twice the work at each stall point
        # and proves DRGP-64's optimum at 544 nodes, or at 160 when granted
        # at the post-beam rate.  DRGP-32's incumbent rises after a walk has
        # started, and the walk for the new need proves it at 90 nodes; the
        # old need's walk could never prove it, and the search would take
        # 258.
        H = make()
        res = visible_rank_exact(H, node_budget=budget)
        assert res.exact and res.certificate.verify(H)
        assert res.upper_provenance == PROV_EXACT

    @pytest.mark.parametrize("k", [3, 1000, 2**40])
    def test_first_of_each_matches_unique(self, k):
        # Past 2**62 / k the base-k key of a row prefix is replaced by its
        # rank, which the width-6 rows over 2**40 values reach.
        rng = rng_for(k % 97)
        rows = rng.integers(0, k, (50, 6))[rng.integers(0, 50, 400)]
        first = _first_of_each(rows, k)
        _, expected = np.unique(rows, axis=0, return_index=True)
        assert sorted(first) == sorted(expected)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_drgp64_node_count(self, seed):
        # The chain check proves these optima in 1788 and 1433 nodes; the
        # pair prune alone took 19637 and 12037.
        H = gen_drgp(64, 2, seed)
        res = visible_rank_exact(H, node_budget=3600)
        assert res.exact and res.certificate.verify(H)

    @pytest.mark.parametrize(
        "make", [lambda: gen_drgp(128, 2, 1), lambda: gen_lcc(256, 3, 0.05, 1)],
        ids=["drgp128", "lcc256"],
    )
    def test_time_budget_kept(self, make):
        H = make()
        start = time.monotonic()
        res = visible_rank_exact(H, time_budget=0.5)
        assert time.monotonic() - start < 1.5
        assert res.certificate.verify(H) and res.certificate.size == res.lower_bound


class TestRootProof:
    """The root's prune re-asked at every doubling of the stall, from the
    first node on, against the oracles."""

    @pytest.fixture
    def root_walks(self, monkeypatch):
        # Records the answer of every root walk to every grant; the search
        # stops granting a walk once it answers False.  Only walks that
        # ``_urm_search`` builds are recorded: the per-node long checks,
        # built in ``_may_extend``, run unrecorded.
        monkeypatch.setattr(engine, "_ROOT_AFTER", 1)
        answers = []
        chain = engine._chain

        def recorded(walk):
            work = yield
            while True:
                answers.append(_grant(walk, work))
                work = yield answers[-1]

        def recording(live, union, need, deadline):
            walk = chain(live, union, need, deadline)
            if sys._getframe(1).f_code is not engine._urm_search.__code__:
                return walk
            walk = recorded(walk)
            next(walk)
            return walk

        monkeypatch.setattr(engine, "_chain", recording)
        return answers

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bruteforce(self, root_walks, seed):
        rng = rng_for(300 + seed)
        for _ in range(30):
            m, n = int(rng.integers(4, 10)), int(rng.integers(4, 10))
            H = random_stencil(rng, m, n, float(rng.choice([0.3, 0.5, 0.7])))
            res = visible_rank_exact(H)
            assert res.exact and res.lower_bound == brute_vrank(H)
            assert res.certificate.verify(H) and res.certificate.size == res.lower_bound
        # Some of the searches were ended by a root walk.
        assert False in root_walks

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bruteforce_after_the_beam(self, root_walks, monkeypatch, seed):
        # The beam at the first stall point, so that every later grant is
        # made at the post-beam rate.  Stencils of fewer than six rows or
        # columns seldom search past their beam; larger ones cost the
        # oracle more, so there are 20 a seed.
        monkeypatch.setattr(engine, "_BEAM_AFTER", 1)
        beam = engine._beam

        def recording(*args):
            root_walks.append("beam")
            return beam(*args)

        monkeypatch.setattr(engine, "_beam", recording)
        rng = rng_for(600 + seed)
        ended_after_beam = 0
        for _ in range(20):
            m, n = int(rng.integers(6, 10)), int(rng.integers(6, 10))
            H = random_stencil(rng, m, n, float(rng.choice([0.3, 0.5, 0.7])))
            start = len(root_walks)
            res = visible_rank_exact(H)
            assert res.exact and res.lower_bound == brute_vrank(H)
            assert res.certificate.verify(H) and res.certificate.size == res.lower_bound
            events = root_walks[start:]
            ended_after_beam += "beam" in events and events[-1] is False
        # Some of the searches were ended by a walk granted after their beam.
        assert ended_after_beam

    @pytest.mark.parametrize(
        "make", [lambda s: gen_drgp(64, 2, s), lambda s: gen_lcc(64, 3, 0.05, s)],
        ids=["drgp64", "lcc64"],
    )
    def test_post_beam_rate_keeps_the_result(self, monkeypatch, make):
        # A walk ends a search only once its final incumbent has been found,
        # so the post-beam rate moves where a search ends, not what it
        # returns.
        for seed in range(8):
            H = make(seed)
            fast = visible_rank_exact(H).to_json()
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_ROOT_WORK_AFTER_BEAM", engine._ROOT_WORK)
                assert visible_rank_exact(H).to_json() == fast

    @pytest.mark.parametrize(
        "H, value",
        [(gen_lrc(6, 2, 0), 5), (gen_tensor_gap(4, 3, 0), 3), (gen_tensor_gap(4, 3, 1), 3),
         (gen_tensor_gap(6, 3, 0), 3)],
        ids=["lrc6", "tgap4s0", "tgap4s1", "tgap6s0"],
    )
    def test_distinct_rank_kept(self, root_walks, H, value):
        res = distinct_rank_exact(H, 2)
        assert res.exhaustive and res.value == value
        assert root_walks

    def test_time_budget_kept(self, root_walks, monkeypatch):
        # Root walks from the first node, each with more work than the budget
        # allows: the search and its walks share the one deadline.
        monkeypatch.setattr(engine, "_ROOT_WORK", 10**9)
        H = gen_drgp(128, 2, 1)
        start = time.monotonic()
        res = visible_rank_exact(H, time_budget=0.5)
        assert time.monotonic() - start < 1.5
        assert root_walks and res.certificate.verify(H)


def beam_rows(H: Stencil) -> list[tuple[int, int, int, int]]:
    """The (c, index, mask, mask) records the search hands ``_beam``: one per
    nonzero, distinct row, c being its star count."""
    rows, seen = [], set()
    for i, mask in enumerate(H.rows):
        if mask and mask not in seen:
            seen.add(mask)
            rows.append((mask.bit_count(), i, mask, mask))
    return rows


class TestBeam:
    @pytest.mark.parametrize("seed", range(4))
    def test_replays_within_the_oracle(self, seed):
        # Widths from 1, a greedy dive, to past the number of unions, and
        # floors up to the optimum, which no beam passes.
        rng = rng_for(400 + seed)
        for _ in range(30):
            m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            H = random_stencil(rng, m, n, float(rng.choice([0.3, 0.5, 0.7])))
            vrk = brute_vrank(H)
            width, floor = int(rng.choice([1, 2, 32])), int(rng.integers(0, vrk + 1))
            depth, seq = _beam(beam_rows(H), H.n, width, math.inf, floor)
            cert = _certificate_from_sequence(H, seq)
            assert depth == cert.size <= vrk
            assert cert.verify(H)

    @pytest.mark.parametrize(
        "make", [lambda: gen_drgp(64, 2, 1), lambda: gen_lcc(64, 3, 0.05, 0)],
        ids=["drgp64", "lcc64"],
    )
    def test_deterministic(self, make):
        H = make()
        first = _beam(beam_rows(H), H.n, 32, math.inf)
        assert _beam(beam_rows(H), H.n, 32, math.inf) == first
        assert _certificate_from_sequence(H, first[1]).verify(H)

    @pytest.mark.parametrize("seed", range(3))
    def test_multiword(self, seed):
        # Column j of a DRGP-32 stencil moved to column 3j + 2 of 98, two
        # words: only column counts rank the unions, so the beam takes the
        # same rows, and each pivot moves with its column.
        H = gen_drgp(32, 2, seed)
        spread = Stencil.from_rows(
            [sum(1 << (3 * j + 2) for j in range(H.n) if mask >> j & 1) for mask in H.rows], 98
        )
        depth, seq = _beam(beam_rows(H), H.n, 32, math.inf)
        assert _beam(beam_rows(spread), spread.n, 32, math.inf) == (
            depth, [(i, 3 * j + 2) for i, j in seq]
        )
        assert _certificate_from_sequence(spread, [(i, 3 * j + 2) for i, j in seq]).verify(spread)
        H = gen_lcc(128, 3, 0.05, seed)
        assert _certificate_from_sequence(H, _beam(beam_rows(H), H.n, 32, math.inf)[1]).verify(H)

    def test_deadline_passed(self):
        H = gen_lcc(128, 3, 0.05, 1)
        depth, seq = _beam(beam_rows(H), H.n, 32, time.monotonic() - 1)
        assert depth <= 1 and _certificate_from_sequence(H, seq).verify(H)


class TestBeamInSearch:
    """The beam run at the first stall point of every search, from the first
    node on, against the oracles."""

    @pytest.fixture
    def beams(self, monkeypatch):
        # Records the depth of every beam and the incumbent it had to beat.
        monkeypatch.setattr(engine, "_ROOT_AFTER", 1)
        monkeypatch.setattr(engine, "_BEAM_AFTER", 1)
        runs = []
        beam = engine._beam

        def recording(rows, n, width, deadline, floor=0):
            result = beam(rows, n, width, deadline, floor)
            runs.append((result[0], floor))
            return result

        monkeypatch.setattr(engine, "_beam", recording)
        return runs

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bruteforce(self, beams, seed):
        rng = rng_for(500 + seed)
        for _ in range(30):
            m, n = int(rng.integers(4, 10)), int(rng.integers(4, 10))
            H = random_stencil(rng, m, n, float(rng.choice([0.3, 0.5, 0.7])))
            res = visible_rank_exact(H)
            assert res.exact and res.lower_bound == brute_vrank(H)
            assert res.certificate.verify(H) and res.certificate.size == res.lower_bound
        # Some of the beams beat the incumbent and became it.
        assert any(depth > floor for depth, floor in beams)

    @pytest.mark.parametrize(
        "H, value",
        [(gen_lrc(6, 2, 0), 5), (gen_tensor_gap(4, 3, 0), 3), (gen_tensor_gap(4, 3, 1), 3),
         (gen_tensor_gap(6, 3, 0), 3)],
        ids=["lrc6", "tgap4s0", "tgap4s1", "tgap6s0"],
    )
    def test_distinct_rank_kept(self, beams, H, value):
        # The beam knows no value classes, so the distinct-rank search runs none.
        res = distinct_rank_exact(H, 2)
        assert res.exhaustive and res.value == value
        assert not beams

    def test_lcc64_node_count(self):
        # The beam raises the incumbent from 57 to the optimum 59 at node 90,
        # the first stall point past 64 nodes, and a root walk, granted at
        # the post-beam rate, proves it at node 122; without the beam the
        # search takes 1170 nodes.
        H = gen_lcc(64, 3, 0.05, 0)
        res = visible_rank_exact(H, node_budget=400)
        assert res.exact and res.lower_bound == 59 and res.certificate.verify(H)
