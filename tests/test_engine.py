"""Visible rank engine: peeling, triangularization, exact search, bounds."""

import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import brute_vrank, random_stencil, rng_for
from vrank.engine import (
    PROV_EXACT,
    PROV_ZERO_RECT,
    greedy_lower_bound,
    is_visibly_full_rank,
    triangular_certificate,
    triangularize,
    visible_rank_bounds,
    visible_rank_exact,
    visibly_independent,
    zero_rectangle_bound,
)
from vrank.families import gen_drgp, gen_lcc
from vrank.stencil import (
    Stencil,
    StencilError,
    SubsetError,
    count_star_diagonals,
    max_matching_size,
    permute,
    substencil,
)

I3 = Stencil.from_rows([1, 2, 4], 3)
I5 = Stencil.from_rows([1 << i for i in range(5)], 5)
D3 = Stencil.from_rows([0b110, 0b101, 0b011], 3)
ALLSTAR = Stencil.from_rows([0b1111] * 4, 4)


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

    def test_time_budget_kept(self):
        H = gen_lcc(128, 3, 0.05, 1)
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
