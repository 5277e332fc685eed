"""Visible rank engine: peeling, triangularization, exact search, bounds."""

import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrank.engine as engine
from tests.conftest import (
    brute_vrank,
    count_star_diagonals,
    random_stencil,
    rng_for,
    verify_by_substencil,
)
from vrank.engine import (
    PROV_EXACT,
    PROV_WITNESS,
    PROV_ZERO_RECT,
    DiagonalCertificate,
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
from vrank.tensor import tensor_certificate, tensor_product
from vrank.gf import gf_rank, low_rank_witness, validate_witness
from vrank.stencil import (
    PermutationPair,
    Stencil,
    StencilError,
    SubsetError,
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

    def test_upper_met_by_incumbent_skips_search(self, monkeypatch):
        H = gen_drgp(6, 2, 1)
        P = tensor_product(H, H)
        cert = visible_rank_exact(H).certificate
        seed = tensor_certificate(H, cert, H, cert)
        monkeypatch.setattr(engine, "_urm_search", None)
        res = engine.visible_rank_exact(P, initial=seed, upper=seed.size)
        assert res.exact and res.upper_provenance == PROV_WITNESS
        assert res.lower_bound == res.upper_bound == 25 and res.certificate.verify(P)

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
