"""GF(p) witnesses: validation, rank, brute-force min-rank, low-rank construction."""

import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tests.conftest import brute_minrank, brute_vrank, random_stencil, rng_for, tensor_witness
from vrank.engine import visible_rank_exact
from vrank.families import gen_drgp
from vrank.gf import (
    FieldError,
    WitnessMatrix,
    gf_rank,
    gf_rank_rows,
    is_prime,
    low_rank_witness,
    minrank_bruteforce,
    stopping_set,
    stopping_set_witness,
    validate_witness,
)
from vrank.stencil import Stencil
from vrank.tensor import tensor_product

D3 = Stencil.from_rows([0b110, 0b101, 0b011], 3)
ALLSTAR3 = Stencil.from_rows([0b111] * 3, 3)


def d_n(n: int) -> Stencil:
    full = (1 << n) - 1
    return Stencil.from_rows([full ^ (1 << i) for i in range(n)], n)


class TestPrimes:
    def test_is_prime(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_nonprime_rejected(self):
        with pytest.raises(FieldError):
            minrank_bruteforce(D3, 4)

    def test_prime_limit(self):
        with pytest.raises(FieldError):
            minrank_bruteforce(D3, 65537)


class TestWitness:
    def test_support_match_required(self):
        W = WitnessMatrix(2, ((1, 1, 1),) * 3, ALLSTAR3)
        assert validate_witness(W) == (True, None)

    def test_zero_at_star_flagged(self):
        W = WitnessMatrix(2, ((1, 1, 1), (1, 0, 1), (1, 1, 1)), ALLSTAR3)
        assert validate_witness(W) == (False, (2, 2))

    def test_nonzero_at_zero_flagged(self):
        W = WitnessMatrix(3, ((1, 1, 1),) * 3, D3)
        ok, where = validate_witness(W)
        assert not ok and where == (1, 1)

    def test_shape_mismatch(self):
        with pytest.raises(FieldError):
            WitnessMatrix(2, ((1, 1),), D3)
        with pytest.raises(FieldError):
            WitnessMatrix(2, ((1, 1),) * 3, D3)

    def test_value_range(self):
        with pytest.raises(FieldError):
            WitnessMatrix(2, ((2, 1, 1),) * 3, ALLSTAR3)


class TestRank:
    def test_identity(self):
        W = WitnessMatrix(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), Stencil.from_rows([1, 2, 4], 3))
        assert gf_rank(W) == 3

    def test_j_minus_i_gf2(self):
        assert gf_rank_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]], 2) == 2

    def test_zero_matrix(self):
        assert gf_rank_rows([[0, 0], [0, 0]], 5) == 0
        assert gf_rank_rows([], 5) == 0

    def test_rank_bounded_by_dims(self):
        for seed in range(10):
            H = random_stencil(rng_for(seed), 4, 6)
            rows = [[int(b) for b in row] for row in H.entries()]
            assert gf_rank_rows(rows, 2) <= 4


class TestMinrank:
    def test_d3_gf3(self):
        res = minrank_bruteforce(D3, 3)
        assert res.value == 2 and res.exhaustive
        assert validate_witness(res.witness)[0]
        assert gf_rank(res.witness) == 2

    def test_gf2_unique_witness(self):
        for seed in range(10):
            H = random_stencil(rng_for(seed), 4, 4)
            res = minrank_bruteforce(H, 2)
            rows = [[int(b) for b in row] for row in H.entries()]
            assert res.value == gf_rank_rows(rows, 2)
            assert res.exhaustive

    def test_identity_full_rank(self):
        In = Stencil.from_rows([1, 2, 4], 3)
        for p in (2, 3, 5):
            assert minrank_bruteforce(In, p).value == 3

    def test_budget_degrades(self):
        H = random_stencil(rng_for(3), 4, 4, density=0.8)
        res = minrank_bruteforce(H, 5, budget=3)
        full = minrank_bruteforce(H, 5, budget=2_000_000)
        assert full.exhaustive
        assert res.value >= full.value
        assert validate_witness(res.witness)[0]

    def test_time_budget_kept(self):
        # 49 free stars: the 2M-matrix budget takes about 100 s here.
        H = gen_drgp(8, 2, 0)
        start = time.monotonic()
        res = minrank_bruteforce(H, 3, time_budget=0.5)
        assert time.monotonic() - start < 1.5
        assert not res.exhaustive
        assert validate_witness(res.witness)[0] and gf_rank(res.witness) == res.value

    @given(st.integers(0, 2**30), st.integers(1, 4), st.integers(1, 4),
           st.sampled_from([0.3, 0.6, 0.9]), st.sampled_from([2, 3, 5]))
    @example(1941, 4, 3, 0.6, 3)  # fixing its first cycle-closing star to 1 misses the minimum
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, seed, m, n, density, p):
        # Sparse draws leave empty rows and columns, so the bipartite star
        # graph is often disconnected.
        H = random_stencil(rng_for(seed), m, n, density)
        assume((p - 1) ** H.star_count() <= 20_000)
        res = minrank_bruteforce(H, p)
        value, least = brute_minrank(H, p)
        assert res.exhaustive and res.value == value
        assert res.witness.entries == least
        assert validate_witness(res.witness)[0]
        assert gf_rank(res.witness) == res.value

    @given(st.integers(0, 2**30), st.integers(3, 5))
    @settings(max_examples=40, deadline=None)
    def test_vrank_sandwich(self, seed, n):
        H = random_stencil(rng_for(seed), n, n)
        vres = visible_rank_exact(H)
        res = minrank_bruteforce(H, 2)
        assert vres.exact and res.exhaustive
        assert vres.lower_bound <= res.value


class TestLowRankWitness:
    def test_d3_gf3_exact_matrix(self):
        W = low_rank_witness(D3, 3)
        assert W.entries == ((0, 1, 2), (2, 0, 1), (1, 2, 0))
        assert gf_rank(W) == 2
        assert validate_witness(W)[0]

    def test_all_star_rank_one(self):
        W = low_rank_witness(ALLSTAR3, 3)
        assert all(v == 1 for row in W.entries for v in row)
        assert gf_rank(W) == 1

    def test_requires_large_field(self):
        with pytest.raises(FieldError):
            low_rank_witness(D3, 2)

    @given(st.integers(0, 2**30), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_validates_and_caps_rank(self, seed, n):
        H = random_stencil(rng_for(seed), n, n)
        p = next(q for q in range(n, 2 * n + 2) if is_prime(q))
        W = low_rank_witness(H, p)
        assert validate_witness(W)[0]
        d = max(n - mask.bit_count() for mask in H.rows)
        assert gf_rank(W) <= d + 1

    @given(st.integers(0, 2**30), st.integers(1, 6), st.integers(1, 6),
           st.sampled_from([0.3, 0.5, 0.7]), st.sampled_from([7, 11, 13]))
    @settings(max_examples=80, deadline=None)
    def test_rank_above_visible_rank(self, seed, m, n, density, p):
        # The sandwich behind the tensor levels' witness upper bound.
        H = random_stencil(rng_for(seed), m, n, density)
        W = low_rank_witness(H, p)
        assert validate_witness(W)[0]
        assert gf_rank(W) >= visible_rank_exact(H).lower_bound

    def test_dn_gf2_caution(self):
        # The unique GF(2) witness of the off-diagonal pattern has high rank,
        # showing why the construction insists on p >= n.
        for n in range(3, 9):
            H = d_n(n)
            rows = [[int(b) for b in row] for row in H.entries()]
            assert gf_rank_rows(rows, 2) >= n - 1


#: Every prime up to 31, and the largest the fields support.
PRIMES = [q for q in range(2, 32) if is_prime(q)] + [65521]


class TestStoppingSetWitness:
    @given(st.integers(0, 2**30), st.integers(0, 6), st.integers(0, 6),
           st.sampled_from([0.3, 0.5, 0.7, 0.9]))
    @settings(max_examples=80, deadline=None)
    def test_against_brute_force(self, seed, m, n, density):
        H = random_stencil(rng_for(seed), m, n, density) if m else Stencil.from_rows([], n)
        vrk = brute_vrank(H)
        S = stopping_set(H)
        assert all(len([j for j in S if H.star(i, j)]) != 1 for i in range(1, m + 1))
        assert (not S) == (vrk == n)
        for p in [q for q in PRIMES if q >= max(n, 2)]:
            W = stopping_set_witness(H, p)
            assert validate_witness(W)[0]
            assert all(sum(row[j - 1] for j in S) % p == 0 for row in W.entries)
            rank = gf_rank(W)
            assert (rank <= n - 1) == (vrk < n)
            assert rank >= vrk

    def test_peeling_stops_on_the_largest_stopping_set(self):
        # Rows {1}, {1, 2}, {3, 4}, {4, 5}, {3, 5}: peeling drops 1, then 2;
        # {3, 4, 5} is a triangle every row meets in 0 or 2 columns.
        H = Stencil.from_rows([0b00001, 0b00011, 0b01100, 0b11000, 0b10100], 5)
        assert stopping_set(H) == (3, 4, 5)
        W = stopping_set_witness(H, 5)
        assert W.entries == ((1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 0, 4, 1, 0),
                             (0, 0, 0, 4, 1), (0, 0, 4, 0, 1))
        assert gf_rank(W) == 4

    @pytest.mark.parametrize(
        "S, match",
        [((0,), "distinct columns"), ((3, 9), "distinct columns"), ((3, 3, 4), "distinct columns"),
         ((1, 2), "row 1 meets it in one column")],
    )
    def test_given_set_checked(self, S, match):
        # The stencil above: (0,) and (3, 9) leave [1, 5], and row {1} meets
        # (1, 2) in one column.
        H = Stencil.from_rows([0b00001, 0b00011, 0b01100, 0b11000, 0b10100], 5)
        with pytest.raises(FieldError, match=match):
            stopping_set_witness(H, 5, S)

    def test_given_stopping_set(self):
        # Two disjoint triangles: each alone is a stopping set, and both
        # together are the largest.
        H = Stencil.from_rows([0b000011, 0b000110, 0b000101, 0b011000, 0b110000, 0b101000], 6)
        assert stopping_set(H) == (1, 2, 3, 4, 5, 6)
        assert stopping_set_witness(H, 7, stopping_set(H)) == stopping_set_witness(H, 7)
        W = stopping_set_witness(H, 7, (1, 2, 3))
        assert validate_witness(W)[0]
        assert all((row[0] + row[1] + row[2]) % 7 == 0 for row in W.entries)
        assert W.entries[3:] == ((0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 1, 1), (0, 0, 0, 1, 0, 1))

    def test_drgp6_rank_five_above_gf2(self):
        # vrk 5 and a GF(7) witness of rank 5, where no GF(2) witness of the
        # same stencil has rank below 6.
        H = gen_drgp(6, 2, 0)
        assert gf_rank(stopping_set_witness(H, 7)) == 5
        res = minrank_bruteforce(H, 2)
        assert res.exhaustive and res.value == 6

    def test_requires_large_field(self):
        with pytest.raises(FieldError, match="p >= n"):
            stopping_set_witness(D3, 2)
        with pytest.raises(FieldError, match="not prime"):
            stopping_set_witness(D3, 4)


class TestTensorWitness:
    def test_product_witness_validates(self):
        H1 = Stencil.from_rows([0b10, 0b01], 2)
        H2 = D3
        W1 = minrank_bruteforce(H1, 3).witness
        W2 = minrank_bruteforce(H2, 3).witness
        P = tensor_product(H1, H2)
        WP = tensor_witness(W1, W2, P)
        assert validate_witness(WP)[0]

    def test_submultiplicative_rank(self):
        for seed in range(5):
            H1 = random_stencil(rng_for(seed), 3, 3)
            H2 = random_stencil(rng_for(seed + 100), 3, 3)
            r1 = minrank_bruteforce(H1, 2)
            r2 = minrank_bruteforce(H2, 2)
            P = tensor_product(H1, H2)
            rp = minrank_bruteforce(P, 2)
            assert rp.value <= r1.value * r2.value

    def test_field_mismatch(self):
        W1 = minrank_bruteforce(D3, 3).witness
        W2 = minrank_bruteforce(D3, 5).witness
        with pytest.raises(FieldError):
            tensor_witness(W1, W2, tensor_product(D3, D3))
