"""Stencil model, serialization, and the brute-force oracles."""

import json
import sys
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import (
    OracleLimitError,
    PermutationSizeError,
    brute_matching,
    count_star_diagonals,
    greedy_free_rows,
    inverse,
    permanent_by_permutations,
    permute,
    random_stencil,
    rng_for,
)
from vrank.families import gen_drgp
from vrank.stencil import (
    DuplicateLabelError,
    IllegalCharacterError,
    MalformedHeaderError,
    PermutationPair,
    RaggedRowError,
    Stencil,
    StencilError,
    SubsetError,
    max_matching_size,
    parse_stencil,
    stencil_from_json_doc,
    substencil,
    to_grid,
    to_json_doc,
)

I3 = Stencil.from_rows([0b001, 0b010, 0b100], 3)
D3 = Stencil.from_rows([0b110, 0b101, 0b011], 3)
ALLSTAR3 = Stencil.from_rows([0b111] * 3, 3)


def small_stencils(max_side=5):
    return st.integers(1, max_side).flatmap(
        lambda n: st.lists(
            st.integers(0, (1 << n) - 1), min_size=1, max_size=max_side
        ).map(lambda masks: Stencil.from_rows(masks, n))
    )


class TestConstruction:
    def test_default_labels(self):
        assert I3.row_labels == ((1,), (2,), (3,))
        assert I3.col_labels == ((1,), (2,), (3,))

    def test_mask_out_of_range(self):
        with pytest.raises(StencilError):
            Stencil.from_rows([0b1000], 3)

    @pytest.mark.parametrize(
        "m, n, rows, row_labels, col_labels",
        [(-1, 0, (), (), ()), (2, 1, (1,), ((1,), (2,)), ((1,),)), (1, 1, (1,), ((1,),), ())],
        ids=["negative-dimension", "mask-count", "label-count"],
    )
    def test_shape_mismatch(self, m, n, rows, row_labels, col_labels):
        with pytest.raises(StencilError):
            Stencil(m, n, rows, row_labels, col_labels)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabelError):
            Stencil.from_rows([1, 2], 2, row_labels=[(1,), (1,)])

    def test_nonuniform_label_arity_rejected(self):
        with pytest.raises(StencilError):
            Stencil.from_rows([1, 2], 2, row_labels=[(1,), (1, 2)])

    def test_from_entries(self):
        H = Stencil.from_entries([[1, 0], [0, 1]])
        assert H.rows == (0b01, 0b10)
        with pytest.raises(RaggedRowError):
            Stencil.from_entries([[1, 0], [1]])

    def test_star_and_support(self):
        assert D3.star(1, 2) and not D3.star(1, 1)
        assert D3.row_support(1) == (2, 3)
        assert D3.star_count() == 6

    def test_star_out_of_range(self):
        with pytest.raises(SubsetError):
            D3.star(4, 1)


class TestParse:
    def test_grid_identity(self):
        H = parse_stencil("stencil 2 2\n*0\n0*\n")
        assert H.rows == (0b01, 0b10)
        assert parse_stencil("stencil 2 2\n*0\n0*\n\n  \n\r\n") == H

    def test_grid_one_row(self):
        H = parse_stencil("stencil 1 3\n*0*\n")
        assert H.rows == (0b101,)

    def test_ragged_row(self):
        with pytest.raises(RaggedRowError):
            parse_stencil("stencil 2 2\n*0\n0\n")

    def test_missing_row(self):
        with pytest.raises(RaggedRowError):
            parse_stencil("stencil 2 2\n*0\n")

    def test_bad_header(self):
        with pytest.raises(MalformedHeaderError):
            parse_stencil("grid 2 2\n*0\n0*\n")
        with pytest.raises(MalformedHeaderError):
            parse_stencil("stencil x 2\n*0\n0*\n")
        with pytest.raises(MalformedHeaderError):
            parse_stencil("")
        with pytest.raises(MalformedHeaderError):
            stencil_from_json_doc([1])

    def test_dot_rejected(self):
        with pytest.raises(IllegalCharacterError):
            parse_stencil("stencil 1 2\n*.\n")

    def test_grid_round_trip(self):
        for seed in range(10):
            H = random_stencil(rng_for(seed), 5, 4)
            assert parse_stencil(to_grid(H)).rows == H.rows
        # Shapes with no rows or no columns; a row of no columns is a blank line.
        for m, n in [(3, 0), (0, 3), (0, 0)]:
            H = Stencil.from_rows([0] * m, n)
            assert parse_stencil(to_grid(H)) == H

    def test_json_round_trip_keeps_labels(self):
        H = Stencil.from_rows([0b01, 0b10], 2, row_labels=[(1, 1), (1, 2)])
        doc = to_json_doc(H)
        back = stencil_from_json_doc(json.loads(json.dumps(doc)))
        assert back == H

    def test_json_parse_via_text(self):
        doc = {"rows": 2, "cols": 2, "stars": [[1, 1], [2, 2]]}
        assert parse_stencil(json.dumps(doc)).rows == (0b01, 0b10)


class TestSubstencil:
    def test_identity_minor(self):
        assert substencil(I3, [1, 2], [1, 2]).rows == (0b01, 0b10)

    def test_d3_minor_is_antidiagonal(self):
        assert substencil(D3, [1, 2], [1, 2]).rows == (0b10, 0b01)

    def test_single_row(self):
        assert substencil(D3, [1], range(1, 4)).rows == (0b110,)

    def test_order_respected(self):
        sub = substencil(I3, [2, 1], [1, 2])
        assert sub.rows == (0b10, 0b01)
        assert sub.row_labels == ((2,), (1,))

    def test_errors(self):
        with pytest.raises(SubsetError):
            substencil(I3, [0], [1])
        with pytest.raises(SubsetError):
            substencil(I3, [1, 1], [1, 2])

    def test_composition(self, rng):
        H = random_stencil(rng, 6, 6)
        once = substencil(H, [2, 4, 5], [1, 3, 6])
        twice = substencil(once, [1, 3], [2, 3])
        direct = substencil(H, [2, 5], [3, 6])
        assert twice.rows == direct.rows


class TestPermute:
    def test_identity(self):
        assert permute(D3, PermutationPair.identity(3, 3)) == D3

    def test_row_swap_gives_identity_pattern(self):
        H = Stencil.from_rows([0b10, 0b01], 2)
        assert permute(H, PermutationPair((2, 1), (1, 2))).rows == (0b01, 0b10)

    def test_size_mismatch(self):
        with pytest.raises(PermutationSizeError):
            permute(D3, PermutationPair.identity(2, 3))

    def test_not_a_bijection(self):
        with pytest.raises(StencilError):
            PermutationPair((1, 1), (1, 2))

    @given(st.integers(0, 2**30), st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_with_inverse(self, seed, rp, cp):
        H = random_stencil(rng_for(seed), 5, 5)
        p = PermutationPair(tuple(rp), tuple(cp))
        assert permute(permute(H, p), inverse(p)) == H


class TestCountStarDiagonals:
    def test_identity(self):
        assert count_star_diagonals(I3) == 1

    def test_all_star(self):
        assert count_star_diagonals(ALLSTAR3) == 6

    def test_derangement_pattern(self):
        assert count_star_diagonals(D3) == 2

    def test_requires_square(self):
        with pytest.raises(StencilError):
            count_star_diagonals(Stencil.from_rows([1], 2))

    def test_side_limit(self):
        big = Stencil.from_rows([0] * 21, 21)
        with pytest.raises(OracleLimitError):
            count_star_diagonals(big)

    @given(st.integers(0, 2**30), st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_permutation_enumeration(self, seed, n):
        M = random_stencil(rng_for(seed), n, n)
        assert count_star_diagonals(M) == permanent_by_permutations(M)

    @given(st.integers(0, 2**30), st.permutations(list(range(1, 5))), st.permutations(list(range(1, 5))))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, seed, rp, cp):
        M = random_stencil(rng_for(seed), 4, 4)
        p = PermutationPair(tuple(rp), tuple(cp))
        assert count_star_diagonals(permute(M, p)) == count_star_diagonals(M)


class TestMatching:
    def test_identity(self):
        assert max_matching_size(I3) == 3

    def test_all_zero(self):
        assert max_matching_size(Stencil.from_rows([0, 0], 3)) == 0

    def test_derangement_pattern(self):
        assert max_matching_size(D3) == 3

    def test_long_augmenting_path_within_recursion_limit(self):
        # Rows {j, j+1} take the diagonal; the last row {1} then needs an
        # augmenting path through every column.  The warm start leaves only
        # that row free, so one breadth-first search from it walks the path.
        n = 400
        M = Stencil.from_rows([0b11 << j for j in range(n - 1)] + [1], n)
        assert greedy_free_rows(M.rows) == [n - 1]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            size = max_matching_size(M)
        finally:
            sys.setrecursionlimit(limit)
        assert size == n

    def test_staircase_3000_matches_quickly(self):
        # The same pattern on 3000 columns: one search walks the whole path
        # over the row masks.
        n = 3000
        M = Stencil.from_rows([0b11 << j for j in range(n - 1)] + [1], n)
        start = time.monotonic()
        assert max_matching_size(M) == n
        assert time.monotonic() - start < 0.2

    @given(st.integers(0, 2**30), st.integers(1, 6), st.integers(1, 6),
           st.sampled_from([0.2, 0.4, 0.6]))
    @settings(max_examples=60, deadline=None)
    def test_matches_substencil_oracle(self, seed, m, n, density):
        # The largest k x k sub-stencil that has a star diagonal.
        M = random_stencil(rng_for(seed), m, n, density)
        oracle = max(
            (k for k in range(1, min(m, n) + 1)
             for rows in combinations(range(1, m + 1), k)
             for cols in combinations(range(1, n + 1), k)
             if count_star_diagonals(substencil(M, rows, cols))),
            default=0,
        )
        assert max_matching_size(M) == oracle

    def test_matches_kuhn_oracle(self):
        # Shapes 0..30 with densities log-uniform in [0.03, 0.5], so empty
        # rows and empty columns are common.  About a quarter of the cases
        # leave the warm start short of the maximum; at least a fifth must,
        # so that the augmenting-path searches are exercised.
        rng = rng_for(20)
        short = 0
        for _ in range(500):
            m, n = (int(x) for x in rng.integers(0, 31, 2))
            density = float(np.exp(rng.uniform(np.log(0.03), np.log(0.5))))
            M = random_stencil(rng, m, n, density)
            want = brute_matching(M.rows, n)
            assert max_matching_size(M) == want
            short += m - len(greedy_free_rows(M.rows)) < want
        assert short >= 100
        # A sparse band up to 200 x 200, about one to four stars per row,
        # in which 20-60% of the columns are never starred: searches from
        # free rows fail there before later ones flip a path.
        for _ in range(40):
            m, n = (int(x) for x in rng.integers(1, 201, 2))
            M = random_stencil(rng, m, n, float(rng.uniform(1, 4)) / n)
            dead = rng.random(n) < rng.uniform(0.2, 0.6)
            live = sum(1 << j for j in range(n) if not dead[j])
            masks = tuple(mask & live for mask in M.rows)
            want = brute_matching(masks, n)
            assert max_matching_size(Stencil.from_rows(masks, n)) == want

    def test_matching_builds_no_adjacency(self):
        # The search walks row masks, not column lists: a list for each of
        # the 1024 rows would take over 6 MB.  Here the warm start already
        # matches all 512 columns.
        H = gen_drgp(512, 2, 0)
        tracemalloc.start()
        try:
            max_matching_size(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19

    @given(st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_at_least_any_star_diagonal(self, seed):
        M = random_stencil(rng_for(seed), 5, 5)
        if count_star_diagonals(M) >= 1:
            assert max_matching_size(M) == 5
