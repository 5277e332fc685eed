"""Family generators: determinism, definitional validation, probes."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import brute_validate_grouped, lcc_zero_rectangle_probe, loop_gen_grouped
from vrank.engine import greedy_lower_bound, visible_rank_exact
from vrank.families import (
    Family,
    FamilyParamError,
    FamilyParams,
    gen_drgp,
    gen_lcc,
    gen_lrc,
    gen_tensor_gap,
    generate,
    row_groups,
    validate_family,
)
from vrank.stencil import Stencil, to_grid

#: sha256 of ``to_grid`` of generator outputs, recorded from samplers that
#: set one entry at a time (as ``loop_gen_grouped`` does); they pin every
#: substream.
GOLDEN_GRIDS = [
    (gen_drgp, (8, 2, 0),
     "38fad68d1b9877400bc5f297cb75bcce1f69933e1c60036584da10e75e0c47db"),
    (gen_drgp, (8, 3, 0),
     "26b5edda061a9efe06a9b50b162796db057554319cab36652682c16ce845e74c"),
    (gen_drgp, (64, 2, 0),
     "29f0317fce5a14bc0d129fd09492ee44a7967ed65f08b31cae9af71b54146b94"),
    (gen_drgp, (64, 3, 0),
     "4b729d93d12580a8e57664c3ee3f10ac6ea25388cc25715fbee6ef94252a126f"),
    (gen_tensor_gap, (16, 2, 0),
     "500c273fdf355c08f50a3eabfea4b5364998b6ffa55a58050a2502ebe372f908"),
    (gen_tensor_gap, (16, 3, 0),
     "9d079ac31793acf78430f91fa57b70e6a08b5b09806d9d5aabbae2e3f441d718"),
    (gen_lcc, (40, 3, 0.05, 0),
     "f4927042fecc11895c61ef2e4bf52cff758eb2f5e7c9653e697dae1487b5bb7b"),
    (gen_lrc, (16, 2, 0),
     "8e5bdf87e4c4510e35e70ae28aadb62f1bf5aa561aa13c049a38da9d91abcbd6"),
    (gen_drgp, (8, 2, 1),
     "bc2b04a404544a276caa45bb857575876134391abc05a249da9c3e7c65bf3dc0"),
    (gen_drgp, (8, 3, 1),
     "8c4e4d387d0e89eccca06b624df851439e6255902f4a7a0d846d4a1cb165e129"),
    (gen_drgp, (64, 2, 1),
     "66200930e9aeb8c59a5c927ba3c63802500bb85a0bc31b7da0f04536e7781be5"),
    (gen_drgp, (64, 3, 1),
     "fbeb30bbef8ddb9b69fcc672e01b8522f13a78d21204a1a0e822b863b1441630"),
    (gen_tensor_gap, (16, 2, 1),
     "493a5f9eded3fe598821fd6dae55bbdcc9c460adb74f96af7de0b788ac400e19"),
    (gen_tensor_gap, (16, 3, 1),
     "5e2ad53e1a778932573aa59fe593c0a5f1e8ce79ef742abf9c1d001b08fae5fd"),
    (gen_lcc, (40, 3, 0.05, 1),
     "bd37da2dcd683215ba109867b6bc1b209dc86721f716107e5334eabee31ee977"),
    (gen_lrc, (16, 2, 1),
     "4c1a07854922c1ca3a6b03dcc6ac3fd2aa2704fcf973a45574685038384cb44e"),
    (gen_drgp, (8, 2, 2),
     "55bd6d106afe7f98f86c1fc2c2d14ef9552fb2e69b871cdd803846001593c996"),
    (gen_drgp, (8, 3, 2),
     "be6a6112de03052485ee83be0dceb566ec47745d62b8d6dfbb0f44303d859171"),
    (gen_drgp, (64, 2, 2),
     "11bf61a74acbc6e5cdf408566b2fc9d28d499b12c149accd128836c3c9e82d57"),
    (gen_drgp, (64, 3, 2),
     "97aab3c80e84b00ca1926549a1590b31b3ac0b9e34950591a8feb176003381cd"),
    (gen_tensor_gap, (16, 2, 2),
     "a5a773b911553cde2fa1a7d17e791bd07ec5bbb2168b640afebb060553a7b4fb"),
    (gen_tensor_gap, (16, 3, 2),
     "59e4d3c795e9322badbeaeb972d846fa9e4cad176d431a052563a9529ab108f7"),
    (gen_lcc, (40, 3, 0.05, 2),
     "3ed6e7865c14777d8eb11048ca56f368d71d4bccd55ef7df0d142b81c66c583c"),
    (gen_lrc, (16, 2, 2),
     "0916707b2b2068d0bf9185cf3f5cef2d1bac532cf815a444115dfa616a62b72f"),
]


class TestParams:
    def test_lrc_range(self):
        with pytest.raises(FamilyParamError):
            FamilyParams(Family.LRC, 4, 0)
        with pytest.raises(FamilyParamError):
            FamilyParams(Family.LRC, 4, 4)

    def test_lcc_constraints(self):
        with pytest.raises(FamilyParamError):
            FamilyParams(Family.LCC, 30, 2, delta=0.1)
        with pytest.raises(FamilyParamError):
            FamilyParams(Family.LCC, 30, 3, delta=1.5)
        with pytest.raises(FamilyParamError):
            FamilyParams(Family.LCC, 10, 3, delta=0.05)  # floor(0.5) = 0
        with pytest.raises(FamilyParamError):
            FamilyParams(Family.LCC, 20, 10, delta=0.1)  # 10*2 > 19

    def test_drgp_t_minimum(self):
        with pytest.raises(FamilyParamError):
            FamilyParams(Family.DRGP, 8, 1)
        with pytest.raises(FamilyParamError):
            FamilyParams(Family.TENSOR_GAP, 8, 1)


    def test_n_minimum(self):
        with pytest.raises(FamilyParamError, match="positive"):
            FamilyParams(Family.LRC, 0, 1)
        with pytest.raises(FamilyParamError, match="at least 2"):
            FamilyParams(Family.DRGP, 1, 2)


class TestDeterminism:
    @given(st.integers(0, 2**60))
    @settings(max_examples=10, deadline=None)
    def test_same_seed_bit_identical(self, seed):
        for make in (
            lambda: gen_lrc(8, 2, seed),
            lambda: gen_lcc(30, 3, 0.1, seed),
            lambda: gen_drgp(8, 2, seed),
            lambda: gen_tensor_gap(8, 3, seed),
        ):
            assert make() == make()

    def test_different_seeds_differ(self):
        assert gen_drgp(16, 2, 0) != gen_drgp(16, 2, 1)

    def test_generate_dispatch(self):
        p = FamilyParams(Family.DRGP, 8, 2, seed=9)
        assert generate(p) == gen_drgp(8, 2, 9)

    @pytest.mark.parametrize(
        "gen, args, digest", GOLDEN_GRIDS,
        ids=[f"{gen.__name__}{args}" for gen, args, _ in GOLDEN_GRIDS],
    )
    def test_golden_grid(self, gen, args, digest):
        assert hashlib.sha256(to_grid(gen(*args)).encode()).hexdigest() == digest

    @given(st.integers(2, 40), st.integers(2, 5), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_grouped_samplers_match_entry_loop(self, n, t, seed):
        assert gen_drgp(n, t, seed) == loop_gen_grouped(Family.DRGP, n, t, seed)
        tensor_gap = Family.DRGP if t == 2 else Family.TENSOR_GAP
        assert gen_tensor_gap(n, t, seed) == loop_gen_grouped(tensor_gap, n, t, seed)

    def test_lcc_default_delta(self):
        p = FamilyParams(Family.LCC, 64, 3, seed=2)
        assert p.delta == 0.05 and p.groups_per_column == 3
        assert generate(p) == gen_lcc(64, 3, 0.05, 2)


class TestLRC:
    def test_validates(self):
        for seed in range(10):
            H = gen_lrc(8, 2, seed)
            assert validate_family(H, FamilyParams(Family.LRC, 8, 2, seed=seed))

    def test_shape(self):
        H = gen_lrc(8, 3, 1)
        assert H.m == H.n == 8
        for i in range(8):
            assert H.rows[i] >> i & 1
            assert H.rows[i].bit_count() == 4

    @pytest.mark.parametrize(
        "rows, n, clause, where",
        [([0b11, 0b11, 0b11], 2, "square n x n", (3, 2)),
         ([0b011, 0b001, 0b110], 3, "star on the diagonal", (2, 2)),
         ([0b011, 0b111, 0b110], 3, "at most ell other stars per row", (2,))],
        ids=["not-square", "no-diagonal-star", "too-many-stars"],
    )
    def test_clauses_flagged(self, rows, n, clause, where):
        report = validate_family(Stencil.from_rows(rows, n), FamilyParams(Family.LRC, n, 1))
        assert (report.ok, report.clause, report.where) == (False, clause, where)

    def test_greedy_guarantee(self):
        for seed in range(10):
            val, _ = greedy_lower_bound(gen_lrc(9, 2, seed))
            assert val >= 3

    def test_full_rows_vrank_one(self):
        H = gen_lrc(5, 4, 0)
        assert all(mask == 0b11111 for mask in H.rows)
        assert visible_rank_exact(H).lower_bound == 1


class TestLCC:
    def test_validates(self):
        for seed in range(5):
            H = gen_lcc(32, 3, 0.1, seed)
            assert validate_family(H, FamilyParams(Family.LCC, 32, 3, delta=0.1, seed=seed))

    def test_exactly_q_plus_one_stars_per_row(self):
        H = gen_lcc(32, 3, 0.1, 7)
        assert all(mask.bit_count() == 4 for mask in H.rows)

    def test_group_disjointness(self):
        H = gen_lcc(32, 3, 0.1, 7)
        pos = {lab: k for k, lab in enumerate(H.row_labels)}
        for i in range(1, 33):
            seen = 0
            for j in range(1, 4):
                others = H.rows[pos[(i, j)]] & ~(1 << (i - 1))
                assert seen & others == 0
                seen |= others

    def test_injected_fat_row_flagged(self):
        H = gen_lcc(32, 3, 0.1, 0)
        masks = list(H.rows)
        free = next(b for b in range(32) if not masks[0] >> b & 1)
        masks[0] |= 1 << free
        # keep disjointness broken only by row width: widen with a column
        # from another of column 1's groups
        bad = Stencil.from_rows(masks, 32, row_labels=H.row_labels)
        rep = validate_family(bad, FamilyParams(Family.LCC, 32, 3, delta=0.1))
        assert not rep


class TestDRGP:
    def test_validates(self):
        for seed in range(10):
            H = gen_drgp(16, 2, seed)
            assert validate_family(H, FamilyParams(Family.DRGP, 16, 2, seed=seed))

    def test_group_column_structure(self):
        H = gen_drgp(10, 3, 5)
        pos = {lab: k for k, lab in enumerate(H.row_labels)}
        for i in range(1, 11):
            rows = [H.rows[pos[(i, s)]] for s in range(1, 4)]
            for j in range(1, 11):
                stars = sum(r >> (j - 1) & 1 for r in rows)
                assert stars == (3 if j == i else 1)

    def test_injected_double_star_flagged(self):
        H = gen_drgp(8, 2, 3)
        masks = list(H.rows)
        pos = {lab: k for k, lab in enumerate(H.row_labels)}
        j = next(j for j in range(1, 8) if masks[pos[(1, 1)]] >> j & 1)
        masks[pos[(1, 2)]] |= 1 << j
        bad = Stencil.from_rows(masks, 8, row_labels=H.row_labels)
        rep = validate_family(bad, FamilyParams(Family.DRGP, 8, 2))
        assert not rep
        assert rep.clause == "at most one star in S_{i,j}"
        assert rep.where == (1, j + 1)


class TestTensorGap:
    def test_t2_identical_to_drgp(self):
        for seed in range(10):
            assert gen_tensor_gap(12, 2, seed) == gen_drgp(12, 2, seed)

    def test_validates(self):
        for seed in range(5):
            H = gen_tensor_gap(12, 3, seed)
            assert validate_family(H, FamilyParams(Family.TENSOR_GAP, 12, 3, seed=seed))

    def test_t3_not_a_drgp(self):
        H = gen_tensor_gap(12, 3, 0)
        assert not validate_family(H, FamilyParams(Family.DRGP, 12, 3))

    def test_exactly_one_zero_per_offdiagonal_group_column(self):
        H = gen_tensor_gap(10, 4, 1)
        pos = {lab: k for k, lab in enumerate(H.row_labels)}
        for i in range(1, 11):
            rows = [H.rows[pos[(i, s)]] for s in range(1, 5)]
            for j in range(1, 11):
                if j == i:
                    continue
                assert sum(r >> (j - 1) & 1 for r in rows) == 3


class TestRowGroups:
    def test_generator_order(self):
        H = gen_drgp(6, 3, 1)
        assert row_groups(H) == [list(H.rows[3 * i:3 * i + 3]) for i in range(6)]

    def test_stored_order_does_not_matter(self):
        H = gen_tensor_gap(6, 3, 2)
        order = np.random.default_rng(0).permutation(H.m)
        P = Stencil.from_rows([H.rows[k] for k in order], H.n,
                              row_labels=[H.row_labels[k] for k in order])
        assert row_groups(P) == row_groups(H)

    @pytest.mark.parametrize(
        "H",
        [Stencil.from_rows([1, 1], 2), Stencil.from_rows([0], 0, row_labels=[(1, 1)]),
         Stencil.from_rows([], 2), Stencil.from_rows([1, 1, 2], 2, [(1, 1), (1, 2), (2, 1)]),
         Stencil.from_rows([1, 1, 2, 2], 2, [(1, 1), (1, 3), (2, 1), (2, 2)]),
         Stencil.from_rows([1, 2], 2, [(1, 1, 1), (2, 1, 1)])],
        ids=["arity-1", "no-columns", "no-rows", "m-not-a-multiple", "label-out-of-range",
             "arity-3"],
    )
    def test_not_grouped(self, H):
        assert row_groups(H) is None


#: (family, n, param, delta) of the instances the validator is diffed on.
DIFF_CASES = [(Family.DRGP, 12, 2, None), (Family.DRGP, 9, 3, None),
              (Family.TENSOR_GAP, 10, 3, None), (Family.TENSOR_GAP, 8, 4, None),
              (Family.LCC, 40, 3, 0.05), (Family.LCC, 30, 3, 0.1)]


class TestValidatorDifferential:
    @pytest.mark.parametrize("fam, n, param, delta", DIFF_CASES,
                             ids=[f"{f.value}-{n}-{p}" for f, n, p, _ in DIFF_CASES])
    def test_matches_nested_loop_oracle(self, fam, n, param, delta):
        """Same (ok, clause, where) as the nested-loop oracle on 1-3-bit
        mutants, half of them with their rows stored in a permuted order,
        checked against the instance's own parameters and against every
        row-grouped family with the same group count."""
        rng = np.random.default_rng([n, param, list(Family).index(fam)])
        own = FamilyParams(fam, n, param, delta=delta)
        t = own.groups_per_column
        checks = [own] + [FamilyParams(f, n, t) for f in (Family.DRGP, Family.TENSOR_GAP)
                          if f is not fam and t >= 2]
        clauses = set()
        for trial in range(150):
            H = generate(FamilyParams(fam, n, param, delta=delta, seed=trial % 5))
            masks = list(H.rows)
            for _ in range(int(rng.integers(1, 4))):
                masks[int(rng.integers(H.m))] ^= 1 << int(rng.integers(H.n))
            order = rng.permutation(H.m) if trial % 2 else range(H.m)
            M = Stencil.from_rows([masks[k] for k in order], H.n,
                                  row_labels=[H.row_labels[k] for k in order])
            for params in checks:
                got, want = validate_family(M, params), brute_validate_grouped(M, params)
                assert (got.ok, got.clause, got.where) == (want.ok, want.clause, want.where)
                clauses.add(got.clause)
        assert "star at ((i,s), i)" in clauses and len(clauses) >= 3

    def test_label_and_shape_clauses(self):
        H = gen_drgp(6, 2, 0)
        cases = [
            (H, FamilyParams(Family.DRGP, 7, 2)),
            (H, FamilyParams(Family.DRGP, 6, 3)),
            (Stencil.from_rows(H.rows, 6, [(1, 1)] + list(H.row_labels[1:-1]) + [(9, 9)]),
             FamilyParams(Family.DRGP, 6, 2)),
        ]
        for M, params in cases:
            got, want = validate_family(M, params), brute_validate_grouped(M, params)
            assert not got and got == want


class TestProbe:
    def test_identity_found_immediately(self):
        In = Stencil.from_rows([1 << i for i in range(16)], 16)
        rep = lcc_zero_rectangle_probe(In, s=8, k=2, trials=100, seed=0)
        assert rep.found and rep.support_size <= 8

    def test_zero_trials_vacuous(self):
        In = Stencil.from_rows([1 << i for i in range(16)], 16)
        rep = lcc_zero_rectangle_probe(In, s=8, k=2, trials=0, seed=0)
        assert not rep.found

    def test_param_check(self):
        In = Stencil.from_rows([1], 1)
        with pytest.raises(FamilyParamError):
            lcc_zero_rectangle_probe(In, s=2, k=2, trials=1, seed=0)

    def test_lcc_typically_not_found(self):
        H = gen_lcc(64, 3, 0.05, 12)
        rep = lcc_zero_rectangle_probe(H, s=8, k=2, trials=2000, seed=0)
        assert not rep.found
