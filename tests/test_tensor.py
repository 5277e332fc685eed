"""Tensor products and powers, implicit certificates, distinct rank, capacity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import (
    brute_distinct_rank,
    brute_vrank,
    is_distinctly_full_rank,
    random_stencil,
    rng_for,
)
import vrank.engine as engine
import vrank.gf as gf
import vrank.tensor as tensor
from vrank.engine import (
    PROV_WITNESS,
    DEFAULT_NODE_BUDGET,
    DiagonalCertificate,
    is_visibly_full_rank,
    visible_rank_exact,
)
from vrank.families import gen_drgp, gen_lrc, gen_tensor_gap
from vrank.stencil import PermutationPair, Stencil, StencilError, SubsetError, substencil
from vrank.tensor import (
    TensorSizeError,
    capacity_lower_bound,
    diagonal_tensor_certificate,
    distinct_rank_exact,
    tensor_certificate,
    tensor_power,
    tensor_power_vrank,
    tensor_product,
)

I2 = Stencil.from_rows([1, 2], 2)
I3 = Stencil.from_rows([1, 2, 4], 3)
D2 = Stencil.from_rows([0b10, 0b01], 2)
D3 = Stencil.from_rows([0b110, 0b101, 0b011], 3)
UNIT = Stencil.from_rows([1], 1)
L3 = Stencil.from_rows([0b001, 0b011, 0b111], 3)


class TestProduct:
    def test_identity_product(self):
        P = tensor_product(I2, I2)
        assert P.m == P.n == 4
        assert P.rows == (1, 2, 4, 8)

    def test_unit_element(self):
        P = tensor_product(D3, UNIT)
        assert P.rows == D3.rows
        assert P.row_labels[0] == (1, 1)

    def test_d2_squared_entrywise_rule(self):
        P = tensor_product(D2, D2)
        for a1 in range(1, 3):
            for a2 in range(1, 3):
                for b1 in range(1, 3):
                    for b2 in range(1, 3):
                        want = a1 != b1 and a2 != b2
                        assert P.star((a1 - 1) * 2 + a2, (b1 - 1) * 2 + b2) == want

    @given(st.data(), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_entrywise_rule(self, data, n1, n2):
        # Any shapes, n2 = 1 and stencils without rows or with empty rows
        # among them, in the module's row-major order.
        H1, H2 = (
            Stencil.from_rows(data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4)), n)
            for n in (n1, n2)
        )
        P = tensor_product(H1, H2)
        assert (P.m, P.n) == (H1.m * H2.m, n1 * n2)
        assert P.rows == tuple(
            sum(1 << (b1 * n2 + b2) for b1 in range(n1) for b2 in range(n2)
                if m1 >> b1 & 1 and m2 >> b2 & 1)
            for m1 in H1.rows for m2 in H2.rows
        )
        assert P.row_labels == tuple(a + b for a in H1.row_labels for b in H2.row_labels)
        assert P.col_labels == tuple(a + b for a in H1.col_labels for b in H2.col_labels)

    def test_labels_concatenate(self):
        P = tensor_product(I2, I2)
        assert P.row_labels == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_size_limit(self):
        H = random_stencil(rng_for(0), 20, 20)
        with pytest.raises(TensorSizeError):
            tensor_product(H, H, max_entries=1000)


class TestPower:
    def test_power_one(self):
        assert tensor_power(D3, 1) == D3

    def test_power_one_past_the_entry_limit(self):
        # 512 x 256 = 131,072 entries: level 1 is H itself at any size.
        H = gen_drgp(256, 2, 0)
        assert tensor_power(H, 1) == H

    def test_power_checks(self):
        with pytest.raises(StencilError, match="k >= 1"):
            tensor_power(D3, 0)
        with pytest.raises(TensorSizeError):
            tensor_power(D3, 3, max_entries=9**3 - 1)

    def test_identity_cubed(self):
        P = tensor_power(I2, 3)
        assert P.rows == tuple(1 << i for i in range(8))

    def test_supermultiplicative_example(self):
        v2 = visible_rank_exact(tensor_power(D3, 2)).lower_bound
        assert v2 >= 4


class TestTensorLaws:
    @given(st.integers(0, 2**30), st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_super_and_sub_bounds(self, seed, n1, n2):
        r = rng_for(seed)
        H1 = random_stencil(r, n1, n1)
        H2 = random_stencil(r, n2, n2)
        v1 = visible_rank_exact(H1).lower_bound
        v2 = visible_rank_exact(H2).lower_bound
        P = tensor_product(H1, H2)
        vp = visible_rank_exact(P)
        assert vp.exact
        assert v1 * v2 <= vp.lower_bound <= v1 * n2

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_power_bound(self, seed):
        H = random_stencil(rng_for(seed), 4, 4)
        v = visible_rank_exact(H).lower_bound
        v2 = visible_rank_exact(tensor_power(H, 2)).lower_bound
        assert v2 <= 4 * v

    @given(st.integers(0, 2**30))
    @settings(max_examples=20, deadline=None)
    def test_certificate_tensoring(self, seed):
        r = rng_for(seed)
        H1 = random_stencil(r, 4, 4)
        H2 = random_stencil(r, 3, 3)
        c1 = visible_rank_exact(H1).certificate
        c2 = visible_rank_exact(H2).certificate
        if c1.size and c2.size:
            P = tensor_product(H1, H2)
            cp = tensor_certificate(H1, c1, H2, c2)
            assert cp.size == c1.size * c2.size
            assert cp.verify(P)


class TestTensorCertificate:
    def test_permuted_factors(self):
        # Peeling presents a lower-triangular pattern through its permutations.
        _, c = is_visibly_full_rank(L3)
        assert c.perm_pair.row_perm != (1, 2, 3)
        cp = tensor_certificate(L3, c, L3, c)
        assert cp.size == 9 and cp.verify(tensor_product(L3, L3))

    @pytest.mark.parametrize(
        "H, rows, cols",
        [(D3, (1, 2), (1, 2)), (L3, (1, 2, 3), (1, 2, 3))],
        ids=["no-star-on-pivot", "lower-triangular"],
    )
    def test_rejects_non_triangular_factor(self, H, rows, cols):
        r = len(rows)
        peel = tuple((k, k) for k in range(r, 0, -1))
        bad = DiagonalCertificate(rows, cols, PermutationPair.identity(r, r), peel)
        good = visible_rank_exact(H).certificate
        for args in ((H, bad, H, good), (H, good, H, bad)):
            with pytest.raises(StencilError):
                tensor_certificate(*args)

    def test_rejects_permutation_longer_than_subset(self):
        good = visible_rank_exact(D3).certificate
        bad = DiagonalCertificate((1,), (2, 3), PermutationPair((1, 2), (1, 2)), ((1, 1),))
        with pytest.raises(StencilError):
            tensor_certificate(D3, bad, D3, good)
        assert not bad.verify(D3)

    def test_rejects_out_of_range_factor(self):
        good = visible_rank_exact(D3).certificate
        out = DiagonalCertificate((4,), (1,), PermutationPair.identity(1, 1), ((1, 1),))
        with pytest.raises(SubsetError):
            tensor_certificate(D3, good, D3, out)


class TestDiagonalCertificate:
    def test_drgp_identity(self):
        for seed in range(5):
            H = gen_drgp(12, 2, seed)
            sub, ident = diagonal_tensor_certificate(H, 2)
            assert ident and sub.m == sub.n == 12

    def test_tensor_gap_identity(self):
        H = gen_tensor_gap(16, 3, 4)
        _, ident = diagonal_tensor_certificate(H, 3)
        assert ident

    def test_matches_materialized_substencil(self):
        from vrank.stencil import substencil

        H = gen_drgp(4, 2, 11)
        sub, _ = diagonal_tensor_certificate(H, 2)
        P = tensor_power(H, 2)
        rows = [P.row_labels.index(lab) + 1 for lab in sub.row_labels]
        cols = [P.col_labels.index(lab) + 1 for lab in sub.col_labels]
        assert substencil(P, rows, cols).rows == sub.rows

    def test_injected_star_breaks_flag(self):
        H = gen_drgp(6, 2, 3)
        # Double-star the pair S_{1,j} for some off-diagonal j with the star
        # currently in row (1,1): the AND picks it up.
        masks = list(H.rows)
        pos = {lab: k for k, lab in enumerate(H.row_labels)}
        r1, r2 = pos[(1, 1)], pos[(1, 2)]
        if not any(masks[r1] >> j & 1 for j in range(1, 6)):
            r1, r2 = r2, r1
        j = next(j for j in range(1, 6) if masks[r1] >> j & 1)
        masks[r2] |= 1 << j
        bad = Stencil.from_rows(masks, H.n, row_labels=H.row_labels)
        sub, ident = diagonal_tensor_certificate(bad, 2)
        assert not ident
        assert sub.star(1, j + 1)

    def test_stored_row_order_does_not_matter(self):
        H = gen_tensor_gap(6, 3, 1)
        order = [5, 0, 17, 3, 9, 1, 12, 2, 8, 4, 16, 6, 11, 7, 15, 10, 14, 13]
        P = Stencil.from_rows([H.rows[k] for k in order], H.n,
                              row_labels=[H.row_labels[k] for k in order])
        for t in (1, 2, 3):
            assert diagonal_tensor_certificate(P, t) == diagonal_tensor_certificate(H, t)

    def test_wrong_shape_rejected(self):
        with pytest.raises(StencilError):
            diagonal_tensor_certificate(D3, 2)


class TestDistinctRank:
    def test_level1_equals_vrank(self):
        for seed in range(5):
            H = random_stencil(rng_for(seed), 4, 4)
            assert distinct_rank_exact(H, 1).value == visible_rank_exact(H).lower_bound

    def test_i2_level2(self):
        res = distinct_rank_exact(I2, 2)
        assert res.value == 2 and res.exhaustive
        assert res.certificate.verify(tensor_power(I2, 2))

    def test_disjointness_detector(self):
        shared = Stencil.from_rows([1, 2], 2, row_labels=[(1, 2), (2, 3)])
        assert not is_distinctly_full_rank(shared)
        ok = Stencil.from_rows([1, 2], 2, row_labels=[(1, 1), (2, 2)], col_labels=[(1, 1), (2, 2)])
        assert is_distinctly_full_rank(ok)

    def test_not_vfr_fails(self):
        assert not is_distinctly_full_rank(Stencil.from_rows([0b11, 0b11], 2))

    @given(st.integers(0, 2**30))
    @settings(max_examples=15, deadline=None)
    def test_drk_at_most_vrk(self, seed):
        H = random_stencil(rng_for(seed), 3, 3)
        P = tensor_power(H, 2)
        assert distinct_rank_exact(H, 2).value <= visible_rank_exact(P).lower_bound

    def test_matches_recursive_oracle(self):
        # Two-value row labels over {1, ..., 4} overlap; each column label is
        # either plain (a value of its own) or a pair over {1, 2, 3}.
        rng = rng_for(20261018)
        row_pairs = [(a, b) for a in range(1, 5) for b in range(1, 5)]
        col_pairs = [(a, b) for a in range(1, 4) for b in range(1, 4)]
        for _ in range(200):
            m, n = (int(x) for x in rng.integers(2, 5, size=2))
            H = random_stencil(rng, m, n)
            row_labels = [row_pairs[i] for i in rng.permutation(len(row_pairs))[:m]]
            shared = iter(col_pairs[i] for i in rng.permutation(len(col_pairs)))
            col_labels = [
                next(shared) if rng.random() < 0.5 else (10 + j, 10 + j) for j in range(n)
            ]
            H = Stencil.from_rows(H.rows, n, row_labels, col_labels)
            res = distinct_rank_exact(H, 2)
            assert (res.value, res.exhaustive) == brute_distinct_rank(H, 2)
            P = tensor_power(H, 2)
            cert = res.certificate
            assert cert.size == res.value and cert.verify(P)
            assert is_distinctly_full_rank(substencil(P, cert.row_subset, cert.col_subset))

    def test_lrc_square_within_node_budget(self):
        res = distinct_rank_exact(gen_lrc(6, 2, 0), 2, node_budget=100_000)
        assert res.exhaustive and res.value == 5


class TestCapacity:
    def test_identity(self):
        est = capacity_lower_bound(I2, 3)
        assert est.best == 2.0

    def test_per_level_at_least_first_power(self):
        H = random_stencil(rng_for(7), 4, 4)
        est = capacity_lower_bound(H, 2)
        lb1, _ = est.per_level[1]
        lb2, _ = est.per_level[2]
        assert lb2 >= lb1**2
        assert est.best >= lb1

    def test_drgp_sqrt_n(self):
        H = gen_drgp(9, 2, 2)
        est = capacity_lower_bound(H, 2, max_entries=1)
        lb2, _ = est.per_level[2]
        assert lb2 >= 9
        assert est.best >= 3.0

    def test_all_zero(self):
        est = capacity_lower_bound(Stencil.from_rows([0, 0], 2), 3)
        assert est.per_level == {1: (0, True), 2: (0, True), 3: (0, True)}

    def test_levels_past_float_range(self):
        # 3^k is past the float range from k = 647 on.  Every level is a k-th
        # power, so its root is exact, where the float root of level 91 is
        # one ulp above 3.
        est = capacity_lower_bound(I3, 700)
        assert est.per_level[700] == (3**700, True)
        assert max((3**k) ** (1.0 / k) for k in range(1, 647)) == 3.0000000000000004
        assert est.best == 3.0
        assert tensor._root(3**700, 700) == 3.0
        assert tensor._root(3**700 + 1, 700) == pytest.approx(3.0)

    def test_levels_share_the_callers_deadline(self, monkeypatch):
        # A clock that moves 20 ms at each reading puts level 2 past the
        # caller's 10 ms deadline; no level's budget may run beyond it.
        class Clock:
            now = 0.0

            def monotonic(self):
                self.now += 0.02
                return self.now

        clock, ends = Clock(), []
        search = engine.visible_rank_exact

        def recording(H, **kwargs):
            ends.append(clock.now + kwargs["time_budget"])
            return search(H, **kwargs)

        monkeypatch.setattr(tensor, "time", clock)
        monkeypatch.setattr(engine, "visible_rank_exact", recording)
        # vrk 6 and witness rank 7, so level 2 needs a search.
        est = capacity_lower_bound(gen_drgp(8, 2, 0), 2, time_budget=0.01)
        assert len(ends) == 2 and max(ends) <= 0.02 + 0.01 + 1e-9
        # Level 2 stops at once and keeps its tensored seed, 6^2.
        assert est.per_level[2] == (36, False) and 36 < est.upper[2] <= 49

    def test_json_keyed_by_level(self):
        est = capacity_lower_bound(I2, 2)
        assert set(est.to_json()["per_level"]) == {"1", "2"}

    def test_json_level_bracket(self):
        doc = capacity_lower_bound(gen_drgp(6, 2, 0), 2).to_json()["per_level"]
        assert doc["1"] == {"lower": 5, "upper": 5, "exact": True}
        assert doc["2"] == {"lower": 25, "upper": 25, "exact": True}


def reversal_search(H: Stencil, k: int) -> int:
    """vrk(H^(xk)) by the public search, which reads the factor reversal off
    the power's column labels, checked against the bare search of the same
    power from 0 without the reversal and with it; every certificate must
    replay."""
    P = tensor_power(H, k)
    res = visible_rank_exact(P)
    assert res.exact and res.certificate.verify(P)
    flip = engine._label_flip(P)
    assert flip is not None
    for f in (None, flip):
        value, pairs, completed = engine._urm_search(
            list(P.rows), P.n, 0, DEFAULT_NODE_BUDGET, None, flip=f
        )
        assert completed and value == res.lower_bound
        cert = engine._certificate_from_sequence(P, pairs or [])
        assert cert.size == value and cert.verify(P)
    return value


def cyclic_pairs(n: int) -> Stencil:
    """n x n, row i missing columns i and i + 1 (mod n): vrk 3, polynomial
    witness rank 3, stopping-set witness rank n - 1."""
    full = (1 << n) - 1
    return Stencil.from_rows([full & ~(1 << i | 1 << (i + 1) % n) for i in range(n)], n)


class TestWitnessBound:
    def test_level_two_closed_without_search(self, monkeypatch):
        # The stopping-set witness has rank 5 = vrk, so 5^2 meets the
        # tensored seed.  The greedy bound 4 is below every witness rank, so
        # each call builds and validates all four witnesses.
        calls, checked = [], []
        search, validate = engine._urm_search, tensor.validate_witness

        def counting(masks, n, *args, **kwargs):
            calls.append(n)
            return search(masks, n, *args, **kwargs)

        def recording(W):
            checked.append(validate(W))
            return checked[-1]

        monkeypatch.setattr(engine, "_urm_search", counting)
        monkeypatch.setattr(tensor, "validate_witness", recording)
        for seed in (0, 4, 5):
            H = gen_drgp(6, 2, seed)
            est = capacity_lower_bound(H, 2)
            assert est.per_level == {1: (5, True), 2: (25, True)}
            assert est.upper == {1: 5, 2: 25}
            res = tensor_power_vrank(H, 2)
            assert res.exact and res.lower_bound == 25
        assert H.n * H.n not in calls
        assert checked == [(True, None)] * 24

    @pytest.mark.parametrize(
        "H, builds",
        [(gen_drgp(4, 2, 0), 0), (gen_drgp(6, 2, 0), 3), (gen_drgp(8, 2, 0), 3),
         (cyclic_pairs(8), 1)],
        ids=["drgp4s0", "drgp6s0", "drgp8s0", "cyclic8"],
    )
    def test_polynomial_witnesses_only_above_greedy(self, monkeypatch, H, builds):
        # DRGP-4 seed 0: greedy bound 3 = stopping-set rank.  DRGP-6 and -8
        # seed 0: greedy bound 4 below every rank.  cyclic_pairs(8): greedy
        # bound 3 = the first polynomial rank.
        built = []
        build = tensor.low_rank_witness

        def counting(H, p):
            built.append(p)
            return build(H, p)

        monkeypatch.setattr(tensor, "low_rank_witness", counting)
        # 200 nodes prove level 1 of each; a level-2 search stops on them.
        (res1, _), _ = tensor._power_searches(H, 2, 200, None, tensor.DEFAULT_MAX_ENTRIES)
        assert res1.exact and len(built) == builds

    def test_polynomial_witness_closes_level_one(self, monkeypatch):
        # The stopping-set witness rank 7 is above the greedy bound 3, so the
        # polynomial witness, rank 3, is built before level 1 and closes it
        # with no search, as 3^2 closes level 2.
        monkeypatch.setattr(engine, "_urm_search", None)
        H = cyclic_pairs(8)
        (res1, res2), w = tensor._power_searches(H, 2, 0, None, tensor.DEFAULT_MAX_ENTRIES)
        assert w == 3 and (res1.lower_bound, res1.upper_bound) == (3, 3)
        assert res1.exact and res1.upper_provenance == PROV_WITNESS
        assert res2.exact and res2.lower_bound == 9
        assert capacity_lower_bound(H, 3, node_budget=0, max_entries=1 << 12).upper == {
            1: 3, 2: 9, 3: 27,
        }

    def test_invalid_witness_raises(self, monkeypatch):
        def broken(H, p):
            W = gf.stopping_set_witness(H, p)
            return gf.WitnessMatrix(p, ((0,) * H.n,) + W.entries[1:], H)

        monkeypatch.setattr(tensor, "stopping_set_witness", broken)
        with pytest.raises(StencilError, match="misses the star pattern"):
            capacity_lower_bound(gen_drgp(6, 2, 0), 2)

    def test_tensor_power_vrank_reports_witness(self):
        H = gen_drgp(6, 2, 5)
        res = tensor_power_vrank(H, 2)
        assert res.exact and res.upper_provenance == PROV_WITNESS
        assert res.lower_bound == 25 and res.certificate.verify(tensor_power(H, 2))

    @given(st.integers(0, 2**30), st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_level_two_matches_plain(self, seed, m, n):
        H = random_stencil(rng_for(seed), m, n)
        P = tensor_power(H, 2)
        plain = visible_rank_exact(P)
        lb, exact = capacity_lower_bound(H, 2).per_level[2]
        res = tensor_power_vrank(H, 2)
        assert plain.exact and exact and res.exact
        assert lb == res.lower_bound == plain.lower_bound == reversal_search(H, 2)
        assert res.certificate.verify(P) and plain.certificate.verify(P)
        if P.m * P.n <= 36:
            assert plain.lower_bound == brute_vrank(P)

    def test_unsearched_level_exact_at_witness_power(self):
        # DRGP-4 seed 0 has vrk 3 and witness rank 3; H^(x3) has 32^3 entries.
        est = capacity_lower_bound(gen_drgp(4, 2, 0), 3, max_entries=2000)
        assert est.per_level[3] == (27, True) and est.upper[3] == 27

    def test_no_witness_without_a_second_level(self, monkeypatch):
        monkeypatch.setattr(tensor, "low_rank_witness", None)
        monkeypatch.setattr(tensor, "stopping_set_witness", None)
        H = gen_drgp(9, 2, 2)
        est = capacity_lower_bound(H, 2, max_entries=1)
        assert est.upper == {1: est.per_level[1][0], 2: 81}
        assert capacity_lower_bound(H, 1).upper[1] == est.upper[1]


class TestPowerVrank:
    def test_seeded_matches_plain(self):
        for seed in range(3):
            H = random_stencil(rng_for(seed), 4, 4)
            a = tensor_power_vrank(H, 2)
            b = visible_rank_exact(tensor_power(H, 2))
            assert a.exact and b.exact and a.lower_bound == b.lower_bound == reversal_search(H, 2)

    def test_level_three_matches_capacity_and_plain(self):
        for seed in range(6):
            for n in (2, 3):
                H = random_stencil(rng_for(seed), n, n)
                a = tensor_power_vrank(H, 3)
                lb, exact = capacity_lower_bound(H, 3).per_level[3]
                b = visible_rank_exact(tensor_power(H, 3))
                assert a.exact and exact and b.exact
                assert a.lower_bound == lb == b.lower_bound == reversal_search(H, 3)
                assert a.certificate.verify(tensor_power(H, 3))


def tagged(H: Stencil) -> Stencil:
    """H with column j labeled (j, 7)."""
    return Stencil.from_rows(list(H.rows), H.n, H.row_labels, [(j, 7) for j in range(1, H.n + 1)])


def images(flip, n: int) -> list[int]:
    """The 0-based column images of a column-mask map."""
    return [flip(1 << c).bit_length() - 1 for c in range(n)]


def search_checked(H: Stencil) -> int:
    """vrk(H) by the public search, and by the bare search from 0 under the
    symmetry ``_label_flip`` derives, each checked against the brute-force
    oracle; every certificate must replay."""
    value = brute_vrank(H)
    res = visible_rank_exact(H)
    assert res.exact and res.lower_bound == value and res.certificate.verify(H)
    found, pairs, completed = engine._urm_search(
        list(H.rows), H.n, 0, DEFAULT_NODE_BUDGET, None, flip=engine._label_flip(H)
    )
    cert = engine._certificate_from_sequence(H, pairs or [])
    assert completed and found == cert.size == value and cert.verify(H)
    return value


class TestReversalSymmetry:
    def test_reversal_maps_the_power_onto_itself(self):
        # H^(x3)'s labels are (c1, c2, c3): the search takes the factor
        # reversal, (c1, c2, c3) -> (c3, c2, c1).
        H = random_stencil(rng_for(3), 3, 4)
        P = tensor_power(H, 3)
        flip = engine._label_flip(P)
        sym = images(flip, P.n)
        assert sym[(1 * 4 + 2) * 4 + 3] == (3 * 4 + 2) * 4 + 1
        assert all(P.col_labels[sym[c]] == P.col_labels[c][::-1] for c in range(P.n))
        assert all(sym[sym[c]] == c for c in range(P.n))
        moved = [sum(1 << sym[c] for c in range(P.n) if mask >> c & 1) for mask in P.rows]
        assert moved == [flip(mask) for mask in P.rows] and sorted(moved) == sorted(P.rows)

    def test_tagged_labels_take_the_block_reversal(self):
        # The square's labels are (j, 7, j', 7), whose reversal (7, j', 7, j)
        # is no label, so the search takes the reversal of blocks of two.
        P = tensor_power(tagged(random_stencil(rng_for(3), 3, 4)), 2)
        sym = images(engine._label_flip(P), P.n)
        assert all(P.col_labels[sym[c]] == P.col_labels[c][2:] + P.col_labels[c][:2]
                   for c in range(P.n))

    @pytest.mark.parametrize(
        "n, seed", [(4, s) for s in range(6)] + [(5, s) for s in range(6)] + [(6, 0), (6, 4)]
    )
    def test_drgp_squares_match_plain(self, n, seed):
        # Of these only DRGP-4 has a cube within the entry limit, and neither
        # search of its 512 x 64 cube completes unseeded within the default
        # node budget.
        reversal_search(gen_drgp(n, 2, seed), 2)

    def test_reversal_that_is_no_automorphism_not_applied(self):
        # Labels (i, j) over [4] x [4] are closed under reversal, but the
        # rows of DRGP-16 seed 0 are not closed under it: the search runs as
        # with 1-tuple labels, to the node, proving 9 in 36 nodes.
        H = gen_drgp(16, 2, 0)
        pairs = [(i, j) for i in range(1, 5) for j in range(1, 5)]
        L = Stencil.from_rows(list(H.rows), H.n, H.row_labels, pairs)
        assert engine._label_flip(L) is None
        for budget in (35, 36):
            res = visible_rank_exact(L, node_budget=budget)
            assert res == visible_rank_exact(H, node_budget=budget)
            assert res.exact == (budget == 36) and res.lower_bound == 9

    @given(st.integers(0, 2**30), st.integers(1, 3), st.integers(1, 3), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_squares_match_oracle(self, seed, m, n, tag):
        # 1-tuple base labels give the reversal of single entries, (j, 7)
        # ones that of blocks of two; either is the factor reversal, which
        # maps every tensor square onto itself.
        H = random_stencil(rng_for(seed), m, n)
        P = tensor_power(tagged(H) if tag else H, 2)
        assert engine._label_flip(P) is not None
        search_checked(P)

    @given(
        st.integers(0, 2**30),
        st.integers(1, 3),
        st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=9,
                 unique=True),
        st.sampled_from(["open", "closed", "symmetric"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_pair_labels_match_oracle(self, seed, m, labels, kind):
        # Columns labeled by distinct pairs: the reversal applies iff it maps
        # the labels onto the labels and the rows onto the rows.  "closed"
        # closes the labels under it, "symmetric" the rows as well.
        if kind != "open":
            labels = sorted(set(labels) | {lab[::-1] for lab in labels})
        n = len(labels)
        sym = [labels.index(lab[::-1]) if lab[::-1] in labels else None for lab in labels]
        rows = list(random_stencil(rng_for(seed), m, n).rows)

        def moved(mask):
            return sum(1 << sym[c] for c in range(n) if mask >> c & 1)

        if kind == "symmetric":
            rows += [moved(mask) for mask in rows]
        applies = None not in sym and set(map(moved, rows)) == set(rows)
        H = Stencil.from_rows(rows, n, None, labels)
        assert (engine._label_flip(H) is not None) == applies
        search_checked(H)

    def test_value_search_refuses_symmetry(self):
        P = tensor_power(I2, 2)
        vals = tensor._value_masks(P.row_labels)
        flip = engine._label_flip(P)
        assert flip is not None
        with pytest.raises(StencilError, match="value search"):
            engine._urm_search(list(P.rows), P.n, 0, DEFAULT_NODE_BUDGET, None,
                               vals, vals, flip=flip)
