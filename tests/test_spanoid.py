"""Symmetric spanoids: closure, rank, canonical stencil, rank-nullity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import brute_closure, brute_spanoid_rank
from vrank import spanoid
from vrank.engine import visible_rank_exact
from vrank.spanoid import (
    SpanoidError,
    SymmetricSpanoid,
    canonical_stencil,
    rank_nullity_check,
    span_closure,
    spanoid_rank,
)


def random_spanoid(draw, max_n=8, max_m=5):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    sets = [
        draw(st.sets(st.integers(1, n), min_size=1, max_size=n))
        for _ in range(m)
    ]
    return SymmetricSpanoid.from_sets(n, sets)


spanoids = st.composite(random_spanoid)()


class TestConstruction:
    def test_empty_set_rejected(self):
        with pytest.raises(SpanoidError):
            SymmetricSpanoid.from_sets(3, [[]])

    def test_out_of_universe_rejected(self):
        with pytest.raises(SpanoidError):
            SymmetricSpanoid.from_sets(3, [[1, 4]])
        with pytest.raises(SpanoidError):
            SymmetricSpanoid.from_sets(-1, [])

    def test_json_round_trip(self):
        S = SymmetricSpanoid.from_sets(4, [[1, 2], [2, 3, 4]])
        assert SymmetricSpanoid.from_json(S.to_json()) == S


class TestClosure:
    def test_chain(self):
        S = SymmetricSpanoid.from_sets(3, [[1, 2], [2, 3]])
        assert span_closure(S, {2}) == {1, 2, 3}

    def test_full_universe(self):
        S = SymmetricSpanoid.from_sets(3, [[1, 2]])
        assert span_closure(S, {1, 2, 3}) == {1, 2, 3}

    def test_empty_stays_empty(self):
        S = SymmetricSpanoid.from_sets(3, [[1, 2], [2, 3]])
        assert span_closure(S, set()) == set()

    def test_singleton_rule_fires_from_empty(self):
        S = SymmetricSpanoid.from_sets(2, [[1]])
        assert span_closure(S, set()) == {1}

    def test_out_of_range(self):
        S = SymmetricSpanoid.from_sets(2, [[1]])
        with pytest.raises(SpanoidError):
            span_closure(S, {3})

    @given(spanoids, st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_idempotent(self, S, data):
        T1 = data.draw(st.sets(st.integers(1, S.n), max_size=S.n))
        T2 = T1 | data.draw(st.sets(st.integers(1, S.n), max_size=S.n))
        c1, c2 = span_closure(S, T1), span_closure(S, T2)
        assert c1 <= c2
        assert span_closure(S, c1) == c1

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_against_brute_closure(self, data):
        n = data.draw(st.integers(1, 8))
        sets = data.draw(st.lists(st.sets(st.integers(1, n), min_size=1, max_size=min(4, n)), max_size=8))
        S = SymmetricSpanoid.from_sets(n, sets)
        T = data.draw(st.sets(st.integers(1, n), max_size=n))
        assert span_closure(S, T) == brute_closure(S, T)


class TestRank:
    def test_chain_rank_one(self):
        S = SymmetricSpanoid.from_sets(3, [[1, 2], [2, 3]])
        res = spanoid_rank(S)
        assert res.value == 1 and res.exhaustive
        assert span_closure(S, res.basis) == {1, 2, 3}

    def test_no_sets(self):
        res = spanoid_rank(SymmetricSpanoid.from_sets(4, []))
        assert res.value == 4

    def test_all_singletons_rank_zero(self):
        S = SymmetricSpanoid.from_sets(3, [[1], [2], [3]])
        assert spanoid_rank(S).value == 0

    def test_budget_starved_is_sound(self):
        # Greedy bound 2 and matching bound 3 do not close, so the search runs
        # and stops at once: the value is an upper bound witnessed by a basis.
        S = SymmetricSpanoid.from_sets(4, [[1, 2], [3, 4], [2, 3, 4]])
        res = spanoid_rank(S, node_budget=1)
        assert not res.exhaustive
        assert len(res.basis) == res.value
        assert span_closure(S, res.basis) == {1, 2, 3, 4}
        assert res.value >= brute_spanoid_rank(S) == 1

    @pytest.mark.parametrize(
        "n, sets, rank",
        [
            (60, [[2 * k + 1, 2 * k + 2] for k in range(30)], 30),
            (40, [[i, i + 1, i + 2] for i in range(1, 39)], 2),
        ],
        ids=["disjoint-pairs-60", "triple-chain-40"],
    )
    def test_exact_beyond_subset_enumeration(self, n, sets, rank):
        S = SymmetricSpanoid.from_sets(n, sets)
        res = spanoid_rank(S)
        assert res.exhaustive and res.value == rank
        assert span_closure(S, res.basis) == set(range(1, n + 1))

    def test_one_search_per_call(self, monkeypatch):
        calls = []

        def counting(H, **kwargs):
            calls.append(H)
            return visible_rank_exact(H, **kwargs)

        monkeypatch.setattr(spanoid, "visible_rank_exact", counting)
        S = SymmetricSpanoid.from_sets(4, [[1, 2], [3, 4], [2, 3, 4]])
        spanoid_rank(S)
        assert len(calls) == 1
        rank_nullity_check(S)
        assert len(calls) == 2

    @given(st.composite(lambda draw: random_spanoid(draw, max_n=10, max_m=8))())
    @settings(max_examples=100, deadline=None)
    def test_basis_spans(self, S):
        res = spanoid_rank(S)
        assert res.exhaustive
        assert res.value == len(res.basis) == brute_spanoid_rank(S)
        assert span_closure(S, res.basis) == set(range(1, S.n + 1))


class TestCanonicalStencil:
    def test_sets_become_rows(self):
        S = SymmetricSpanoid.from_sets(3, [[1, 2], [2, 3]])
        H = canonical_stencil(S)
        assert H.rows == (0b011, 0b110)

    def test_empty_sets_list(self):
        H = canonical_stencil(SymmetricSpanoid.from_sets(4, []))
        assert H.m == 0 and H.n == 4

    def test_singletons(self):
        H = canonical_stencil(SymmetricSpanoid.from_sets(3, [[2], [1], [3]]))
        assert H.rows == (0b010, 0b001, 0b100)


class TestRankNullity:
    def test_chain_example(self):
        S = SymmetricSpanoid.from_sets(3, [[1, 2], [2, 3]])
        rep = rank_nullity_check(S)
        assert rep.vrank == 2 and rep.spanoid_rank == 1 and rep.identity_holds

    def test_no_sets(self):
        rep = rank_nullity_check(SymmetricSpanoid.from_sets(5, []))
        assert rep.vrank == 0 and rep.spanoid_rank == 5 and rep.identity_holds

    @given(spanoids)
    @settings(max_examples=60, deadline=None)
    def test_identity_always_holds(self, S):
        assert rank_nullity_check(S).identity_holds

    @given(spanoids)
    @settings(max_examples=15, deadline=None)
    def test_column_equivalence(self, S):
        rep = rank_nullity_check(S, check_columns=True)
        assert rep.column_equivalence_checked and rep.column_equivalence_holds
