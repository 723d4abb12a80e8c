"""Hot-path cache behavior: LRU bounds, fold caches, plan cache, decode.

These tests pin down the invariants the caching layers must keep:

* every cache is bounded (LRU eviction actually happens);
* BitMat fold caches survive ``unfold`` only when still exact;
* ``unfold`` returns ``self`` on a no-op so fold/transpose caches stay
  warm, and the incrementally-maintained transpose stays equal to a
  from-scratch rebuild;
* the decode cache keeps S and O ids independent outside ``V_so`` and
  identical inside it;
* the plan cache never shares pruned state between queries that differ
  only in a constant, and cache hits are byte-identical to cold runs.
"""

from __future__ import annotations

import pytest

from repro import BitMatStore, Graph, LBREngine, NaiveEngine, Triple, URI
from repro.bitmat.bitmat import BitMat
from repro.bitmat.bitvec import BitVector
from repro.lru import LRUCache

from .conftest import EX, FIGURE_3_2, FIGURE_3_2_QUERY, triples, uri


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", 0) == 0

    def test_eviction_bound(self):
        cache = LRUCache(3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3
        assert cache.evictions == 7
        assert list(cache) == [7, 8, 9]

    def test_recency_on_get(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh: "b" is now the eviction victim
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_put_refreshes_existing(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)
        assert cache.get("a") == 10 and "b" not in cache

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert len(cache) == 0 and cache.get("a") is None

    def test_stats_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["capacity"] == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)


def _matrix() -> BitMat:
    return BitMat.from_pairs(6, 6, [(1, 1), (1, 3), (2, 2), (4, 1), (4, 5)])


class TestFoldCaches:
    def test_unfold_noop_returns_self(self):
        matrix = _matrix()
        full_rows = BitVector.full(6)
        full_cols = BitVector.full(6)
        assert matrix.unfold(full_rows, "row") is matrix
        assert matrix.unfold(full_cols, "col") is matrix

    def test_row_unfold_keeps_row_fold_exact(self):
        matrix = _matrix()
        matrix.fold("row")  # warm the cache
        pruned = matrix.unfold(BitVector.from_positions(6, [1, 2]), "row")
        assert pruned.fold("row") == BitVector.from_positions(6, [1, 2])

    def test_row_unfold_invalidates_col_fold(self):
        matrix = _matrix()
        matrix.fold("col")  # warm: {1, 2, 3, 5}
        pruned = matrix.unfold(BitVector.from_positions(6, [1, 2]), "row")
        # cols contributed only by dropped row 4 must disappear
        assert pruned.fold("col") == BitVector.from_positions(6, [1, 2, 3])

    def test_col_unfold_keeps_col_fold_exact(self):
        matrix = _matrix()
        matrix.fold("col")  # warm
        pruned = matrix.unfold(BitVector.from_positions(6, [1, 2]), "col")
        assert pruned.fold("col") == BitVector.from_positions(6, [1, 2])
        # row 4's only surviving bit is col 1; row fold recomputed fresh
        assert pruned.fold("row") == BitVector.from_positions(6, [1, 2, 4])

    def test_col_unfold_shares_unchanged_rows(self):
        matrix = _matrix()
        keep = BitVector.from_positions(6, [1, 2, 3, 5])  # clears nothing
        assert matrix.unfold(keep, "col") is matrix
        partial = matrix.unfold(BitVector.from_positions(6, [2, 3]), "col")
        # row 1 loses col 1 (changed); row 2 keeps its single bit 2 and
        # must be the *same* object so its caches stay warm
        assert partial.get_row(2) is matrix.get_row(2)

    def test_unfold_equals_reference_semantics(self):
        matrix = _matrix()
        mask = BitVector.from_positions(6, [1, 5])
        pruned = matrix.unfold(mask, "col")
        expected = {(r, c) for r, c in matrix.iter_pairs() if c in (1, 5)}
        assert set(pruned.iter_pairs()) == expected


class TestIncrementalTranspose:
    def _state(self):
        from repro.core.tp import TPState
        from repro.sparql import parse_query
        graph = Graph(triples(("a", "p", "b"), ("a", "p", "c"),
                              ("b", "p", "c"), ("c", "p", "a")))
        store = BitMatStore.build(graph)
        query = f"PREFIX ex: <{EX}> SELECT * WHERE {{ ?x ex:p ?y }}"
        pattern = parse_query(query).pattern.triple_patterns()[0]
        return TPState.load(0, pattern, store), store

    def test_transpose_maintained_through_unfold(self):
        state, store = self._state()
        warm = state.transpose()  # build the cache
        mask = state.fold(state.row_var)
        some_row = mask.first()
        pruned_mask = BitVector.from_positions(mask.size, [some_row])
        assert state.unfold(state.row_var, pruned_mask)
        rebuilt = state.matrix.transpose()
        assert state.transpose() == rebuilt
        assert state.transpose() is not warm  # it was masked, not stale

    def test_noop_unfold_keeps_transpose_object(self):
        state, store = self._state()
        warm = state.transpose()
        assert not state.unfold(state.row_var, state.fold(state.row_var))
        assert state.transpose() is warm


class TestStoreCaches:
    def test_row_cache_correct_and_bounded(self):
        graph = Graph(triples(*FIGURE_3_2))
        store = BitMatStore.build(graph)
        pid = store.encode_term(uri("actedIn"), "p")
        oid = store.encode_term(uri("CurbYourEnthu"), "o")
        first = store.load_ps_row(pid, oid)
        again = store.load_ps_row(pid, oid)
        assert again is first  # cache hit returns the shared vector
        stats = store.cache_stats()
        assert stats["rows"]["hits"] >= 1
        for family in stats.values():
            assert family["size"] <= family["capacity"]

    def test_entity_cache_hits(self):
        graph = Graph(triples(*FIGURE_3_2))
        store = BitMatStore.build(graph)
        sid = store.encode_term(uri("Jerry"), "s")
        assert store.load_po(sid) is store.load_po(sid)

    def test_matrix_caches_are_lru(self):
        from repro.bitmat import store as store_module
        graph = Graph(triples(*FIGURE_3_2))
        store = BitMatStore.build(graph)
        assert store._so_cache.capacity == store_module.MATRIX_CACHE_SIZE
        for pid in store.source.pids():
            store.load_so(pid)
        assert len(store._so_cache) <= store._so_cache.capacity


class TestDecodeCache:
    def test_shared_ids_decode_per_space(self):
        # CurbYourEnthu appears as subject and object: shared V_so id
        graph = Graph(triples(*FIGURE_3_2))
        store = BitMatStore.build(graph)
        dictionary = store.dictionary
        shared_id = dictionary.subject_id(uri("CurbYourEnthu"))
        assert dictionary.is_shared_id(shared_id)
        assert dictionary.decode("s", shared_id) == uri("CurbYourEnthu")
        assert dictionary.decode("o", shared_id) == uri("CurbYourEnthu")
        # outside V_so the same integer denotes different terms
        jerry = dictionary.subject_id(uri("Jerry"))
        assert not dictionary.is_shared_id(jerry)
        assert (dictionary.decode("s", jerry)
                != dictionary.decode("o", jerry))

    def test_decode_cache_memoizes(self):
        graph = Graph(triples(*FIGURE_3_2))
        dictionary = BitMatStore.build(graph).dictionary
        dictionary.decode("s", 1)
        before = dictionary.decode_cache_stats()["hits"]
        dictionary.decode("s", 1)
        assert dictionary.decode_cache_stats()["hits"] == before + 1


PLAN_KEY_QUERIES = [
    f"""PREFIX ex: <{EX}>
SELECT ?friend ?sitcom WHERE {{
  ex:Jerry ex:hasFriend ?friend .
  OPTIONAL {{ ?friend ex:actedIn ?sitcom .
              ?sitcom ex:location ex:{city} . }}
}}""" for city in ("NewYorkCity", "LosAngeles")]


class TestPlanCache:
    def _engine(self) -> tuple[LBREngine, Graph]:
        graph = Graph(triples(*FIGURE_3_2))
        return LBREngine(BitMatStore.build(graph)), graph

    def test_constant_is_part_of_the_key(self):
        engine, graph = self._engine()
        nyc_cold = engine.execute(PLAN_KEY_QUERIES[0])
        la_cold = engine.execute(PLAN_KEY_QUERIES[1])
        assert engine.plan_cache_stats()["size"] == 2
        # interleave repeats: cached plans must not bleed into each other
        nyc_warm = engine.execute(PLAN_KEY_QUERIES[0])
        la_warm = engine.execute(PLAN_KEY_QUERIES[1])
        assert nyc_warm.rows == nyc_cold.rows
        assert la_warm.rows == la_cold.rows
        assert nyc_cold.as_multiset() != la_cold.as_multiset()
        naive = NaiveEngine(graph)
        assert (nyc_warm.as_multiset()
                == naive.execute(PLAN_KEY_QUERIES[0]).as_multiset())
        assert (la_warm.as_multiset()
                == naive.execute(PLAN_KEY_QUERIES[1]).as_multiset())

    def test_hit_is_byte_identical_to_cold(self):
        queries = [
            FIGURE_3_2_QUERY,
            f"PREFIX ex: <{EX}> SELECT * WHERE {{ ?x ex:actedIn ?y }}",
            f"""PREFIX ex: <{EX}> SELECT ?f ?s WHERE {{
                ex:Jerry ex:hasFriend ?f .
                OPTIONAL {{ ?f ex:actedIn ?s }}
                }} ORDER BY ?f LIMIT 3""",
            f"""PREFIX ex: <{EX}> SELECT * WHERE {{
                {{ ?x ex:actedIn ?y }} UNION {{ ?x ex:location ?y }}
                }}""",
            f"""PREFIX ex: <{EX}> SELECT * WHERE {{
                ?x ex:actedIn ?y . FILTER(?x != ex:Larry)
                }}""",
        ]
        warm_engine, _ = self._engine()
        for query in queries:
            cold_engine, _ = self._engine()
            cold = cold_engine.execute(query)
            first = warm_engine.execute(query)
            second = warm_engine.execute(query)
            assert second.variables == first.variables == cold.variables
            assert second.rows == first.rows == cold.rows

    def test_cache_is_bounded(self):
        graph = Graph(triples(*FIGURE_3_2))
        engine = LBREngine(BitMatStore.build(graph), plan_cache_size=2)
        for city in ("NewYorkCity", "LosAngeles", "D.C.", "Jersey"):
            engine.execute(f"""PREFIX ex: <{EX}>
                SELECT * WHERE {{ ?s ex:location ex:{city} }}""")
        stats = engine.plan_cache_stats()
        assert stats["size"] <= 2 and stats["evictions"] >= 2

    def test_parsed_query_objects_hit_the_cache(self):
        from repro.sparql import parse_query
        engine, _ = self._engine()
        parsed = parse_query(FIGURE_3_2_QUERY)
        first = engine.execute(parsed)
        hits_before = engine.plan_cache_stats()["hits"]
        second = engine.execute(parsed)
        assert engine.plan_cache_stats()["hits"] == hits_before + 1
        assert second.rows == first.rows

    def test_pruned_state_not_shared_between_plans(self):
        """Warm repeats may replay memoized pruned state, but must
        report the identical pruned size and rows as the cold run."""
        engine, graph = self._engine()
        query = PLAN_KEY_QUERIES[0]
        cold = engine.execute(query)
        after_pruning = engine.last_stats.triples_after_pruning
        warm = engine.execute(query)
        assert engine.last_stats.triples_after_pruning == after_pruning
        assert warm.rows == cold.rows

    def test_state_memo_matches_memoless_execution(self):
        """The pruned-state memo is a pure cache: a warm repeat replays
        it (no init, no prune) and reports the rows and pruned sizes of
        the cold run and of a fresh engine that never memoized."""
        graph = Graph(triples(*FIGURE_3_2))
        memoized = LBREngine(BitMatStore.build(graph))
        for query in PLAN_KEY_QUERIES:
            cold = memoized.execute(query)
            cold_stats = memoized.last_stats
            warm = memoized.execute(query)
            warm_stats = memoized.last_stats
            fresh = LBREngine(BitMatStore.build(graph))
            reference = fresh.execute(query)
            assert cold_stats.t_init > 0
            assert warm_stats.t_init == warm_stats.t_prune == 0
            assert warm.rows == cold.rows == reference.rows
            assert (warm_stats.triples_after_pruning
                    == cold_stats.triples_after_pruning
                    == fresh.last_stats.triples_after_pruning)

    def test_state_memo_lifetime_tied_to_plan_cache(self):
        """Evicting a plan drops its memo with it: re-executing after
        eviction recompiles and re-prunes, same answer."""
        graph = Graph(triples(*FIGURE_3_2))
        engine = LBREngine(BitMatStore.build(graph), plan_cache_size=1)
        first = engine.execute(PLAN_KEY_QUERIES[0])
        engine.execute(PLAN_KEY_QUERIES[1])  # evicts the first plan
        again = engine.execute(PLAN_KEY_QUERIES[0])
        assert again.rows == first.rows
