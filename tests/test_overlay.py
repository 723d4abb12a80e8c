"""Delta overlays and the live store: visibility, compaction, recovery."""

import pytest

from repro import BitMatStore, Graph, LBREngine, Triple, URI
from repro.rdf.terms import Literal
from repro.update import (LiveConfig, LiveGraphStore, MemFS, TripleDelta,
                          overlay)
from repro.update.overlay import SharedRegionViolation, store_has_triple


def t(s: str, p: str, o: str) -> Triple:
    return Triple(URI(f"http://x/{s}"), URI(f"http://x/{p}"),
                  URI(f"http://x/{o}"))


def triple_key(triple: Triple):
    return (triple.s.n3, triple.p.n3, triple.o.n3)


def visible_triples(store: BitMatStore) -> list:
    return sorted(store.iter_triples(), key=triple_key)


BASE = [t("a", "p", "b"), t("b", "p", "c"), t("a", "q", "c"),
        t("d", "q", "a")]


def build_base() -> BitMatStore:
    store = BitMatStore.build(Graph(BASE))
    store.freeze()
    return store


class TestTripleDelta:
    def test_delete_then_readd_is_a_noop(self):
        base = build_base()
        delta = TripleDelta.empty()
        delta = delta.apply_batch((), (BASE[0],),
                                  lambda x: store_has_triple(base, x))
        delta = delta.apply_batch((BASE[0],), (),
                                  lambda x: store_has_triple(base, x))
        assert delta.is_empty()

    def test_add_then_delete_is_a_noop(self):
        base = build_base()
        new = t("x", "p", "y")
        delta = TripleDelta.empty()
        delta = delta.apply_batch((new,), (),
                                  lambda x: store_has_triple(base, x))
        delta = delta.apply_batch((), (new,),
                                  lambda x: store_has_triple(base, x))
        assert delta.is_empty()

    def test_same_batch_delete_then_add_keeps_the_triple(self):
        base = build_base()
        delta = TripleDelta.empty().apply_batch(
            (BASE[0],), (BASE[0],),
            lambda x: store_has_triple(base, x))
        assert delta.is_empty()  # delete of base + re-add = no net change

    def test_noop_mutations_do_not_grow_the_delta(self):
        base = build_base()
        delta = TripleDelta.empty().apply_batch(
            (BASE[0],), (t("nope", "p", "nope"),),
            lambda x: store_has_triple(base, x))
        assert delta.size == 0


class TestOverlay:
    def equivalent(self, adds, deletes):
        """Overlay visible set == rebuilt-from-scratch store."""
        base = build_base()
        delta = TripleDelta.empty().apply_batch(
            adds, deletes, lambda x: store_has_triple(base, x))
        store = overlay(base, delta)
        store.freeze()
        expected = (set(BASE) - set(deletes)) | set(adds)
        rebuilt = BitMatStore.build(Graph(expected))
        assert visible_triples(store) == visible_triples(rebuilt)
        return store, rebuilt

    def test_pure_adds(self):
        # new subjects stay subjects, new objects stay objects — the
        # base shared region {a, b} still covers every two-sided term
        self.equivalent([t("a", "p", "c"), t("d", "p", "b")], [])

    def test_pure_deletes(self):
        self.equivalent([], [BASE[0], BASE[3]])

    def test_mixed_batch(self):
        self.equivalent([t("d", "p", "c")], [BASE[1]])

    def test_fresh_terms_get_extension_ids(self):
        base = build_base()
        fresh = Triple(URI("http://x/new1"), URI("http://x/newp"),
                       Literal("42", datatype="http://x/int"))
        delta = TripleDelta.empty().apply_batch(
            (fresh,), (), lambda x: store_has_triple(base, x))
        store = overlay(base, delta)
        assert store_has_triple(store, fresh)
        sid = store.dictionary.subject_id(fresh.s)
        assert sid is not None and sid > base.num_subjects

    def test_queries_match_rebuilt_store(self):
        store, rebuilt = self.equivalent(
            [t("b", "q", "a"), t("d", "p", "b")], [BASE[2]])
        query = ("SELECT ?x ?y WHERE { ?x <http://x/p> ?z . "
                 "?z <http://x/p> ?y . }")
        left = LBREngine(store).execute(query)
        right = LBREngine(rebuilt).execute(query)
        assert left.as_multiset() == right.as_multiset()

    def test_shared_region_violation_raises(self):
        # "c" is object-only in the base; adding an edge out of it puts
        # it on both sides, outside the frozen shared region
        base = build_base()
        delta = TripleDelta.empty().apply_batch(
            (t("c", "p", "a"),), (),
            lambda x: store_has_triple(base, x))
        with pytest.raises(SharedRegionViolation):
            overlay(base, delta)


class TestLiveGraphStore:
    def open_live(self, fs=None, **kwargs):
        fs = fs or MemFS()
        live = LiveGraphStore.open(
            "/live", fs=fs, initial=Graph(BASE),
            config=LiveConfig(compact_threshold=None, background=False),
            **kwargs)
        return live, fs

    def test_apply_batch_is_visible_immediately(self):
        live, _ = self.open_live()
        live.apply_batch((t("a", "p", "z"),), (BASE[0],))
        expected = sorted((set(BASE) - {BASE[0]}) | {t("a", "p", "z")},
                          key=triple_key)
        assert visible_triples(live.current_store()) == expected
        live.close()

    def test_checkpoint_on_shared_region_violation(self):
        live, _ = self.open_live()
        summary = live.apply_batch((t("c", "p", "a"),), ())
        assert summary["checkpointed"]
        assert t("c", "p", "a") in set(live.current_store().iter_triples())
        live.close()

    def test_compaction_preserves_state_and_resets_delta(self):
        live, _ = self.open_live()
        live.apply_batch((t("a", "p", "z"),), (BASE[1],))
        before = visible_triples(live.current_store())
        assert live.compact()
        assert visible_triples(live.current_store()) == before
        assert live.stats()["delta_size"] == 0
        live.close()

    def test_recovery_replays_the_wal(self):
        live, fs = self.open_live()
        live.apply_batch((t("a", "p", "z"),), ())
        live.apply_batch((), (BASE[0],))
        state = visible_triples(live.current_store())
        last_seq = live.last_seq
        live.close()
        reopened = LiveGraphStore.open(
            "/live", fs=fs,
            config=LiveConfig(compact_threshold=None, background=False))
        assert visible_triples(reopened.current_store()) == state
        assert reopened.last_seq == last_seq
        reopened.close()

    def test_sequence_continues_after_compaction(self):
        live, _ = self.open_live()
        live.apply_batch((t("a", "p", "z"),), ())
        assert live.compact()
        summary = live.apply_batch((t("a", "p", "w"),), ())
        assert summary["seq"] == 2
        live.close()

    def test_on_publish_fires_per_commit(self):
        published = []
        live, _ = self.open_live()
        live.on_publish = published.append
        live.apply_batch((t("a", "p", "z"),), ())
        live.apply_batch((t("a", "p", "w"),), ())
        assert len(published) == 2
        assert t("a", "p", "w") in set(published[-1].iter_triples())
        live.close()

    def test_closed_store_refuses_writes(self):
        from repro.exceptions import StorageError
        live, _ = self.open_live()
        live.close()
        with pytest.raises(StorageError):
            live.apply_batch((t("a", "p", "z"),), ())
