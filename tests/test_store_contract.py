"""One store contract, every pair source.

``BitMatStore`` is the only store class; what varies is where it reads
its pairs from.  Each source below — decoded lists in memory, an image
held as bytes, an image mapped from a real file, and a delta overlay
over a mapped base (once with the base's dimensions, once grown by new
terms) — must be indistinguishable, in term space, from a store rebuilt
from scratch out of the triples it is supposed to show.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import pytest

from repro import BitMatStore, Graph, LBREngine, StorageError, Triple, URI
from repro.bitmat import (StoreBackend, dump_mmap_bytes, open_store,
                          open_store_bytes, save_mmap_store)
from repro.update import TripleDelta, overlay
from repro.update.overlay import store_has_triple

from .conftest import decodes


def t(s: str, p: str, o: str) -> Triple:
    return Triple(URI(f"http://x/{s}"), URI(f"http://x/{p}"),
                  URI(f"http://x/{o}"))


#: a and b are shared (subject and object); (a r a) sits on r's diagonal
BASE = [t("a", "p", "b"), t("b", "p", "c"), t("a", "q", "c"),
        t("d", "q", "a"), t("a", "r", "a"), t("e", "u", "f"),
        t("g", "u", "f")]
DELETED = [t("b", "p", "c"), t("d", "q", "a")]
#: only terms the base already has, each on the side it already is on
ADDED_SAME_DIMS = [t("d", "p", "b"), t("b", "q", "c"), t("b", "r", "b")]
#: a new subject, a new object and a new predicate
ADDED_GROWN = [t("n1", "p", "n2"), t("a", "w", "b")]
#: never visible anywhere: an unknown term, and known terms unrelated
ABSENT = [t("a", "p", "zz"), t("c", "p", "a")]


@dataclass
class Case:
    store: BitMatStore
    visible: list
    base: BitMatStore | None = None      # overlays only
    image_backed: bool = True
    untouched: URI = URI("http://x/u")   # predicate no delta touches


def _base_image() -> bytes:
    return dump_mmap_bytes(BitMatStore.build(Graph(BASE)))


def _overlay_case(added: list) -> Case:
    base = open_store_bytes(_base_image())
    # built directly (not via apply_batch, whose base-membership probes
    # would decode extents) so the laziness assertions see a fresh base
    delta = TripleDelta(added=frozenset(added), deleted=frozenset(DELETED))
    visible = [triple for triple in BASE if triple not in DELETED] + added
    return Case(overlay(base, delta), visible, base=base)


@pytest.fixture(params=["memory", "bytes", "mmap", "overlay",
                        "overlay-grown"])
def case(request, tmp_path) -> Case:
    kind = request.param
    if kind == "memory":
        made = Case(BitMatStore.build(Graph(BASE)), BASE,
                    image_backed=False)
    elif kind == "bytes":
        made = Case(open_store_bytes(_base_image()), BASE)
    elif kind == "mmap":
        path = str(tmp_path / "base.lbrm")
        save_mmap_store(BitMatStore.build(Graph(BASE)), path)
        made = Case(open_store(path), BASE)
    elif kind == "overlay":
        made = _overlay_case(ADDED_SAME_DIMS)
    else:
        made = _overlay_case(ADDED_GROWN)
    yield made
    made.store.close()
    if made.base is not None:
        made.base.close()


def rebuilt(case: Case) -> BitMatStore:
    return BitMatStore.build(Graph(case.visible))


def ids(store: BitMatStore, triple: Triple):
    """The triple's ids in *store*'s own dictionary (None = unknown)."""
    return (store.dictionary.subject_id(triple.s),
            store.dictionary.predicate_id(triple.p),
            store.dictionary.object_id(triple.o))


def count(store: BitMatStore, triple: Triple, mask) -> int:
    bound = list(zip(ids(store, triple), mask))
    if any(is_bound and term_id is None for term_id, is_bound in bound):
        return 0   # a bound term the store has never seen matches nothing
    return store.count_matching(*(term_id if is_bound else None
                                  for term_id, is_bound in bound))


def so_terms(store: BitMatStore, matrix, transposed: bool = False) -> set:
    """A per-predicate matrix as a set of (subject, object) terms."""
    pairs = ((col, row) if transposed else (row, col)
             for row, col in matrix.iter_pairs())
    return {(store.dictionary.subject_term(sid),
             store.dictionary.object_term(oid)) for sid, oid in pairs}


class TestReadSurface:
    def test_is_a_store_backend(self, case):
        assert type(case.store) is BitMatStore
        assert isinstance(case.store, StoreBackend)

    def test_counts_without_decoding(self, case):
        reference = rebuilt(case)
        store = case.store
        assert store.num_triples == reference.num_triples
        for triple in case.visible:
            pid = store.dictionary.predicate_id(triple.p)
            assert store.predicate_count(pid) == count(
                reference, triple, (False, True, False))
        if case.image_backed:
            assert decodes(store) == 0

    def test_iter_triples(self, case):
        assert sorted(case.store.iter_triples()) == sorted(case.visible)

    def test_has_triple(self, case):
        for triple in case.visible:
            assert store_has_triple(case.store, triple)
        for triple in ABSENT + [triple for triple in DELETED
                                if triple not in case.visible]:
            assert not store_has_triple(case.store, triple)

    def test_count_matching_every_binding(self, case):
        reference = rebuilt(case)
        for triple in case.visible + DELETED + ABSENT:
            for mask in product((False, True), repeat=3):
                assert (count(case.store, triple, mask)
                        == count(reference, triple, mask)), (triple, mask)

    def test_predicate_matrices(self, case):
        store = case.store
        for predicate in {triple.p for triple in case.visible}:
            pid = store.dictionary.predicate_id(predicate)
            expected = {(triple.s, triple.o) for triple in case.visible
                        if triple.p == predicate}
            so, os_ = store.load_so(pid), store.load_os(pid)
            assert so_terms(store, so) == expected
            assert so_terms(store, os_, transposed=True) == expected
            assert (so.num_rows, so.num_cols) == (store.num_subjects + 1,
                                                  store.num_objects + 1)
            assert (os_.num_rows, os_.num_cols) == (so.num_cols,
                                                    so.num_rows)
            assert store.load_so(pid) is so      # served from the LRU

    def test_single_rows(self, case):
        store = case.store
        probes = case.visible + DELETED
        for triple in probes:
            sid, pid, oid = ids(store, triple)
            subjects = {store.dictionary.subject_term(found) for found
                        in store.load_ps_row(pid, oid).positions()}
            objects = {store.dictionary.object_term(found) for found
                       in store.load_po_row(pid, sid).positions()}
            assert subjects == {seen.s for seen in case.visible
                                if (seen.p, seen.o) == (triple.p, triple.o)}
            assert objects == {seen.o for seen in case.visible
                               if (seen.s, seen.p) == (triple.s, triple.p)}
        assert not store.load_ps_row(store.num_predicates + 5, 1)
        assert not store.load_po_row(store.num_predicates + 5, 1)

    def test_entity_matrices(self, case):
        store = case.store
        dictionary = store.dictionary
        for triple in case.visible + DELETED:
            sid, _, oid = ids(store, triple)
            ps = {(dictionary.predicate_term(pid),
                   dictionary.subject_term(found))
                  for pid, found in store.load_ps(oid).iter_pairs()}
            po = {(dictionary.predicate_term(pid),
                   dictionary.object_term(found))
                  for pid, found in store.load_po(sid).iter_pairs()}
            assert ps == {(seen.p, seen.s) for seen in case.visible
                          if seen.o == triple.o}
            assert po == {(seen.p, seen.o) for seen in case.visible
                          if seen.s == triple.s}

    def test_diagonal_positions(self, case):
        store = case.store
        for predicate in {triple.p for triple in case.visible}:
            pid = store.dictionary.predicate_id(predicate)
            found = {store.dictionary.subject_term(sid)
                     for sid in store.diagonal_positions(pid)}
            assert found == {triple.s for triple in case.visible
                             if triple.p == predicate
                             and triple.s == triple.o}

    def test_query_answers_match_a_rebuild(self, case):
        """Opening (or overlaying) and querying answers what parsing the
        triples and rebuilding the store from scratch answers."""
        query = ("SELECT * WHERE { ?x <http://x/p> ?y . "
                 "OPTIONAL { ?x <http://x/q> ?z } }")
        answer = LBREngine(case.store).execute(query)
        assert answer.rows
        assert (answer.as_multiset()
                == LBREngine(rebuilt(case)).execute(query).as_multiset())

    def test_frozen_store_reads_the_same(self, case):
        before = sorted(case.store.iter_triples())
        assert case.store.freeze() is case.store and case.store.frozen
        assert sorted(case.store.iter_triples()) == before
        pid = case.store.dictionary.predicate_id(case.untouched)
        assert so_terms(case.store, case.store.load_os(pid),
                        transposed=True) == {
            (triple.s, triple.o) for triple in case.visible
            if triple.p == case.untouched}


class TestBaseSharing:
    """Untouched predicate ⇒ the base's warm BitMat, by identity, while
    the overlay has not grown the matrix dimensions."""

    def loads(self, store: BitMatStore, base: BitMatStore, predicate):
        pid = base.dictionary.predicate_id(predicate)
        triple = next(seen for seen in BASE if seen.p == predicate)
        sid, _, oid = ids(base, triple)
        return [(store.load_so(pid), base.load_so(pid)),
                (store.load_os(pid), base.load_os(pid)),
                (store.load_ps_row(pid, oid), base.load_ps_row(pid, oid)),
                (store.load_po_row(pid, sid), base.load_po_row(pid, sid))]

    def test_same_dimensions_share_untouched_predicates(self):
        case = _overlay_case(ADDED_SAME_DIMS)
        for ours, theirs in self.loads(case.store, case.base,
                                       case.untouched):
            assert ours is theirs
        for ours, theirs in self.loads(case.store, case.base,
                                       URI("http://x/p")):
            assert ours is not theirs    # the delta touched p
        assert decodes(case.store) == decodes(case.base) > 0
        case.store.close()
        case.base.close()

    def test_grown_dimensions_share_nothing(self):
        case = _overlay_case(ADDED_GROWN)
        assert case.store.num_subjects == case.base.num_subjects + 1
        for ours, theirs in self.loads(case.store, case.base,
                                       case.untouched):
            assert ours is not theirs
        case.store.close()
        case.base.close()


class TestLifecycle:
    def test_refcounted_close(self, case):
        store = case.store
        assert store.retain() is store
        store.close()
        assert not store.closed
        store.close()
        assert store.closed
        store.close()                      # idempotent at zero
        assert store.closed
        with pytest.raises(StorageError):
            store.retain()

    def test_closed_image_refuses_to_decode(self, case):
        pid = case.store.dictionary.predicate_id(case.untouched)
        case.store.close()
        if case.base is not None:
            case.base.close()
        if not case.image_backed:
            # nothing was released: the dataset is still in memory
            assert case.store.load_so(pid).count() == 2
            return
        with pytest.raises(StorageError):
            case.store.load_so(pid)

    def test_overlay_keeps_its_base_mapped_until_its_last_close(self):
        case = _overlay_case(ADDED_SAME_DIMS)
        store, base = case.store, case.base
        base.close()                       # the creator's reference
        assert not base.closed             # the overlay holds another
        store.retain()
        store.close()
        assert not base.closed
        assert sorted(store.iter_triples()) == sorted(case.visible)
        store.close()
        assert store.closed and base.closed

    def test_mapped_file_handles_are_released(self, tmp_path):
        path = str(tmp_path / "base.lbrm")
        save_mmap_store(BitMatStore.build(Graph(BASE)), path)
        store = open_store(path)
        store.load_so(1)
        store.close()
        assert store.source._mapping.closed
        assert store.source._file.closed
