"""Per-predicate statistics: collection, encoding, format round-trips.

The cost-based ordering pass (:mod:`repro.plan.cost`) trusts these
numbers, so they are pinned exactly: distinct counts, histogram
bucketing, and the skew summary derived from the histogram.  The store
image must round-trip the section exactly, without decoding an extent.
"""

from __future__ import annotations

import pytest

from repro import BitMatStore, StorageError
from repro.bitmat.backend import open_store_bytes
from repro.bitmat.mmapstore import dump_mmap_bytes
from repro.bitmat.stats import PredicateStats, StoreStats
from repro.rdf.graph import Graph
from repro.rdf.terms import URI

from .conftest import decodes


@pytest.fixture()
def skewed_store() -> BitMatStore:
    graph = Graph()
    # p1: 7 subjects share 40 objects (fan-out 5..6 each)
    for i in range(40):
        graph.add((URI(f"s{i % 7}"), URI("p1"), URI(f"o{i}")))
    # p2: a hub object with fan-in 10
    for i in range(10):
        graph.add((URI(f"s{i}"), URI("p2"), URI("hub")))
    return BitMatStore.build(graph)


class TestCollection:
    def test_unfrozen_store_has_no_stats(self, skewed_store):
        assert skewed_store.stats() is None

    def test_freeze_collects(self, skewed_store):
        skewed_store.freeze()
        stats = skewed_store.stats()
        assert stats is not None
        p1 = stats.get(1)
        assert (p1.cardinality, p1.distinct_subjects,
                p1.distinct_objects) == (40, 7, 40)
        # 40 pairs over 7 subjects: five groups of 6, two of 5 —
        # all in the log2 bucket [4, 8)
        assert p1.subject_fanout == (0, 0, 7)
        assert p1.object_fanout == (40,)
        p2 = stats.get(2)
        assert (p2.cardinality, p2.distinct_subjects,
                p2.distinct_objects) == (10, 10, 1)
        assert p2.object_fanout == (0, 0, 0, 1)  # one group of 10
        assert stats.get(99) is None

    def test_edge_fanout_is_skew_aware(self, skewed_store):
        skewed_store.freeze()
        stats = skewed_store.stats()
        # p1 subjects each hold ~6 objects: the expected group size of
        # a random edge is the bucket representative (1.5 * 4 = 6)
        assert stats.get(1).edge_fanout("s") == pytest.approx(6.0)
        # every object of p1 has exactly one subject
        assert stats.get(1).edge_fanout("o") == pytest.approx(1.0)
        # p2's hub dominates its object direction
        assert stats.get(2).edge_fanout("o") > stats.get(2).edge_fanout("s")

    def test_empty_store(self):
        stats = StoreStats.collect({})
        assert stats.predicates == {}
        assert StoreStats.from_bytes(stats.to_bytes()).predicates == {}


class TestEncoding:
    def test_round_trip(self, skewed_store):
        skewed_store.freeze()
        stats = skewed_store.stats()
        decoded = StoreStats.from_bytes(stats.to_bytes())
        assert decoded.predicates == dict(stats.predicates)

    def test_rejects_non_ascending_pids(self):
        pred = PredicateStats(1, 1, 1, (1,), (1,))
        payload = StoreStats({2: pred, 1: pred}).to_bytes()
        # the encoder sorts, so craft an out-of-order section by
        # swapping the two single-byte pid fields
        good = StoreStats({1: pred}).to_bytes()
        assert StoreStats.from_bytes(good).predicates  # sanity
        bad = bytearray(payload)
        # payload: count, then records starting with pid varints 1, 2
        first_record = 1
        bad[first_record] = 2
        with pytest.raises(StorageError):
            StoreStats.from_bytes(bytes(bad))

    def test_rejects_distinct_above_cardinality(self):
        stats = StoreStats({1: PredicateStats(1, 5, 1, (1,), (1,))})
        with pytest.raises(StorageError):
            StoreStats.from_bytes(stats.to_bytes())


class TestImageRoundTrip:
    def test_round_trip_without_decoding(self, skewed_store):
        skewed_store.freeze()
        loaded = open_store_bytes(dump_mmap_bytes(skewed_store))
        try:
            assert loaded.stats().predicates == dict(
                skewed_store.stats().predicates)
            # statistics live in their own eager section: reading them
            # must not have materialized a single extent
            assert decodes(loaded) == 0
        finally:
            loaded.close()

    def test_dump_collects_when_unfrozen(self, skewed_store):
        # `lbr freeze` saves unfrozen stores; images must still carry
        # statistics so later opens get cost-based ordering
        assert skewed_store.stats() is None
        loaded = open_store_bytes(dump_mmap_bytes(skewed_store))
        assert loaded.stats().get(1).cardinality == 40
        loaded.close()

    def test_overlay_has_no_stats(self, skewed_store):
        from repro.rdf.terms import Triple
        from repro.update.overlay import TripleDelta, overlay

        skewed_store.freeze()
        delta = TripleDelta(
            added=frozenset({Triple(URI("new-s"), URI("p1"),
                                    URI("new-o"))}),
            deleted=frozenset())
        store = overlay(skewed_store, delta)
        store.freeze()
        assert store.stats() is None
        # ...but an image dumped from it carries freshly collected ones
        loaded = open_store_bytes(dump_mmap_bytes(store))
        assert loaded.stats().get(1).cardinality == 41
        loaded.close()
