"""The store image: laziness, and its wiring into server and live store.

What every pair source must answer alike is ``test_store_contract.py``;
what a damaged image must refuse is ``test_persist_corruption.py``.
"""

from __future__ import annotations

import pytest

from repro import BitMatStore, Graph, LBREngine
from repro.bitmat import (dump_mmap_bytes, is_store_image, mmapstore,
                          open_store, open_store_bytes, save_mmap_store)
from repro.exceptions import StorageError

from .conftest import FIGURE_3_2_QUERY, decodes, triples, uri


def many_predicate_graph(num_predicates: int = 10,
                         rows_per: int = 6) -> Graph:
    """A graph where each predicate owns its own disjoint triples."""
    graph = Graph()
    for p in range(num_predicates):
        for i in range(rows_per):
            graph.add((uri(f"s{p}_{i}"), uri(f"p{p}"), uri(f"o{p}_{i}")))
    return graph


@pytest.fixture()
def figure_image(figure_store) -> BitMatStore:
    store = open_store_bytes(dump_mmap_bytes(figure_store))
    yield store
    store.close()


class TestImage:
    def test_empty_store_round_trips(self):
        empty = BitMatStore.build(Graph())
        store = open_store_bytes(dump_mmap_bytes(empty))
        assert store.num_triples == 0
        assert list(store.iter_triples()) == []
        store.close()

    def test_extents_are_page_aligned(self, figure_image):
        for offset, _, _, _ in figure_image.source._extents.values():
            assert offset % 4096 == 0

    def test_only_images_are_images(self, figure_store, tmp_path):
        path = str(tmp_path / "figure")
        save_mmap_store(figure_store, path)
        assert is_store_image(path)
        assert not is_store_image(__file__)
        assert not is_store_image(str(tmp_path))
        with pytest.raises(StorageError):
            open_store(__file__)
        with pytest.raises(StorageError):
            open_store(str(tmp_path / "missing.lbrm"))
        with pytest.raises(StorageError):
            open_store_bytes(b"definitely not a store image")


class TestLaziness:
    def test_first_query_skips_untouched_predicates(self):
        """The acceptance bar: answering a query must not decode
        predicates it never names."""
        base = BitMatStore.build(many_predicate_graph(num_predicates=10))
        store = open_store_bytes(dump_mmap_bytes(base))
        assert decodes(store) == 0
        engine = LBREngine(store)
        result = engine.execute(
            f"SELECT ?s ?o WHERE {{ ?s <{uri('p3')}> ?o . }}")
        assert len(result) == 6
        assert decodes(store) == 1
        store.close()

    def test_eviction_redecodes_transparently(self, monkeypatch):
        monkeypatch.setattr(mmapstore, "EXTENT_CACHE_SIZE", 2)
        base = BitMatStore.build(many_predicate_graph(num_predicates=8))
        store = open_store_bytes(dump_mmap_bytes(base))
        source = store.source
        first = {pid: list(source.so_pairs(pid)) for pid in source.pids()}
        decodes_after_sweep = decodes(store)
        assert decodes_after_sweep == 8
        # sweeping again re-decodes evicted extents — same data back
        again = {pid: list(source.so_pairs(pid)) for pid in source.pids()}
        assert again == first
        assert decodes(store) > decodes_after_sweep
        store.close()

    def test_cache_stats_report_extent_section(self, figure_image):
        figure_image.load_so(1)
        report = figure_image.cache_stats()
        assert set(report) == {"so", "os", "rows", "entities", "extents",
                               "os_pairs"}
        assert report["extents"]["materializations"] == 1
        assert report["extents"]["extents"] == figure_image.num_predicates

    def test_overlay_merges_and_base_stays_lazy(self, figure_store):
        from repro.update.overlay import (TripleDelta, overlay,
                                          store_has_triple)

        base = open_store_bytes(dump_mmap_bytes(figure_store))
        delta = TripleDelta.empty().apply_batch(
            triples(("Elaine", "actedIn", "Seinfeld")),
            triples(("Julia", "actedIn", "Veep")),
            lambda triple: store_has_triple(base, triple))
        base_decodes = decodes(base)
        store = overlay(base, delta)
        assert store.num_triples == base.num_triples
        assert decodes(base) == base_decodes  # building is lazy too
        # an overlay reports the caches of the image underneath it
        assert store.cache_stats()["extents"] == base.cache_stats()["extents"]
        rows = LBREngine(store).execute(
            f"SELECT ?s WHERE {{ ?s <{uri('actedIn')}> "
            f"<{uri('Seinfeld')}> . }}")
        assert {row[0] for row in rows} == {uri("Julia"), uri("Elaine")}
        assert decodes(base) < base.num_predicates
        store.close()
        base.close()


class TestSnapshotRetirement:
    def figure_mmap_store(self, figure_store) -> BitMatStore:
        return open_store_bytes(dump_mmap_bytes(figure_store))

    def test_swap_closes_the_retired_store(self, figure_store):
        from repro.server.snapshot import SnapshotManager

        manager = SnapshotManager()
        first = self.figure_mmap_store(figure_store)
        manager.publish_store(first)  # publish adopts the reference
        second = self.figure_mmap_store(figure_store)
        manager.publish_store(second)
        assert first.closed
        assert not second.closed
        manager.close()
        assert second.closed

    def test_inflight_reader_defers_the_close(self, figure_store):
        from repro.server.snapshot import SnapshotManager

        manager = SnapshotManager()
        first = self.figure_mmap_store(figure_store)
        snapshot = manager.publish_store(first)
        assert snapshot.refs.try_acquire()  # a query pins the snapshot
        manager.publish_store(self.figure_mmap_store(figure_store))
        assert not first.closed  # retired but still read by the query
        snapshot.refs.release()
        assert first.closed
        assert not snapshot.refs.try_acquire()  # retirement is final
        manager.close()

    def test_query_service_serves_and_closes_mmap_store(self,
                                                        figure_store):
        from repro.server import QueryService, ServiceConfig

        store = self.figure_mmap_store(figure_store)
        service = QueryService.from_store(store,
                                          ServiceConfig(workers=2))
        outcome = service.execute(FIGURE_3_2_QUERY)
        assert outcome.ok and len(outcome.rows) == 2
        report = service.stats()
        extents = report["store_caches"]["extents"]
        assert 0 < extents["materializations"] <= store.num_predicates
        service.close()
        assert store.closed

    def test_reload_churn_leaks_no_handles(self, figure_store, tmp_path):
        from repro.server import QueryService, ServiceConfig

        path = str(tmp_path / "figure.lbrm")
        save_mmap_store(figure_store, path)
        service = QueryService(ServiceConfig(workers=2))
        generations = [open_store(path) for _ in range(5)]
        for store in generations:
            service.load_store(store)
            assert service.execute(FIGURE_3_2_QUERY).ok
        service.close()
        assert all(store.closed for store in generations)


class TestLiveStoreMmapImages:
    def base_image_names(self, directory) -> list[str]:
        import os
        return sorted(name for name in os.listdir(directory)
                      if name.startswith("base-"))

    def test_checkpoint_writes_and_reopens_mmap_image(self, figure_graph,
                                                      tmp_path):
        from repro.update import LiveConfig, LiveGraphStore

        directory = str(tmp_path / "live")
        live = LiveGraphStore.open(
            directory, config=LiveConfig(background=False),
            initial=figure_graph)
        assert decodes(live._base) == 0
        assert self.base_image_names(directory) == ["base-00000000.lbrm"]
        live.apply_batch(triples(("Jerry", "hasFriend", "Elaine")), ())
        assert live.compact()
        assert decodes(live._base) == 0   # the reopened image, not the rebuild
        assert self.base_image_names(directory) == ["base-00000001.lbrm"]
        visible = sorted(live.current_store().iter_triples())
        live.close()
        assert live._base.closed

        # recovery from the mmap image sees the identical dataset
        recovered = LiveGraphStore.open(
            directory, config=LiveConfig(background=False))
        assert "extents" in recovered._base.cache_stats()
        assert sorted(recovered.current_store().iter_triples()) == visible
        recovered.close()

    def test_live_service_update_and_compact_over_mmap(self, figure_graph,
                                                       tmp_path):
        from repro.server import QueryService, ServiceConfig
        from repro.update import LiveConfig, LiveGraphStore

        directory = str(tmp_path / "live")
        live = LiveGraphStore.open(
            directory, config=LiveConfig(background=False),
            initial=figure_graph)
        service = QueryService(ServiceConfig(workers=2))
        service.attach_live_store(live)
        summary = service.update_batch(
            triples(("Elaine", "actedIn", "Seinfeld")), ())
        assert summary["seq"] == 1
        outcome = service.execute(
            f"SELECT ?s WHERE {{ ?s <{uri('actedIn')}> "
            f"<{uri('Seinfeld')}> . }}")
        assert outcome.ok
        assert {row[0] for row in outcome.rows} == {uri("Julia"),
                                                    uri("Elaine")}
        assert live.compact()  # swaps in a reopened mmap base
        outcome = service.execute(
            f"SELECT ?s WHERE {{ ?s <{uri('actedIn')}> "
            f"<{uri('Seinfeld')}> . }}")
        assert outcome.ok and len(outcome.rows) == 2
        service.close()
        assert live._base.closed
