"""The persistence codec, end to end through the one store image.

What a reopened store must answer is ``test_store_contract.py``; what a
damaged image must refuse is ``test_persist_corruption.py``.  Here: the
term codec keeps every term kind, and arbitrary graphs survive the trip.
"""

import io

import pytest
from hypothesis import given, strategies as st

from repro import BitMatStore, Graph, StorageError, Triple, URI
from repro.bitmat import dump_mmap_bytes, open_store_bytes
from repro.bitmat.persist import (read_pairs, read_varint, write_pairs,
                                  write_varint)
from repro.rdf.terms import BNode, Literal


class TestCodec:
    def test_all_term_kinds_survive(self):
        graph = Graph([
            Triple(URI("http://ex/s"), URI("http://ex/p"),
                   Literal("plain")),
            Triple(URI("http://ex/s"), URI("http://ex/p"),
                   Literal("typed", datatype="http://ex/dt")),
            Triple(URI("http://ex/s"), URI("http://ex/p"),
                   Literal("tagged", language="fr")),
            Triple(BNode("b0"), URI("http://ex/q"), URI("http://ex/s")),
            Triple(URI("http://ex/u"), URI("http://ex/p"),
                   Literal("unicode é\U0001F600")),
        ])
        loaded = open_store_bytes(dump_mmap_bytes(BitMatStore.build(graph)))
        for triple in graph:
            sid, pid, oid = loaded.dictionary.encode_triple(triple)
            assert loaded.has_triple(sid, pid, oid)
        loaded.close()

    def test_varint_round_trip_and_bounds(self):
        for value in (0, 1, 127, 128, 2 ** 32, 2 ** 64 - 1):
            buffer = io.BytesIO()
            write_varint(buffer, value)
            assert read_varint(io.BytesIO(buffer.getvalue())) == value
        with pytest.raises(StorageError):
            write_varint(io.BytesIO(), -1)
        with pytest.raises(StorageError):
            read_varint(io.BytesIO(b"\x80"))        # truncated
        with pytest.raises(StorageError):
            read_varint(io.BytesIO(b"\xff" * 11))   # longer than 10 bytes

    def test_pair_blocks_delta_encode_per_subject(self):
        pairs = [(1, 5), (1, 9), (3, 2), (3, 1000), (70000, 1)]
        buffer = io.BytesIO()
        write_pairs(buffer, pairs)
        assert read_pairs(io.BytesIO(buffer.getvalue())) == pairs


names = st.text(alphabet="abcdef", min_size=1, max_size=3)


class TestRoundTripProperty:
    @given(st.sets(st.tuples(names, names, names), min_size=1,
                   max_size=30))
    def test_random_graphs_round_trip(self, rows):
        graph = Graph(Triple(URI("http://x/" + s), URI("http://p/" + p),
                             URI("http://x/" + o)) for s, p, o in rows)
        store = BitMatStore.build(graph)
        loaded = open_store_bytes(dump_mmap_bytes(store))
        assert loaded.num_triples == store.num_triples
        assert sorted(loaded.iter_triples()) == sorted(store.iter_triples())
        loaded.close()
