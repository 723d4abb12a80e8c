"""Corruption corpus: the store image rejects every mangled copy.

One battery over ``LBRMMAP1``: truncations at every stride, varint
bombs, single-bit flips in checksummed regions, and trailing garbage
must all surface as a typed :class:`~repro.exceptions.StorageError` —
never a silent wrong dataset, never an uncontrolled exception.  So must
the formats this version no longer reads (the ``LBRSTORE1/2/3`` magics,
a version-1 header), with a message that says what to do.  Plus the
writer's two promises: a failed save leaves the previous image
untouched, and the bytes written for a given store never change.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import pytest

from repro import StorageError
from repro.bitmat import (dump_mmap_bytes, is_store_image, open_store,
                          open_store_bytes, save_mmap_store)
from repro.bitmat.mmapstore import _EXTENT, _HEADER

#: ``dump_mmap_bytes`` of the Figure 3.2 store, recorded at the commit
#: before the store classes were collapsed: the image a store produces
#: is part of the contract (``image_bytes_per_triple`` is benchmarked)
FIGURE_IMAGE_SHA256 = (
    "ccb6c7a73d9c518a1b5217f792aa2820f017885716c364b277697cda316564a2")


def with_header(payload: bytes, **changes) -> bytes:
    """*payload* with header fields replaced and the header CRC redone."""
    names = ["magic", "version", "page_shift", "reserved", "num_shared",
             "num_subjects", "num_objects", "num_predicates",
             "num_triples", "dict_off", "dict_len", "index_off",
             "index_len", "file_len", "dict_crc", "index_crc",
             "header_crc"]
    fields = dict(zip(names, _HEADER.unpack(payload[:_HEADER.size])))
    fields.update(changes)
    header = _HEADER.pack(*fields.values())
    header = header[:-4] + struct.pack("<I", zlib.crc32(header[:-4]))
    return header + payload[_HEADER.size:]


def mmap_regions(payload: bytes) -> list[tuple[int, int]]:
    """The checksummed (start, end) intervals of an LBRMMAP1 image.

    Inter-extent padding is deliberately NOT covered by any CRC, so
    bit-flip tests must aim at bytes a reader actually consumes.
    """
    fields = _HEADER.unpack(payload[:_HEADER.size])
    (_, _, _, _, _, _, _, num_predicates, _, dict_off, dict_len,
     index_off, index_len, _, _, _, _) = fields
    # the statistics section (length/CRC prefix + payload)
    stats_off = index_off + index_len
    stats_len = struct.unpack("<I", payload[stats_off:stats_off + 4])[0]
    regions = [(0, _HEADER.size), (dict_off, dict_off + dict_len),
               (index_off, index_off + index_len),
               (stats_off, stats_off + 8 + stats_len)]
    for pid in range(1, num_predicates + 1):
        record = payload[index_off + (pid - 1) * _EXTENT.size:
                         index_off + pid * _EXTENT.size]
        offset, length, _, _ = _EXTENT.unpack(record)
        if length:
            regions.append((offset, offset + length))
    return regions


def patch_extent(payload: bytes, blob: bytes) -> bytes:
    """Overwrite the first non-empty extent with *blob*, recomputing
    the extent CRC, the index CRC, and the header CRC — corruption the
    checksums vouch for, so the decoder itself must reject it."""
    image = bytearray(payload)
    fields = list(_HEADER.unpack(payload[:_HEADER.size]))
    num_predicates, index_off, index_len = fields[7], fields[11], fields[12]
    for pid in range(1, num_predicates + 1):
        record_off = index_off + (pid - 1) * _EXTENT.size
        offset, length, pair_count, _ = _EXTENT.unpack(
            payload[record_off:record_off + _EXTENT.size])
        if not length:
            continue
        assert len(blob) <= length, "patch must fit the extent"
        image[offset:offset + len(blob)] = blob
        patched = bytes(image[offset:offset + length])
        image[record_off:record_off + _EXTENT.size] = _EXTENT.pack(
            offset, length, pair_count, zlib.crc32(patched))
        break
    index_bytes = bytes(image[index_off:index_off + index_len])
    return with_header(bytes(image), index_crc=zlib.crc32(index_bytes))


def open_and_scan(payload: bytes) -> None:
    """Open an image and force every lazy decode.

    Opening validates header/dictionary/index/statistics, but extent
    bodies only at materialization — damage there must still surface
    as a StorageError, just on first touch instead of at open.
    """
    store = open_store_bytes(payload)
    try:
        list(store.iter_triples())
    finally:
        store.close()


@pytest.fixture(scope="module")
def image(figure_store) -> bytes:
    return dump_mmap_bytes(figure_store)


class TestCorruptionCorpus:
    def test_round_trips_before_mangling(self, image, figure_store):
        store = open_store_bytes(image)
        assert (sorted(store.iter_triples())
                == sorted(figure_store.iter_triples()))
        store.close()

    def test_every_truncation_is_rejected(self, image):
        # every strict prefix on a stride, plus the boundary cases
        lengths = set(range(0, len(image), 37))
        lengths.update((1, 8, 9, len(image) // 2, len(image) - 1))
        for length in sorted(lengths):
            with pytest.raises(StorageError):
                open_store_bytes(image[:length])

    def test_trailing_bytes_are_rejected(self, image):
        for junk in (b"\x00", b"\x00" * 64, b"LBRMMAP1"):
            with pytest.raises(StorageError):
                open_store_bytes(image + junk)

    def test_varint_bomb_is_rejected(self, image):
        """A run of continuation bits must die at the 10-byte cap, not
        decode into an unbounded integer."""
        with pytest.raises(StorageError) as excinfo:
            open_and_scan(patch_extent(image, b"\xff" * 11))
        assert "varint" in str(excinfo.value)

    def test_bit_flips_in_checksummed_bytes_are_rejected(self, image):
        positions = [start + step
                     for start, end in mmap_regions(image)
                     for step in range(0, end - start,
                                       max(1, (end - start) // 3))]
        for position in positions:
            mangled = bytearray(image)
            mangled[position] ^= 0x04
            with pytest.raises(StorageError):
                open_and_scan(bytes(mangled))


class TestRetiredFormats:
    """Images this version no longer reads fail typed, with the way out."""

    @pytest.mark.parametrize("magic", [b"LBRSTORE1", b"LBRSTORE2",
                                       b"LBRSTORE3"])
    def test_legacy_magics_say_rebuild(self, magic, tmp_path):
        payload = magic + b"\x00" * 64
        with pytest.raises(StorageError, match="rebuild.*N-Triples"):
            open_store_bytes(payload)
        path = str(tmp_path / "old.lbr")
        with open(path, "wb") as handle:
            handle.write(payload)
        # still recognized as an image, so the CLI routes it to the
        # opener (and its message) instead of the N-Triples parser
        assert is_store_image(path)
        with pytest.raises(StorageError, match="rebuild.*N-Triples"):
            open_store(path)

    def test_version_1_header_says_rebuild(self, image):
        with pytest.raises(StorageError, match="version 1.*rebuild"):
            open_store_bytes(with_header(image, version=1))

    def test_unknown_version_is_rejected(self, image):
        with pytest.raises(StorageError, match="version 3"):
            open_store_bytes(with_header(image, version=3))


class TestCraftedMmapCorruption:
    """Damage the checksums cannot catch (they were recomputed)."""

    def test_undeclared_pairs_in_extent(self, image):
        # an extent whose varint stream decodes fine but disagrees with
        # the index's pair_count
        payload = patch_extent(image, bytes([1, 0, 0]))  # count=1, (0,0)
        with pytest.raises(StorageError):
            open_and_scan(payload)

    def test_file_length_mismatch(self, image):
        with pytest.raises(StorageError):
            open_store_bytes(with_header(image, file_len=len(image) + 4096))

    def test_unaligned_page_shift_is_honoured(self, image):
        # the reader validates extents against the header's page shift,
        # whatever the writer's constant is: 4 KiB-aligned extents are
        # not 64 KiB-aligned
        with pytest.raises(StorageError, match="out of bounds"):
            open_store_bytes(with_header(image, page_shift=16))
        open_store_bytes(with_header(image, page_shift=9)).close()

    def test_out_of_bounds_extent(self, image):
        payload = bytearray(image)
        fields = _HEADER.unpack(image[:_HEADER.size])
        num_predicates, index_off, index_len = (fields[7], fields[11],
                                                fields[12])
        for pid in range(1, num_predicates + 1):
            record_off = index_off + (pid - 1) * _EXTENT.size
            offset, length, pair_count, crc = _EXTENT.unpack(
                bytes(payload[record_off:record_off + _EXTENT.size]))
            if not length:
                continue
            payload[record_off:record_off + _EXTENT.size] = _EXTENT.pack(
                fields[13] * 2, length, pair_count, crc)  # past the end
            break
        index_bytes = bytes(payload[index_off:index_off + index_len])
        with pytest.raises(StorageError):
            open_store_bytes(with_header(
                bytes(payload), index_crc=zlib.crc32(index_bytes)))


class TestWriter:
    def test_image_bytes_are_pinned(self, image):
        assert hashlib.sha256(image).hexdigest() == FIGURE_IMAGE_SHA256

    def test_failed_save_leaves_previous_image_intact(self, figure_store,
                                                      tmp_path,
                                                      monkeypatch):
        from repro import fsio

        path = str(tmp_path / "image.bin")
        save_mmap_store(figure_store, path)
        with open(path, "rb") as handle:
            before = handle.read()

        def boom(self, source, destination):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(fsio.RealFS, "replace", boom)
        with pytest.raises(OSError):
            save_mmap_store(figure_store, path)
        with open(path, "rb") as handle:
            assert handle.read() == before
        store = open_store_bytes(before, source=path)
        assert store.num_triples == figure_store.num_triples
        store.close()
