"""The store image: the ``LBRMMAP1`` on-disk format, writer and reader.

The paper's layout was designed so each predicate's BitMat is an
independently loadable compressed slice; ``LBRMMAP1`` gives the store
exactly that lifecycle on disk.  A frozen dataset is written once as:

* a fixed 108-byte little-endian header — magic, version, page shift,
  the dictionary counts and triple total, section offsets/lengths, the
  total file length, and CRC32s of the dictionary section, the extent
  index, and the header itself;
* the dictionary section (term tables in id order, via
  :func:`~repro.bitmat.persist.write_dictionary`), CRC-checked as one
  unit and decoded eagerly at open;
* the extent index: one ``(offset, length, pair_count, crc)`` record
  per predicate id, so any predicate's slice is addressable without
  touching the others;
* a statistics section — u32 length + u32 CRC32 + the varint-encoded
  per-predicate statistics of :mod:`repro.bitmat.stats` — decoded
  eagerly at open so the cost-based ordering pass never has to touch
  an extent;
* per-predicate extents, each starting on a 4 KiB page boundary and
  holding the predicate's delta-encoded sorted (sid, oid) pairs
  (:func:`~repro.bitmat.persist.write_pairs`) — independently
  CRC-checked at materialization time.

This is the only image format written or read (header version 2).
:class:`ExtentSource` serves such an image to a
:class:`~repro.bitmat.store.BitMatStore` and materializes predicates
lazily: opening validates only the header, dictionary, index and
statistics (O(dictionary), not O(dataset)); a predicate's pairs are
decoded on first touch, kept in a bounded striped LRU so hot predicates
stay decoded, and re-decoded transparently after eviction.  The OS page
cache does the tiering — untouched predicates never cost RAM or I/O.
"""

from __future__ import annotations

import io
import mmap
import struct
import threading
import zlib

from ..exceptions import StorageError
from ..fsio import RealFS, atomic_write
from ..lru import StripedLRUCache
from .persist import (read_dictionary, read_pairs, write_dictionary,
                      write_pairs)
from .source import Pairs
from .stats import StoreStats, read_stats
from .store import BitMatStore

MAGIC = b"LBRMMAP1"
#: the one header version written and read
VERSION = 2
#: what images of the retired eager format start with — recognized
#: only so opening one can say what to do about it
LEGACY_PREFIX = b"LBRSTORE"
#: statistics section prefix: payload length + payload CRC32
_STATS_PREFIX = struct.Struct("<II")
#: extent alignment the writer uses: 4 KiB pages (the reader honours
#: whatever the header's page-shift field says)
PAGE_SHIFT = 12

#: decoded-extent LRU: hot predicates stay decoded, cold ones re-decode
EXTENT_CACHE_SIZE = 1024
#: decoded O-S projection LRU (bounded, or it would defeat lazy loading)
OS_PROJECTION_CACHE_SIZE = 512

#: magic, version, page_shift, reserved, then u64s: num_shared,
#: num_subjects, num_objects, num_predicates, num_triples, dict_off,
#: dict_len, index_off, index_len, file_len; then u32s: dict_crc,
#: index_crc, header_crc (over the preceding 104 bytes)
_HEADER = struct.Struct("<8sHHI10Q3I")
#: per-predicate index record: offset, length, pair_count, crc32
_EXTENT = struct.Struct("<QQQI")


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------


def dump_mmap_bytes(store: BitMatStore) -> bytes:
    """Serialize *store* (over any pair source) as one image.

    Every predicate's extent starts on a page boundary, so
    materializing one predicate touches only its own pages.
    """
    page = 1 << PAGE_SHIFT

    def align(position: int) -> int:
        return (position + page - 1) & ~(page - 1)

    dictionary = store.dictionary
    source = store.source
    dict_buffer = io.BytesIO()
    write_dictionary(dict_buffer, dictionary)
    dict_bytes = dict_buffer.getvalue()

    num_predicates = dictionary.num_predicates
    dict_off = _HEADER.size
    index_off = dict_off + len(dict_bytes)
    index_len = num_predicates * _EXTENT.size

    stats = store.stats()
    if stats is None:
        stats = StoreStats.collect(
            {pid: source.so_pairs(pid) for pid in source.pids()})
    stats_bytes = stats.to_bytes()
    stats_off = index_off + index_len

    offset = align(stats_off + _STATS_PREFIX.size + len(stats_bytes))
    extents: list[tuple[int, int, int, int]] = []
    blobs: list[tuple[int, bytes]] = []
    total_triples = 0
    for pid in range(1, num_predicates + 1):
        pairs = source.so_pairs(pid)
        if not pairs:
            extents.append((0, 0, 0, 0))
            continue
        pair_buffer = io.BytesIO()
        write_pairs(pair_buffer, pairs)
        blob = pair_buffer.getvalue()
        extents.append((offset, len(blob), len(pairs), zlib.crc32(blob)))
        blobs.append((offset, blob))
        total_triples += len(pairs)
        offset = align(offset + len(blob))
    file_len = offset

    index_bytes = b"".join(_EXTENT.pack(*extent) for extent in extents)
    header = _HEADER.pack(
        MAGIC, VERSION, PAGE_SHIFT, 0,
        dictionary.num_shared, dictionary.num_subjects,
        dictionary.num_objects, num_predicates, total_triples,
        dict_off, len(dict_bytes), index_off, index_len, file_len,
        zlib.crc32(dict_bytes), zlib.crc32(index_bytes), 0)
    header = header[:-4] + struct.pack("<I", zlib.crc32(header[:-4]))

    image = bytearray(file_len)
    image[:len(header)] = header
    image[dict_off:dict_off + len(dict_bytes)] = dict_bytes
    image[index_off:index_off + index_len] = index_bytes
    image[stats_off:stats_off + _STATS_PREFIX.size] = _STATS_PREFIX.pack(
        len(stats_bytes), zlib.crc32(stats_bytes))
    image[stats_off + _STATS_PREFIX.size:
          stats_off + _STATS_PREFIX.size + len(stats_bytes)] = stats_bytes
    for blob_offset, blob in blobs:
        image[blob_offset:blob_offset + len(blob)] = blob
    return bytes(image)


def save_mmap_store(store: BitMatStore, path: str) -> int:
    """Durably write *store* as an ``LBRMMAP1`` image at *path*.

    Uses the shared atomic protocol (temp → fsync → rename → directory
    fsync); returns the number of bytes written.
    """
    return atomic_write(RealFS(), path, dump_mmap_bytes(store))


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------


class ExtentSource:
    """The pair source over one validated image buffer.

    Only predicates actually touched are ever decoded.  Decoded lists
    live in bounded striped LRUs; eviction is invisible except as a
    re-decode.  ``materializations`` counts extent decodes — the
    observable proof of laziness.
    """

    def __init__(self, buffer, label: str, *, mapping=None,
                 file=None) -> None:
        magic = bytes(buffer[:len(MAGIC)])
        if magic.startswith(LEGACY_PREFIX):
            raise StorageError(
                f"{label} is an LBRSTORE1/2/3 image, a format this "
                "version no longer reads: rebuild it from the N-Triples "
                "source with 'lbr freeze'")
        if magic != MAGIC:
            raise StorageError(f"{label} is not an LBRMMAP1 store image")
        if len(buffer) < _HEADER.size:
            raise StorageError(f"{label}: truncated mmap store header")
        header = bytes(buffer[:_HEADER.size])
        (_, version, page_shift, _reserved, num_shared, num_subjects,
         num_objects, num_predicates, num_triples, dict_off, dict_len,
         index_off, index_len, file_len, dict_crc, index_crc,
         header_crc) = _HEADER.unpack(header)
        if zlib.crc32(header[:-4]) != header_crc:
            raise StorageError(f"{label}: mmap store header "
                               "checksum mismatch")
        if version != VERSION:
            raise StorageError(
                f"{label}: unsupported LBRMMAP version {version} (this "
                f"version reads only {VERSION}): rebuild the image from "
                "the N-Triples source with 'lbr freeze'")
        if page_shift > 30:
            raise StorageError(f"{label}: unreasonable page shift "
                               f"{page_shift}")
        if file_len != len(buffer):
            raise StorageError(f"{label}: file length mismatch "
                               f"(header says {file_len}, have "
                               f"{len(buffer)} — truncated or trailing "
                               "bytes)")
        if (dict_off != _HEADER.size
                or index_off != dict_off + dict_len
                or index_len != num_predicates * _EXTENT.size
                or index_off + index_len > file_len):
            raise StorageError(f"{label}: corrupt section layout")

        dictionary = _read_section(buffer, dict_off, dict_len, dict_crc,
                                   f"{label}: dictionary section",
                                   read_dictionary)
        if (dictionary.num_shared != num_shared
                or dictionary.num_subjects != num_subjects
                or dictionary.num_objects != num_objects
                or dictionary.num_predicates != num_predicates):
            raise StorageError(f"{label}: dictionary counts disagree "
                               "with header")

        index_bytes = bytes(buffer[index_off:index_off + index_len])
        if zlib.crc32(index_bytes) != index_crc:
            raise StorageError(f"{label}: extent index "
                               "checksum mismatch")
        # the statistics section sits between the extent index and the
        # first extent; it is eagerly decoded so ordering decisions
        # never force an extent materialization
        stats_off = index_off + index_len + _STATS_PREFIX.size
        stats_prefix = bytes(buffer[index_off + index_len:stats_off])
        if len(stats_prefix) < _STATS_PREFIX.size:
            raise StorageError(f"{label}: truncated statistics section")
        stats_len, stats_crc = _STATS_PREFIX.unpack(stats_prefix)
        if stats_off + stats_len > file_len:
            raise StorageError(f"{label}: statistics section is "
                               "out of bounds")
        stats = _read_section(buffer, stats_off, stats_len, stats_crc,
                              f"{label}: statistics section", read_stats)
        if stats.predicates and max(stats.predicates) > num_predicates:
            raise StorageError(f"{label}: statistics refer to "
                               "unknown predicates")
        page = 1 << page_shift
        data_start = stats_off + stats_len
        extents: dict[int, tuple[int, int, int, int]] = {}
        total = 0
        for pid, (offset, length, pair_count, crc) in enumerate(
                _EXTENT.iter_unpack(index_bytes), start=1):
            if (length == 0) != (pair_count == 0):
                raise StorageError(f"{label}: predicate {pid} extent "
                                   "index entry is inconsistent")
            if not length:
                continue
            if (offset % page or offset < data_start
                    or offset + length > file_len):
                raise StorageError(f"{label}: predicate {pid} extent "
                                   "is out of bounds")
            extents[pid] = (offset, length, pair_count, crc)
            total += pair_count
        if total != num_triples:
            raise StorageError(f"{label}: extent index triple count "
                               f"{total} disagrees with header "
                               f"{num_triples}")

        self.dictionary = dictionary
        self._buffer = buffer
        self._label = label
        self._mapping = mapping
        self._file = file
        #: pid -> (offset, length, pair_count, crc), non-empty only
        self._extents = extents
        self._pids = sorted(extents)
        self._total = num_triples
        self._stats = stats
        self._so_lru: StripedLRUCache[int, Pairs] = (
            StripedLRUCache(EXTENT_CACHE_SIZE))
        self._os_lru: StripedLRUCache[int, Pairs] = (
            StripedLRUCache(OS_PROJECTION_CACHE_SIZE))
        self._counter_lock = threading.Lock()
        self.materializations = 0
        self._closed = False

    @classmethod
    def open(cls, path: str) -> "ExtentSource":
        """Memory-map the image at *path* (lazy; O(dictionary) work)."""
        try:
            # lbr: allow[resource-raw-open]: mmap.mmap needs a real OS file descriptor; fsio handles cannot provide one
            file = open(path, "rb")
        except OSError as exc:
            raise StorageError(
                f"cannot open store image {path}: {exc}") from exc
        mapping = None
        try:
            try:
                mapping = mmap.mmap(file.fileno(), 0,
                                    access=mmap.ACCESS_READ)
            except (ValueError, OSError) as exc:
                raise StorageError(
                    f"cannot map store image {path}: {exc}") from exc
            return cls(mapping, path, mapping=mapping, file=file)
        except BaseException:
            if mapping is not None:
                mapping.close()
            file.close()
            raise

    # -- the PairSource surface ----------------------------------------

    def pids(self) -> list[int]:
        return self._pids

    def so_pairs(self, pid: int) -> Pairs:
        extent = self._extents.get(pid)
        if extent is None:
            return []
        pairs = self._so_lru.get(pid)
        if pairs is None:
            pairs = self._decode(pid, extent)
            self._so_lru.put(pid, pairs)
        return pairs

    def os_pairs(self, pid: int) -> Pairs:
        if pid not in self._extents:
            return []
        pairs = self._os_lru.get(pid)
        if pairs is None:
            pairs = sorted((oid, sid) for sid, oid in self.so_pairs(pid))
            self._os_lru.put(pid, pairs)
        return pairs

    def count(self, pid: int) -> int:
        extent = self._extents.get(pid)
        return 0 if extent is None else extent[2]

    def total(self) -> int:
        return self._total

    def stats(self) -> StoreStats:
        return self._stats

    def prepare(self) -> None:
        # everything lazily derived already sits behind striped LRUs;
        # a prebuild would materialize every extent
        pass

    def cache_stats(self) -> dict[str, dict[str, int]]:
        extents = self._so_lru.stats()
        extents["materializations"] = self.materializations
        extents["extents"] = len(self._pids)
        return {"extents": extents, "os_pairs": self._os_lru.stats()}

    def close(self) -> None:
        self._closed = True
        if self._mapping is not None:
            self._mapping.close()
        if self._file is not None:
            self._file.close()

    def _decode(self, pid: int,
                extent: tuple[int, int, int, int]) -> Pairs:
        if self._closed:
            raise StorageError(f"{self._label}: store is closed")
        offset, length, pair_count, crc = extent
        blob = bytes(self._buffer[offset:offset + length])
        if zlib.crc32(blob) != crc:
            raise StorageError(f"{self._label}: predicate {pid} "
                               "extent checksum mismatch")
        data = io.BytesIO(blob)
        pairs = read_pairs(data)
        if len(pairs) != pair_count or data.read(1):
            raise StorageError(f"{self._label}: predicate {pid} "
                               "extent is corrupt")
        with self._counter_lock:
            self.materializations += 1
        return pairs


def _read_section(buffer, offset: int, length: int, crc: int,
                  what: str, reader):
    """Decode one CRC-checked section; *reader* must consume it whole."""
    payload = bytes(buffer[offset:offset + length])
    if zlib.crc32(payload) != crc:
        raise StorageError(f"{what} checksum mismatch")
    data = io.BytesIO(payload)
    value = reader(data)
    if data.read(1):
        raise StorageError(f"{what} has trailing bytes")
    return value
