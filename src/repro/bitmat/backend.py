"""The store surface and the image openers.

:class:`StoreBackend` names what the engine, server, planner and live
store consume of a store, so they can hold one without importing the
concrete :class:`~repro.bitmat.store.BitMatStore` (``repro.plan`` must
not depend on the engine's store).  There is one store class and one
image format; what varies is the pair source behind the store
(:mod:`repro.bitmat.source`).

Openers come in two flavors because the callers do: :func:`open_store`
works on a real path (a true ``mmap``), while :func:`open_store_bytes`
serves a payload that already lives in memory.  :func:`open_image`
picks between them behind the :class:`~repro.fsio.FileSystem` seam:
the production filesystem gets the mmap fast path, fault-injection
filesystems read through their own (crash-countable) ``read_bytes``.
All three return a lazily decoding store; anything that is not an
``LBRMMAP1`` image is a typed :class:`~repro.exceptions.StorageError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

from ..fsio import FileSystem, RealFS
from ..rdf.dictionary import Dictionary
from ..rdf.terms import Term, Triple
from .bitmat import BitMat
from .bitvec import BitVector
from .mmapstore import LEGACY_PREFIX, MAGIC, ExtentSource
from .store import BitMatStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .stats import StoreStats


@runtime_checkable
class StoreBackend(Protocol):
    """The store surface the engine, server, and overlays consume.

    Anything satisfying this protocol can sit behind an
    :class:`~repro.core.engine.LBREngine`, be published as a server
    snapshot, or act as the base of an overlay.  The lifecycle trio
    (``retain``/``close``/``frozen``) is part of the contract so
    holders of backing resources (mmap handles) can be reference
    counted by code that neither knows nor cares what the store's
    pair source is.
    """

    dictionary: Dictionary

    # statistics
    @property
    def num_triples(self) -> int: ...
    @property
    def num_subjects(self) -> int: ...
    @property
    def num_objects(self) -> int: ...
    @property
    def num_predicates(self) -> int: ...
    @property
    def num_shared(self) -> int: ...
    def predicate_count(self, pid: int) -> int: ...
    def count_matching(self, sid: int | None, pid: int | None,
                       oid: int | None) -> int: ...

    # BitMat loading (Alg 5.1 init surface)
    def load_so(self, pid: int) -> BitMat: ...
    def load_os(self, pid: int) -> BitMat: ...
    def load_ps_row(self, pid: int, oid: int) -> BitVector: ...
    def load_po_row(self, pid: int, sid: int) -> BitVector: ...
    def load_ps(self, oid: int) -> BitMat: ...
    def load_po(self, sid: int) -> BitMat: ...

    # membership / enumeration
    def has_triple(self, sid: int, pid: int, oid: int) -> bool: ...
    def diagonal_positions(self, pid: int) -> list[int]: ...
    def iter_triples(self) -> Iterator[Triple]: ...
    def encode_term(self, term: Term, position: str) -> int | None: ...

    # per-predicate statistics for the cost-based ordering pass
    # (:class:`~repro.bitmat.stats.StoreStats` or None = heuristic)
    def stats(self) -> "StoreStats | None": ...

    # lifecycle
    def freeze(self) -> "StoreBackend": ...
    @property
    def frozen(self) -> bool: ...
    def retain(self) -> "StoreBackend": ...
    def close(self) -> None: ...
    @property
    def closed(self) -> bool: ...
    def cache_stats(self) -> dict[str, dict[str, int]]: ...


def is_store_image(path: str) -> bool:
    """True when *path* starts with a store magic — the current one or
    the retired one, which :func:`open_store` rejects with a hint."""
    try:
        # lbr: allow[resource-raw-open]: read-only magic sniff; fault injection targets writes, not 8-byte reads
        with open(path, "rb") as handle:
            prefix = handle.read(len(MAGIC))
    except OSError:
        return False
    return prefix in (MAGIC, LEGACY_PREFIX)


def open_store(path: str) -> BitMatStore:
    """Memory-map the image at *path* (lazy; O(dictionary) work)."""
    source = ExtentSource.open(path)
    return BitMatStore(source.dictionary, source)


def open_store_bytes(payload: bytes,
                     source: str = "<bytes>") -> BitMatStore:
    """The same lazy store over an image already in memory (no mmap)."""
    extents = ExtentSource(payload, source)
    return BitMatStore(extents.dictionary, extents)


def open_image(fs: FileSystem, path: str) -> BitMatStore:
    """Open an image through the filesystem seam.

    The production :class:`~repro.fsio.RealFS` takes the :func:`open_store`
    fast path (a true ``mmap``); any other filesystem — in-memory,
    fault-injecting — reads through its own ``read_bytes`` so recovery
    I/O stays visible to crash injection.
    """
    if isinstance(fs, RealFS):
        return open_store(path)
    return open_store_bytes(fs.read_bytes(path), source=path)
