"""LiveGraphStore: durable, updatable storage over WAL + overlays.

On-disk layout (one directory)::

    MANIFEST            JSON: base image name, base_seq, WAL segments
    base-<seq>.lbrm     frozen store image (LBRMMAP1, CRC'd per section)
    wal-<seq>.log       WAL segments; <seq> is the first batch inside

The manifest is the recovery root and the *only* file updated in
place — always atomically (temp file → fsync → rename → directory
fsync), so a crash sees either the old or the new manifest, each of
which names a complete, consistent (image, segments) set.  Files are
deleted only after the manifest that stops referencing them is
durable, and anything in the directory the manifest does not name is
an orphan from an interrupted checkpoint, removed at open.

Write path (single writer, serialized by a lock):

1. normalize the batch into the cumulative :class:`TripleDelta`;
2. append it to the current WAL segment and **fsync — the commit
   point**;
3. publish a fresh :func:`~repro.update.overlay.overlay` store (base +
   delta) through the ``on_publish`` callback — readers on older
   snapshots are untouched (copy-on-write).

If the overlay cannot represent the batch
(:class:`~repro.update.overlay.SharedRegionViolation`: a term now on
both S and O outside the base's shared region), the store checkpoints
synchronously — rebuilds the base with a recomputed shared region —
and publishes that instead; the WAL record is already durable either
way.

Compaction runs in the background: it seals the current segment
(rotates to a new one so writers never block), materializes base +
delta into a new deterministic frozen store out of band, then briefly
takes the writer lock to swap — rebase the delta of batches committed
meanwhile onto the new base, write the image + manifest, drop the old
files.  A compaction that loses the race with a synchronous
checkpoint aborts harmlessly.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Callable, Iterable

from ..bitmat.backend import open_image
from ..bitmat.mmapstore import dump_mmap_bytes
from ..bitmat.store import BitMatStore
from ..exceptions import StorageError, internal_error
from ..fsio import atomic_write, join_path
from ..rdf.graph import Graph
from ..rdf.terms import Triple
from .faultfs import FileSystem, RealFS
from .overlay import (SharedRegionViolation, TripleDelta, overlay,
                      store_has_triple)
from .wal import WriteAheadLog, replay_wal

MANIFEST = "MANIFEST"
_MANIFEST_FORMAT = 1


@dataclass(frozen=True)
class LiveConfig:
    """Compaction policy of one live store."""

    #: compact when the delta diverges from the base by this many
    #: triples (None = only explicit :meth:`LiveGraphStore.compact`)
    compact_threshold: int | None = 10_000
    #: run compactions on a background thread; off = compaction only
    #: happens inline via :meth:`LiveGraphStore.compact` (deterministic
    #: operation schedules for the crash-recovery property suite)
    background: bool = True


_join = join_path


class LiveGraphStore:
    """One durable graph: base image + WAL segments + delta overlay."""

    def __init__(self, directory: str, fs: FileSystem | None = None,
                 config: LiveConfig | None = None,
                 on_publish: Callable[[BitMatStore], None] | None = None,
                 ) -> None:
        self.directory = directory
        self.fs = fs or RealFS()
        self.config = config or LiveConfig()
        self.on_publish = on_publish
        self._write_lock = threading.RLock()
        self._base: BitMatStore | None = None
        self._base_seq = 0
        self._image = ""  # current base image file name (manifest root)
        self._segments: list[str] = []
        self._delta = TripleDelta.empty()
        self._wal: WriteAheadLog | None = None
        self._current: BitMatStore | None = None
        #: batches committed while a compaction is in flight (for the
        #: delta rebase at swap time); None = no compaction running
        self._compaction_log: list[tuple[tuple, tuple]] | None = None
        self._counters = {"batches": 0, "compactions": 0, "checkpoints": 0,
                          "compaction_failures": 0, "recovered_batches": 0}
        self._compact_event = threading.Event()
        self._compactor: threading.Thread | None = None
        self._last_compaction_error: Exception | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # opening / recovery
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, directory: str, fs: FileSystem | None = None,
             config: LiveConfig | None = None,
             on_publish: Callable[[BitMatStore], None] | None = None,
             initial: Graph | BitMatStore | None = None,
             ) -> "LiveGraphStore":
        """Open (recovering) or initialize a live store directory.

        *initial* (a graph or prebuilt store) seeds a brand-new
        directory only; when a manifest already exists the directory
        recovers from disk and *initial* is ignored, so re-opening
        after a crash can never discard recovered state.
        """
        store = cls(directory, fs=fs, config=config, on_publish=on_publish)
        store.fs.makedirs(directory)
        if store.fs.exists(_join(directory, MANIFEST)):
            store._recover()
        else:
            store._initialize(initial)
        try:
            store._publish_current()
        except SharedRegionViolation:
            # the replayed delta contains a batch that forced a rebuild
            # before the crash; recovery takes the same path
            store._checkpoint()
        if store.config.background:
            store._start_compactor()
        return store

    def _initialize(self, initial: Graph | BitMatStore | None) -> None:
        if isinstance(initial, BitMatStore):
            seed = initial
        else:
            seed = BitMatStore.build(initial if initial is not None
                                     else Graph())
        self._base_seq = 0
        image = self._image_name()
        self._write_file(image, dump_mmap_bytes(seed))
        # the base *is* the on-disk image: serve the store reopened from
        # the bytes just written (lazy, page-cache-backed reads), never
        # the transient in-memory build
        base = self._open_image(image)
        base.freeze()
        self._base = base
        self._image = image
        segment = self._segment_name(1)
        self._segments = [segment]
        self._write_manifest(image)
        self._wal = WriteAheadLog(_join(self.directory, segment),
                                  fs=self.fs, next_seq=1).open()

    def _recover(self) -> None:
        manifest = self._read_manifest()
        image = manifest["base"]
        self._base_seq = manifest["base_seq"]
        self._segments = list(manifest["segments"])
        base = self._open_image(image)
        base.freeze()
        self._base = base
        self._image = image
        self._delta = TripleDelta.empty()
        next_seq = self._base_seq + 1
        for segment in self._segments:
            records = replay_wal(self.fs, _join(self.directory, segment),
                                 first_seq=next_seq)
            for record in records:
                self._delta = self._delta.apply_batch(
                    record.adds, record.deletes,
                    lambda triple: store_has_triple(base, triple))
            next_seq += len(records)
            self._counters["recovered_batches"] += len(records)
        self._wal = WriteAheadLog(
            _join(self.directory, self._segments[-1]),
            fs=self.fs, next_seq=next_seq).open()
        self._remove_orphans(keep={MANIFEST, image, *self._segments})

    def _remove_orphans(self, keep: set[str]) -> None:
        for name in self.fs.listdir(self.directory):
            if name not in keep:
                self.fs.remove(_join(self.directory, name))

    # ------------------------------------------------------------------
    # manifest / file plumbing
    # ------------------------------------------------------------------

    def _segment_name(self, first_seq: int) -> str:
        return f"wal-{first_seq:08d}.log"

    def _image_name(self) -> str:
        return f"base-{self._base_seq:08d}.lbrm"

    def _open_image(self, name: str) -> BitMatStore:
        """Open a base image through the filesystem seam."""
        return open_image(self.fs, _join(self.directory, name))

    def _write_file(self, name: str, payload: bytes) -> None:
        """Atomic durable write: temp → fsync → rename → dir fsync."""
        atomic_write(self.fs, _join(self.directory, name), payload)

    def _write_manifest(self, image: str) -> None:
        manifest = {"format": _MANIFEST_FORMAT, "base": image,
                    "base_seq": self._base_seq,
                    "segments": self._segments}
        payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
        self._write_file(MANIFEST, payload)

    def _read_manifest(self) -> dict:
        payload = self.fs.read_bytes(_join(self.directory, MANIFEST))
        try:
            manifest = json.loads(payload)
        except ValueError as exc:
            raise StorageError(f"corrupt manifest: {exc}") from exc
        if manifest.get("format") != _MANIFEST_FORMAT:
            raise StorageError(
                f"unsupported manifest format {manifest.get('format')!r}")
        return manifest

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def current_store(self) -> BitMatStore:
        """The latest published (frozen) store."""
        return self._current

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently committed batch."""
        return self._wal.next_seq - 1

    def stats(self) -> dict:
        with self._write_lock:
            return {**self._counters, "last_seq": self.last_seq,
                    "base_seq": self._base_seq,
                    "delta_size": self._delta.size,
                    "segments": len(self._segments),
                    "visible_triples": self._current.num_triples,
                    "compacting": self._compaction_log is not None,
                    "last_compaction_error":
                        (str(self._last_compaction_error)
                         if self._last_compaction_error else None)}

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def apply_batch(self, adds: Iterable[Triple],
                    deletes: Iterable[Triple]) -> dict:
        """Atomically commit one batch of adds/deletes.

        Returns a summary dict once the batch is durable *and* visible
        to new readers.  Deletes apply before adds, so a triple in
        both ends up present.
        """
        adds = tuple(adds)
        deletes = tuple(deletes)
        with self._write_lock:
            if self._closed:
                raise StorageError("live store is closed")
            base = self._base
            candidate = self._delta.apply_batch(
                adds, deletes,
                lambda triple: store_has_triple(base, triple))
            record = self._wal.append_batch(adds, deletes)
            # ---- durable from here on: everything below must succeed
            #      or be reconstructible by recovery ----
            self._counters["batches"] += 1
            if self._compaction_log is not None:
                self._compaction_log.append((adds, deletes))
            checkpointed = False
            try:
                self._delta = candidate
                self._publish_current()
            except SharedRegionViolation:
                # the overlay cannot represent this batch: rebuild the
                # base (recomputing the shared region) synchronously
                self._checkpoint()
                checkpointed = True
            if (not checkpointed
                    and self.config.compact_threshold is not None
                    and self._delta.size >= self.config.compact_threshold):
                self.request_compaction()
            return {"seq": record.seq,
                    "added": len(adds), "deleted": len(deletes),
                    "delta_size": self._delta.size,
                    "visible_triples": self._current.num_triples,
                    "checkpointed": checkpointed}

    def _publish_current(self) -> None:
        """Rebuild and publish the visible store for the current delta.

        Reference protocol: the live store owns one reference on
        ``_current`` (dropped when the next publication replaces it, or
        at :meth:`close`), and the ``on_publish`` callback *adopts* a
        reference of its own — the snapshot machinery closes it when
        the snapshot retires.  This is exactly what keeps the mapped
        base image from being unmapped under a reader.
        """
        if self._delta.is_empty():
            store = self._base.retain()
        else:
            # the overlay's creation reference is ours; it retains the
            # base internally for as long as it lives
            store = overlay(self._base, self._delta)
            store.freeze()
        previous = self._current
        self._current = store
        if previous is not None:
            previous.close()
        if self.on_publish is not None:
            self.on_publish(store.retain())

    def _materialize(self, base: BitMatStore,
                     delta: TripleDelta) -> BitMatStore:
        """base − deleted + added, rebuilt as a deterministic store."""
        graph = Graph(triple for triple in base.iter_triples()
                      if triple not in delta.deleted)
        graph.add_all(delta.added)
        store = BitMatStore.build(graph)
        store.freeze()
        return store

    def _checkpoint(self) -> None:
        """Synchronously rebuild the base from base + delta.

        Caller holds the writer lock.  Also the swap step of a
        background compaction when no batches raced it.
        """
        new_base = self._materialize(self._base, self._delta)
        self._install_base(new_base, self.last_seq)
        self._counters["checkpoints"] += 1
        self._publish_current()

    def _install_base(self, new_base: BitMatStore, base_seq: int) -> None:
        """Make *new_base* the recovery root as of batch *base_seq*.

        Caller holds the writer lock and guarantees ``self._delta``
        already reflects only batches after *base_seq* (empty for a
        synchronous checkpoint, rebased for a compaction swap).

        The rebuilt in-memory *new_base* only exists to be serialized:
        the base that actually serves reads is reopened from the image
        just written ("the base is the on-disk image"), so a restart
        recovers into the *same* store the live process was using —
        and the resident set stays bounded by the predicates queries
        actually touch.
        """
        old_base = self._base
        old_names = {self._image, *self._segments}
        self._base_seq = base_seq
        self._delta = (self._delta if base_seq < self.last_seq
                       else TripleDelta.empty())
        image = self._image_name()
        self._write_file(image, dump_mmap_bytes(new_base))
        new_base.close()
        base = self._open_image(image)
        base.freeze()
        self._base = base
        self._image = image
        # preserve the live sequence counter: in a compaction swap the
        # surviving segment already holds batches committed during the
        # rebuild, and their seqs must never be reissued
        next_seq = self._wal.next_seq
        self._wal.close()
        segment = self._segment_name(base_seq + 1)
        self._segments = [segment]
        self._wal = WriteAheadLog(_join(self.directory, segment),
                                  fs=self.fs, next_seq=next_seq).open()
        self._write_manifest(image)
        # the new manifest is durable: the old generation's files are
        # garbage now (crash here leaves orphans, removed at next open)
        for name in old_names - {image, segment}:
            if self.fs.exists(_join(self.directory, name)):
                # unlinking a mapped image is POSIX-safe: readers still
                # holding the old base (via snapshot/overlay references)
                # keep its pages until their last reference closes it
                self.fs.remove(_join(self.directory, name))
        self.fs.fsync_dir(self.directory)
        if old_base is not None:
            old_base.close()

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    def request_compaction(self) -> None:
        """Ask for a compaction (background thread, or a no-op marker
        consumed by the next explicit :meth:`compact`)."""
        self._compact_event.set()

    def compact(self) -> bool:
        """Run one compaction now (inline); True when a swap happened.

        Safe to call concurrently with writers: only the rotation and
        the swap take the writer lock, the rebuild itself runs
        unlocked.
        """
        self._compact_event.clear()
        with self._write_lock:
            if self._closed or self._compaction_log is not None:
                return False
            if self._delta.is_empty():
                return False
            # retain the base across the unlocked rebuild: a racing
            # synchronous checkpoint may drop the live store's own
            # reference mid-materialize
            base = self._base.retain()
            delta = self._delta
            seal_seq = self.last_seq
            try:
                # rotate: seal the current segment, open the next one,
                # and record both in the manifest so a crash
                # mid-compaction recovers every committed batch from
                # the sealed ones
                self._wal.close()
                segment = self._segment_name(seal_seq + 1)
                self._segments.append(segment)
                self._wal = WriteAheadLog(
                    _join(self.directory, segment), fs=self.fs,
                    next_seq=seal_seq + 1).open()
                self._write_manifest(self._image_name())
                self._compaction_log = []
            except BaseException:
                # a failed rotation must not strand the retained base
                base.close()
                raise
        try:
            new_base = self._materialize(base, delta)
        except BaseException:
            with self._write_lock:
                self._compaction_log = None
            raise
        finally:
            base.close()
        with self._write_lock:
            racing = self._compaction_log
            self._compaction_log = None
            if self._base is not base:
                # a synchronous checkpoint replaced the base while we
                # were rebuilding; our result is stale — drop it
                return False
            rebased = TripleDelta.empty()
            for adds, deletes in racing:
                rebased = rebased.apply_batch(
                    adds, deletes,
                    lambda triple: store_has_triple(new_base, triple))
            self._delta = rebased
            self._install_base(new_base, seal_seq)
            self._counters["compactions"] += 1
            self._publish_current()
            return True

    def _start_compactor(self) -> None:
        def loop() -> None:
            while True:
                self._compact_event.wait()
                if self._closed:
                    return
                try:
                    self.compact()
                except Exception as exc:  # pragma: no cover - defensive
                    # a failed background compaction must not kill the
                    # thread (the WAL keeps everything durable and the
                    # next trigger retries), but it must be typed and
                    # counted so stats()/soak gates see it
                    with self._write_lock:
                        self._counters["compaction_failures"] += 1
                        self._last_compaction_error = internal_error(exc)

        self._compactor = threading.Thread(target=loop, daemon=True,
                                           name="lbr-compactor")
        self._compactor.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Flush and fsync the WAL without closing (graceful drain)."""
        with self._write_lock:
            if not self._closed and self._wal is not None:
                self._wal.sync()

    def close(self) -> None:
        """Flush and fsync the WAL, stop the compactor, drop store refs."""
        with self._write_lock:
            if self._closed:
                return
            self._closed = True
            if self._wal is not None:
                self._wal.close()
        self._compact_event.set()  # wake the compactor so it exits
        if self._compactor is not None:
            self._compactor.join(timeout=10)
        # drop the live store's own references; published snapshots
        # hold their own, so readers drain before anything unmaps
        with self._write_lock:
            if self._current is not None:
                self._current.close()
            if self._base is not None:
                self._base.close()

    def __enter__(self) -> "LiveGraphStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
