"""BitMat store: the four index families of §4 over one RDF graph.

The paper stores ``2·|Vp| + |Vs| + |Vo|`` BitMats on disk — S-O and O-S
per predicate, P-O per subject, P-S per object — and loads, per query,
only the BitMats matching its triple patterns.  This store reads the
encoded dataset as per-predicate sorted id pairs (the S-O and O-S
projections) from a :class:`~repro.bitmat.source.PairSource` — decoded
lists in memory, the lazily decoded extents of an on-disk image, or
another store's source merged with a delta — and materializes
compressed BitMats on demand:

* ``(?a :p ?b)``    → the S-O or O-S BitMat of ``:p``;
* ``(?v :p :o)``    → one row of the P-S BitMat of ``:o`` — served by a
  binary-searched range of the O-S projection of ``:p``;
* ``(:s :p ?v)``    → one row of the P-O BitMat of ``:s`` — served by a
  range of the S-O projection of ``:p``;
* ``(?s ?p :o)`` / ``(:s ?p ?o)`` → full P-S / P-O BitMats.

Serving single rows from the sorted projections is an exact functional
match for the paper's "we load only one row corresponding to :fx1 from
the P-S BitMat for :fx2", without duplicating the dataset four times in
memory.  The full-index *sizes* (for the §6.2 index-size experiment) are
computed streaming by :meth:`BitMatStore.index_size_report`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable

from ..exceptions import StorageError
from ..lru import LRUCache, StripedLRUCache
from ..rdf.dictionary import Dictionary
from ..rdf.graph import Graph
from ..rdf.terms import Term, Triple
from .bitmat import BitMat
from .bitvec import BitVector
from .source import MemorySource, PairSource

#: Bounded cache sizes for the on-demand BitMat materializations.  The
#: per-predicate matrices are few but large (one per predicate of the
#: workload's templates); the P-S/P-O rows are tiny but numerous (one
#: per (predicate, entity) constant pair seen in queries).
MATRIX_CACHE_SIZE = 512
ROW_CACHE_SIZE = 8192
ENTITY_CACHE_SIZE = 256


class BitMatStore:
    """Dictionary-encoded dataset plus on-demand compressed BitMats.

    The one concrete store: what differs between an in-memory build, an
    opened image and a delta overlay is the *source* it reads pairs
    from.  An overlay also names its *parent* (the store it was laid
    over) and the predicates its delta *touched*: every other
    predicate's BitMats are the parent's, and are served from the
    parent's warm caches.
    """

    def __init__(self, dictionary: Dictionary, source: PairSource,
                 parent: "BitMatStore | None" = None,
                 touched: frozenset = frozenset()) -> None:
        self.dictionary = dictionary
        self.source = source
        self._triple_count = source.total()
        #: retained until the last close(): its source backs ours
        self._parent = parent.retain() if parent is not None else None
        self._touched = touched
        #: matrices carry their dimensions, so the parent's are reusable
        #: only while the overlay's new terms have not grown them
        self._parent_dims = parent is not None and (
            dictionary.num_subjects == parent.num_subjects
            and dictionary.num_objects == parent.num_objects
            and dictionary.num_predicates == parent.num_predicates)
        #: references to the backing resources: born at one (the
        #: creator's), the source is closed when the last is dropped
        self._refs = 1
        self._refs_lock = threading.Lock()
        # Warm-cache behaviour (§6.1 runs every query once to warm the
        # caches before measuring): every materialization is immutable —
        # pruning `unfold`s into fresh objects — so it is shared across
        # queries once built.  All caches are bounded LRUs so arbitrary
        # workloads cannot grow memory without limit.
        self._so_cache: LRUCache[int, BitMat] = LRUCache(MATRIX_CACHE_SIZE)
        self._os_cache: LRUCache[int, BitMat] = LRUCache(MATRIX_CACHE_SIZE)
        #: ('ps', pid, oid) / ('po', pid, sid) -> single-row BitVector
        self._row_cache: LRUCache[tuple, BitVector] = LRUCache(ROW_CACHE_SIZE)
        #: ('ps', oid) / ('po', sid) -> full P-S / P-O BitMat
        self._entity_cache: LRUCache[tuple, BitMat] = (
            LRUCache(ENTITY_CACHE_SIZE))
        #: set by :meth:`freeze` when the store was published for
        #: concurrent read-only serving
        self._frozen = False

    @classmethod
    def build(cls, graph: Graph,
              dictionary: Dictionary | None = None) -> "BitMatStore":
        """Encode *graph* and build the store."""
        dictionary = (dictionary if dictionary is not None
                      else Dictionary.from_triples(graph))
        so_by_p: dict[int, list[tuple[int, int]]] = {}
        for triple in graph:
            sid, pid, oid = dictionary.encode_triple(triple)
            so_by_p.setdefault(pid, []).append((sid, oid))
        for pairs in so_by_p.values():
            pairs.sort()
        return cls(dictionary, MemorySource(so_by_p))

    # ------------------------------------------------------------------
    # basic statistics
    # ------------------------------------------------------------------

    @property
    def num_triples(self) -> int:
        """Total triples in the dataset."""
        return self._triple_count

    @property
    def num_subjects(self) -> int:
        return self.dictionary.num_subjects

    @property
    def num_objects(self) -> int:
        return self.dictionary.num_objects

    @property
    def num_predicates(self) -> int:
        return self.dictionary.num_predicates

    @property
    def num_shared(self) -> int:
        """|Vso| — size of the shared S/O id region (Appendix D)."""
        return self.dictionary.num_shared

    def predicate_count(self, pid: int) -> int:
        """Triples with predicate id *pid*."""
        return self.source.count(pid)

    def count_matching(self, sid: int | None, pid: int | None,
                       oid: int | None) -> int:
        """Triples matching an id pattern (None = wildcard).

        This is the selectivity statistic (§3.2): the store answers it
        from the sorted projections without materializing a BitMat —
        the paper's "condensed representation ... helps us in quickly
        determining the number of triples in each BitMat".
        """
        source = self.source
        if pid is None:
            return sum(self.count_matching(sid, other_pid, oid)
                       for other_pid in source.pids())
        if sid is None and oid is None:
            return source.count(pid)
        if oid is None:
            return _range_len(source.so_pairs(pid), sid)
        if sid is None:
            return _range_len(source.os_pairs(pid), oid)
        return int(self.has_triple(sid, pid, oid))

    # ------------------------------------------------------------------
    # BitMat loading (the init() of Alg 5.1)
    # ------------------------------------------------------------------

    def _inherits(self, pid: int) -> bool:
        """Are the parent's BitMats of *pid* also this store's?"""
        return self._parent_dims and pid not in self._touched

    def load_so(self, pid: int) -> BitMat:
        """S-O BitMat of a predicate: rows are subjects, cols are objects."""
        if self._inherits(pid):
            return self._parent.load_so(pid)
        cached = self._so_cache.get(pid)
        if cached is None:
            cached = BitMat.from_sorted_pairs(
                self.num_subjects + 1, self.num_objects + 1,
                self.source.so_pairs(pid))
            self._so_cache.put(pid, cached)
        return cached

    def load_os(self, pid: int) -> BitMat:
        """O-S BitMat of a predicate (transpose of :meth:`load_so`)."""
        if self._inherits(pid):
            return self._parent.load_os(pid)
        cached = self._os_cache.get(pid)
        if cached is None:
            cached = BitMat.from_sorted_pairs(
                self.num_objects + 1, self.num_subjects + 1,
                self.source.os_pairs(pid))
            self._os_cache.put(pid, cached)
        return cached

    def load_ps_row(self, pid: int, oid: int) -> BitVector:
        """Row *pid* of the P-S BitMat of object *oid*.

        The subjects ``?v`` matching ``(?v  pid  oid)``.
        """
        if self._inherits(pid):
            return self._parent.load_ps_row(pid, oid)
        key = ("ps", pid, oid)
        cached = self._row_cache.get(key)
        if cached is None:
            pairs = self.source.os_pairs(pid)
            sids = [sid for _, sid in _iter_range(pairs, oid)]
            cached = BitVector.from_positions(self.num_subjects + 1, sids)
            self._row_cache.put(key, cached)
        return cached

    def load_po_row(self, pid: int, sid: int) -> BitVector:
        """Row *pid* of the P-O BitMat of subject *sid*.

        The objects ``?v`` matching ``(sid  pid  ?v)``.
        """
        if self._inherits(pid):
            return self._parent.load_po_row(pid, sid)
        key = ("po", pid, sid)
        cached = self._row_cache.get(key)
        if cached is None:
            pairs = self.source.so_pairs(pid)
            oids = [oid for _, oid in _iter_range(pairs, sid)]
            cached = BitVector.from_sorted_positions(self.num_objects + 1,
                                                     oids)
            self._row_cache.put(key, cached)
        return cached

    def load_ps(self, oid: int) -> BitMat:
        """Full P-S BitMat of object *oid*: rows predicates, cols subjects.

        Rows are built directly from the sorted projections rather than
        through :meth:`load_ps_row`, so one entity materialization does
        not flood the row LRU with ``|Vp|`` one-shot entries.
        """
        key = ("ps", oid)
        cached = self._entity_cache.get(key)
        if cached is not None:
            return cached
        width = self.num_subjects + 1
        rows: dict[int, BitVector] = {}
        source = self.source
        for pid in source.pids():
            sids = [sid for _, sid in _iter_range(source.os_pairs(pid), oid)]
            if sids:
                rows[pid] = BitVector.from_positions(width, sids)
        matrix = BitMat(self.num_predicates + 1, width, rows)
        self._entity_cache.put(key, matrix)
        return matrix

    def load_po(self, sid: int) -> BitMat:
        """Full P-O BitMat of subject *sid*: rows predicates, cols objects.

        Built directly from the sorted projections (see :meth:`load_ps`).
        """
        key = ("po", sid)
        cached = self._entity_cache.get(key)
        if cached is not None:
            return cached
        width = self.num_objects + 1
        rows: dict[int, BitVector] = {}
        source = self.source
        for pid in source.pids():
            oids = [oid for _, oid in _iter_range(source.so_pairs(pid), sid)]
            if oids:
                rows[pid] = BitVector.from_sorted_positions(width, oids)
        matrix = BitMat(self.num_predicates + 1, width, rows)
        self._entity_cache.put(key, matrix)
        return matrix

    def freeze(self) -> "BitMatStore":
        """Prepare the store for concurrent read-only serving.

        Runs the source's pre-publication hook (an in-memory source
        pre-builds its O-S pair lists, otherwise built on first touch —
        a mutation concurrent readers must never observe mid-build —
        and collects statistics; sources whose derived state already
        sits behind locked caches do nothing) and swaps
        every LRU for a lock-striped variant.  After this, cache
        insertion is the only write on any read path, and it is locked;
        the BitMat materializations themselves are immutable (pruning
        ``unfold``s into fresh per-query objects), and their lazy fold
        masks are idempotent pure computations whose racy double-build
        is benign.  Snapshot publication calls this once; a frozen
        store must not have triples added.
        """
        if self._frozen:
            return self
        self.source.prepare()
        self._so_cache = StripedLRUCache(MATRIX_CACHE_SIZE)
        self._os_cache = StripedLRUCache(MATRIX_CACHE_SIZE)
        self._row_cache = StripedLRUCache(ROW_CACHE_SIZE)
        self._entity_cache = StripedLRUCache(ENTITY_CACHE_SIZE)
        self.dictionary.freeze()
        self._frozen = True
        return self

    def stats(self):
        """Per-predicate statistics, or None when the source has none.

        Collected by ``freeze()`` on in-memory stores, read from the
        image on opened ones, absent on overlays; the cost-based
        ordering pass treats None as "use the static selectivity
        heuristic"."""
        return self.source.stats()

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` published this store for serving."""
        return self._frozen

    # ------------------------------------------------------------------
    # resource lifecycle
    # ------------------------------------------------------------------

    def retain(self) -> "BitMatStore":
        """Take one more reference to this store's backing resources.

        Every ``retain()`` must be paired with one :meth:`close`; this
        is what lets snapshot retirement close images without yanking
        them out from under in-flight readers.  Returns ``self`` so
        call sites can retain-and-pass in one expression.
        """
        with self._refs_lock:
            if not self._refs:
                raise StorageError("retain() on a closed store")
            self._refs += 1
        return self

    def close(self) -> None:
        """Release one reference; the last one closes the source (an
        opened image unmaps) and then lets go of the parent, which a
        merged source reads through for as long as it lives."""
        with self._refs_lock:
            if not self._refs:
                return
            self._refs -= 1
            if self._refs:
                return
        self.source.close()
        if self._parent is not None:
            self._parent.close()

    @property
    def closed(self) -> bool:
        """True once the last reference has been released."""
        return not self._refs

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Hit/miss/eviction counters of every store-level cache."""
        return {"so": self._so_cache.stats(), "os": self._os_cache.stats(),
                "rows": self._row_cache.stats(),
                "entities": self._entity_cache.stats(),
                **self.source.cache_stats()}

    def has_triple(self, sid: int, pid: int, oid: int) -> bool:
        """Membership test for a fully ground pattern."""
        pairs = self.source.so_pairs(pid)
        lo = bisect_left(pairs, (sid, oid))
        return lo < len(pairs) and pairs[lo] == (sid, oid)

    def diagonal_positions(self, pid: int) -> list[int]:
        """Shared ids ``x`` with the triple ``(x, pid, x)``.

        The diagonal of the S-O BitMat, restricted to the shared
        ``V_so`` region — the ids matching a ``(?v  pid  ?v)`` pattern
        (same variable on S and O).
        """
        return [sid for sid, oid in self.source.so_pairs(pid)
                if sid == oid and sid <= self.num_shared]

    def iter_triples(self):
        """Decode every stored triple, in (pid, sid, oid) id order.

        The compactor's source of truth: rebuilding from this stream
        yields a store whose visible dataset is exactly this one's.
        """
        dictionary = self.dictionary
        for pid in sorted(self.source.pids()):
            p_term = dictionary.predicate_term(pid)
            for sid, oid in self.source.so_pairs(pid):
                yield Triple(dictionary.subject_term(sid), p_term,
                             dictionary.object_term(oid))

    # ------------------------------------------------------------------
    # index-size accounting (§6.2)
    # ------------------------------------------------------------------

    def index_size_report(self) -> dict[str, int]:
        """Sizes of all ``2|Vp| + |Vs| + |Vo|`` BitMats, hybrid vs RLE.

        Streams over the sorted projections so the full index is never
        resident; returns byte totals per family and overall.
        """
        hybrid = {"so": 0, "os": 0, "po": 0, "ps": 0}
        rle = {"so": 0, "os": 0, "po": 0, "ps": 0}

        for pid in self.source.pids():
            so = self.load_so(pid)
            hybrid["so"] += so.storage_bytes()
            rle["so"] += so.rle_bytes()
            os_mat = self.load_os(pid)
            hybrid["os"] += os_mat.storage_bytes()
            rle["os"] += os_mat.rle_bytes()

        # P-O per subject and P-S per object, built streaming.
        po_rows: dict[int, dict[int, list[int]]] = {}
        ps_rows: dict[int, dict[int, list[int]]] = {}
        for pid in self.source.pids():
            for sid, oid in self.source.so_pairs(pid):
                po_rows.setdefault(sid, {}).setdefault(pid, []).append(oid)
                ps_rows.setdefault(oid, {}).setdefault(pid, []).append(sid)
        for family, per_entity, width in (
                ("po", po_rows, self.num_objects + 1),
                ("ps", ps_rows, self.num_subjects + 1)):
            for by_pid in per_entity.values():
                for positions in by_pid.values():
                    vec = BitVector.from_positions(width, positions)
                    hybrid[family] += 8 + vec.storage_bytes()
                    rle[family] += 8 + vec.rle_bytes()

        report = {f"hybrid_{family}": size for family, size in hybrid.items()}
        report.update({f"rle_{family}": size for family, size in rle.items()})
        report["hybrid_total"] = sum(hybrid.values())
        report["rle_total"] = sum(rle.values())
        return report

    # ------------------------------------------------------------------
    # term helpers
    # ------------------------------------------------------------------

    def encode_term(self, term: Term, position: str) -> int | None:
        """Id of *term* on dimension 's'/'p'/'o', or None when absent."""
        if position == "s":
            return self.dictionary.subject_id(term)
        if position == "p":
            return self.dictionary.predicate_id(term)
        if position == "o":
            return self.dictionary.object_id(term)
        raise StorageError(f"unknown position {position!r}")


def _range_len(pairs: list[tuple[int, int]], key: int) -> int:
    lo = bisect_left(pairs, (key, 0))
    hi = bisect_left(pairs, (key + 1, 0))
    return hi - lo


def _iter_range(pairs: list[tuple[int, int]],
                key: int) -> Iterable[tuple[int, int]]:
    lo = bisect_left(pairs, (key, 0))
    hi = bisect_left(pairs, (key + 1, 0))
    return pairs[lo:hi]
