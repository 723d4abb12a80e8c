"""Delta overlays: committed updates served without rebuilding BitMats.

A :class:`TripleDelta` is the *normalized* net effect of every batch
committed since the base store was frozen, kept in term space with
three invariants (``added ∩ base = ∅``, ``deleted ⊆ base``,
``added ∩ deleted = ∅``) so counts and membership compose exactly:
the visible dataset is ``base − deleted + added``, always.

:func:`overlay` lays a delta over a frozen base store: the result is a
plain :class:`~repro.bitmat.store.BitMatStore` whose pair source
(:class:`MergedSource`) lazily merges the base's pair lists with the
delta — untouched predicates return the base's list by identity (and
the store serves their BitMats from the base's warm caches), touched
predicates merge on first access.  Because every engine path — TP
initialization, pruning folds/unfolds, enumeration, selectivity — reads
the store through those pair lists, the overlay is consulted everywhere
without a single change to the execution code.

Dictionary growth is handled by :class:`DeltaDictionary`, which
extends the frozen base mapping with new term ids instead of copying
it.  The one thing an overlay *cannot* represent is a term that comes
to occur on both the subject and the object dimension without being in
the base's shared ``V_so`` region: S↔O joins translate ids only inside
``1..num_shared`` (Appendix D of the paper), so such a term would
silently miss joins.  Encoding detects this and raises
:class:`SharedRegionViolation`; the live store reacts by rebuilding the
base synchronously (a minor compaction), which re-derives the shared
region.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable

from ..bitmat.source import Pairs, PairSource
from ..bitmat.store import BitMatStore
from ..exceptions import DictionaryError
from ..rdf.dictionary import Dictionary, _sort_key
from ..rdf.terms import Term, Triple


class SharedRegionViolation(DictionaryError):
    """An update needs a term on both S and O outside the shared region.

    Raised at overlay construction; the caller must fall back to a
    full rebuild, which recomputes ``V_so`` to include the term.
    """

    def __init__(self, term: Term) -> None:
        super().__init__(
            f"term {term!r} now occurs as both subject and object but is "
            "outside the base store's shared id region; the overlay "
            "cannot represent it — a rebuild is required")
        self.term = term


def _triple_key(triple: Triple):
    return tuple(_sort_key(term) for term in triple)


@dataclass(frozen=True)
class TripleDelta:
    """Normalized net change against one frozen base store."""

    added: frozenset
    deleted: frozenset

    @classmethod
    def empty(cls) -> "TripleDelta":
        return cls(frozenset(), frozenset())

    def apply_batch(self, adds: Iterable[Triple],
                    deletes: Iterable[Triple],
                    base_has: Callable[[Triple], bool]) -> "TripleDelta":
        """Fold one batch in (deletes first, then adds).

        *base_has* answers membership in the frozen base; it is what
        keeps the invariants: deleting a never-visible triple and
        re-adding a base triple that was never deleted are both
        no-ops, so ``size`` only ever reflects real divergence from
        the base.
        """
        added = set(self.added)
        deleted = set(self.deleted)
        for triple in deletes:
            if triple in added:
                added.discard(triple)
            elif base_has(triple):
                deleted.add(triple)
        for triple in adds:
            if triple in deleted:
                deleted.discard(triple)
            elif not base_has(triple):
                added.add(triple)
        return TripleDelta(frozenset(added), frozenset(deleted))

    @property
    def size(self) -> int:
        """Triples by which the visible state diverges from the base."""
        return len(self.added) + len(self.deleted)

    def is_empty(self) -> bool:
        return not self.added and not self.deleted


def store_has_triple(store: BitMatStore, triple: Triple) -> bool:
    """Membership of a ground triple, False when any term is unknown."""
    sid = store.dictionary.subject_id(triple.s)
    pid = store.dictionary.predicate_id(triple.p)
    oid = store.dictionary.object_id(triple.o)
    if sid is None or pid is None or oid is None:
        return False
    return store.has_triple(sid, pid, oid)


class DeltaDictionary(Dictionary):
    """A frozen base dictionary plus extension id tables.

    New terms get ids past the base's highest on their dimension; base
    ids are never reassigned, so every pair list and cached BitMat of
    the base stays valid under the extended mapping.  The shared
    region is frozen at the base's ``num_shared`` — extending it would
    renumber the subject/object tables, which is exactly what a
    rebuild (not an overlay) is for.
    """

    def __init__(self, base: Dictionary) -> None:
        super().__init__()
        self.base = base
        self._num_so = base.num_shared
        self._base_subjects = base.num_subjects
        self._base_objects = base.num_objects
        self._base_predicates = base.num_predicates
        self._ext_s_ids: dict[Term, int] = {}
        self._ext_o_ids: dict[Term, int] = {}
        self._ext_p_ids: dict[Term, int] = {}
        self._ext_s_terms: list[Term] = []
        self._ext_o_terms: list[Term] = []
        self._ext_p_terms: list[Term] = []
        #: space → concatenated base + extension decode table, rebuilt
        #: only when the extension grew since it was assembled
        self._ext_tables: dict[str, list] = {}

    # -- growth ---------------------------------------------------------

    def ensure_subject(self, term: Term) -> int:
        sid = self.subject_id(term)
        if sid is None:
            self._ext_s_terms.append(term)
            sid = self._base_subjects + len(self._ext_s_terms)
            self._ext_s_ids[term] = sid
        return sid

    def ensure_object(self, term: Term) -> int:
        oid = self.object_id(term)
        if oid is None:
            self._ext_o_terms.append(term)
            oid = self._base_objects + len(self._ext_o_terms)
            self._ext_o_ids[term] = oid
        return oid

    def ensure_predicate(self, term: Term) -> int:
        pid = self.predicate_id(term)
        if pid is None:
            self._ext_p_terms.append(term)
            pid = self._base_predicates + len(self._ext_p_terms)
            self._ext_p_ids[term] = pid
        return pid

    # -- sizes ----------------------------------------------------------

    @property
    def num_subjects(self) -> int:
        return self._base_subjects + len(self._ext_s_terms)

    @property
    def num_objects(self) -> int:
        return self._base_objects + len(self._ext_o_terms)

    @property
    def num_predicates(self) -> int:
        return self._base_predicates + len(self._ext_p_terms)

    # -- encoding -------------------------------------------------------

    def subject_id(self, term: Term) -> int | None:
        sid = self.base.subject_id(term)
        return sid if sid is not None else self._ext_s_ids.get(term)

    def object_id(self, term: Term) -> int | None:
        oid = self.base.object_id(term)
        return oid if oid is not None else self._ext_o_ids.get(term)

    def predicate_id(self, term: Term) -> int | None:
        pid = self.base.predicate_id(term)
        return pid if pid is not None else self._ext_p_ids.get(term)

    def encode_triple(self, triple: Triple):
        sid = self.subject_id(triple.s)
        pid = self.predicate_id(triple.p)
        oid = self.object_id(triple.o)
        if sid is None or pid is None or oid is None:
            raise DictionaryError(f"triple contains unknown terms: {triple}")
        return (sid, pid, oid)

    # -- decoding -------------------------------------------------------

    def term_table(self, space: str) -> list:
        """Base id → term table extended with this delta's new terms.

        The inherited tables are empty (all terms live in the base or
        the extension lists), so the columnar decoder needs the
        concatenation; extension ids start right past the base's
        highest, which is exactly where ``base_table + ext`` puts them.
        """
        ext = {"s": self._ext_s_terms, "o": self._ext_o_terms,
               "p": self._ext_p_terms}.get(space)
        if ext is None:
            raise DictionaryError(f"unknown id space {space!r}")
        base_table = self.base.term_table(space)
        if not ext:
            return base_table
        cached = self._ext_tables.get(space)
        if cached is None or len(cached) != len(base_table) + len(ext):
            cached = base_table + ext
            self._ext_tables[space] = cached
        return cached

    def subject_term(self, sid: int) -> Term:
        if sid <= self._base_subjects:
            return self.base.subject_term(sid)
        try:
            return self._ext_s_terms[sid - self._base_subjects - 1]
        except IndexError:
            raise DictionaryError(f"unknown subject id {sid}") from None

    def object_term(self, oid: int) -> Term:
        if oid <= self._base_objects:
            return self.base.object_term(oid)
        try:
            return self._ext_o_terms[oid - self._base_objects - 1]
        except IndexError:
            raise DictionaryError(f"unknown object id {oid}") from None

    def predicate_term(self, pid: int) -> Term:
        if pid <= self._base_predicates:
            return self.base.predicate_term(pid)
        try:
            return self._ext_p_terms[pid - self._base_predicates - 1]
        except IndexError:
            raise DictionaryError(f"unknown predicate id {pid}") from None


class MergedSource:
    """The pair source of base + delta, merged lazily per predicate.

    Untouched predicates return the base's list *by identity* (no
    copy); touched predicates materialize the merge once, on first
    access.  Post-freeze concurrent first accesses may race the merge,
    which is benign: the computation is pure and the dict assignment
    atomic under the GIL.  Everything answerable from the base's
    metadata plus delta arithmetic is answered that way, so an
    image-backed base decodes only what queries touch.
    """

    def __init__(self, base: PairSource, delta: TripleDelta,
                 add_by_p: dict[int, Pairs],
                 del_by_p: dict[int, set]) -> None:
        self._base = base
        self._delta = delta
        self._add_by_p = add_by_p
        self._del_by_p = del_by_p
        #: predicates whose pairs differ from the base's
        self.touched = frozenset(add_by_p) | frozenset(del_by_p)
        self._pids = sorted(set(base.pids()) | set(add_by_p))
        self._so: dict[int, Pairs] = {}
        self._os: dict[int, Pairs] = {}

    def pids(self) -> list[int]:
        return self._pids

    def so_pairs(self, pid: int) -> Pairs:
        if pid not in self.touched:
            return self._base.so_pairs(pid)
        merged = self._so.get(pid)
        if merged is None:
            merged = self._base.so_pairs(pid)
            dels = self._del_by_p.get(pid)
            if dels:
                merged = [pair for pair in merged if pair not in dels]
            adds = self._add_by_p.get(pid)
            if adds:
                # adds are disjoint from the base by the delta
                # invariants, so a sorted merge needs no dedup
                merged = list(heapq.merge(merged, adds))
            self._so[pid] = merged
        return merged

    def os_pairs(self, pid: int) -> Pairs:
        # ids of existing triples never change, so the base's (possibly
        # pre-built) O-S projection is reusable whenever the predicate
        # has no delta — regardless of dimension growth
        if pid not in self.touched:
            return self._base.os_pairs(pid)
        pairs = self._os.get(pid)
        if pairs is None:
            pairs = sorted((oid, sid) for sid, oid in self.so_pairs(pid))
            self._os[pid] = pairs
        return pairs

    def count(self, pid: int) -> int:
        # exact by the delta invariants (deleted ⊆ base, added ∩ base
        # = ∅), as is total()
        return (self._base.count(pid) - len(self._del_by_p.get(pid, ()))
                + len(self._add_by_p.get(pid, ())))

    def total(self) -> int:
        return (self._base.total() - len(self._delta.deleted)
                + len(self._delta.added))

    def stats(self) -> None:
        # delta-adjusted statistics are still open (ROADMAP 3); None
        # routes overlay queries through the static heuristic
        return None

    def prepare(self) -> None:
        # only what the delta touched: the rest is the base's, which is
        # either already frozen or serves it from locked caches
        for pid in self.touched:
            self.os_pairs(pid)

    def cache_stats(self) -> dict[str, dict[str, int]]:
        return self._base.cache_stats()

    def close(self) -> None:
        # nothing of its own; the store releases the base it retained
        pass


def overlay(base: BitMatStore, delta: TripleDelta) -> BitMatStore:
    """The store serving ``base − deleted + added``.

    Engine code cannot tell it apart from a rebuilt store; reads for
    predicates the delta never touched are served straight from the
    base's caches (when no new terms changed the matrix dimensions),
    so publishing a batch costs O(delta), not O(dataset).  The result
    holds a reference on *base* until its own last ``close()``.
    Raises :class:`SharedRegionViolation` when an overlay cannot
    represent *delta*.
    """
    dictionary = DeltaDictionary(base.dictionary)
    del_by_p: dict[int, set] = {}
    # sorted iteration makes extension-id assignment deterministic
    for triple in sorted(delta.deleted, key=_triple_key):
        sid, pid, oid = dictionary.encode_triple(triple)
        del_by_p.setdefault(pid, set()).add((sid, oid))
    add_by_p: dict[int, Pairs] = {}
    for triple in sorted(delta.added, key=_triple_key):
        sid = dictionary.ensure_subject(triple.s)
        pid = dictionary.ensure_predicate(triple.p)
        oid = dictionary.ensure_object(triple.o)
        add_by_p.setdefault(pid, []).append((sid, oid))
    num_shared = dictionary.num_shared
    for triple in sorted(delta.added, key=_triple_key):
        for term in (triple.s, triple.o):
            sid = dictionary.subject_id(term)
            oid = dictionary.object_id(term)
            if (sid is not None and oid is not None
                    and not (sid == oid and sid <= num_shared)):
                raise SharedRegionViolation(term)
    for pairs in add_by_p.values():
        pairs.sort()
    source = MergedSource(base.source, delta, add_by_p, del_by_p)
    return BitMatStore(dictionary, source, parent=base,
                       touched=source.touched)
