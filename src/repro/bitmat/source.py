"""Pair sources: where a :class:`~repro.bitmat.store.BitMatStore` gets
its per-predicate sorted id pairs.

The store owns everything derived — the four BitMat LRUs, ``freeze()``,
the reference count, the whole ``StoreBackend`` surface — and reads the
dataset itself through this one seam.  Three sources implement it:

* :class:`MemorySource` (here) — a dict of decoded pair lists, what
  ``BitMatStore.build`` produces;
* :class:`~repro.bitmat.mmapstore.ExtentSource` — an ``LBRMMAP1``
  image whose extents decode on first touch;
* :class:`~repro.update.overlay.MergedSource` — another store's source
  plus a normalized delta.
"""

from __future__ import annotations

from typing import Iterable, Protocol

from .stats import StoreStats

Pairs = list[tuple[int, int]]


class PairSource(Protocol):
    """Per-predicate sorted id pairs plus what is known without them."""

    def pids(self) -> Iterable[int]:
        """Ids of every predicate with pairs, in no promised order (an
        overlay may also list one whose pairs its delta all deleted)."""
    def so_pairs(self, pid: int) -> Pairs:
        """(sid, oid) pairs of *pid*, sorted; empty when it has none."""
    def os_pairs(self, pid: int) -> Pairs:
        """(oid, sid) pairs of *pid*, sorted; empty when it has none."""
    def count(self, pid: int) -> int:
        """``len(so_pairs(pid))`` — answered without decoding."""
    def total(self) -> int:
        """Pairs over all predicates — answered without decoding."""
    def stats(self) -> StoreStats | None:
        """Per-predicate statistics, or None (heuristic ordering)."""
    def prepare(self) -> None:
        """Pre-publication hook, run once by ``freeze()``: build any
        lazily derived state that concurrent readers must never see
        mid-build and that is not already behind a locked cache."""
    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Counters of the source's own caches, by section name."""
    def close(self) -> None:
        """Release backing resources (the store's last reference)."""


class MemorySource:
    """Fully decoded pair lists held in a dict."""

    def __init__(self, so_by_p: dict[int, Pairs]) -> None:
        #: pid -> (sid, oid) pairs sorted by (sid, oid)
        self._so = so_by_p
        #: pid -> (oid, sid) pairs sorted by (oid, sid), built lazily
        self._os: dict[int, Pairs] = {}
        self._stats: StoreStats | None = None

    def pids(self) -> Iterable[int]:
        return self._so.keys()

    def so_pairs(self, pid: int) -> Pairs:
        return self._so.get(pid) or []

    def os_pairs(self, pid: int) -> Pairs:
        pairs = self._os.get(pid)
        if pairs is None:
            if pid not in self._so:
                return []  # and no write: a frozen source is read-only
            pairs = sorted((oid, sid) for sid, oid in self._so[pid])
            self._os[pid] = pairs
        return pairs

    def count(self, pid: int) -> int:
        return len(self.so_pairs(pid))

    def total(self) -> int:
        return sum(len(pairs) for pairs in self._so.values())

    def stats(self) -> StoreStats | None:
        return self._stats

    def prepare(self) -> None:
        # the O-S projections are otherwise built on first touch, and
        # the statistics feed the cost-based ordering of every plan
        # compiled against the published store
        for pid in self._so:
            self.os_pairs(pid)
        if self._stats is None:
            self._stats = StoreStats.collect(self._so)

    def cache_stats(self) -> dict[str, dict[str, int]]:
        return {}

    def close(self) -> None:
        # nothing to release: a closed in-memory store stays readable
        pass
