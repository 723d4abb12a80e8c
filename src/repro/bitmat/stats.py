"""Per-predicate statistics for the cost-based ordering pass.

The static selectivity heuristic (§3.1) keys every ordering decision on
raw triple-pattern counts.  The cost model in :mod:`repro.plan.cost`
wants more: how many *distinct* subjects/objects a predicate binds (the
number of candidate bindings a join variable can take) and how skewed
its fan-out is (a hub-heavy predicate multiplies intermediate rows even
when its cardinality looks tame).  This module collects exactly that —
per-predicate cardinality, distinct-subject/object counts, and log2
fan-out histograms in both directions — at :meth:`BitMatStore.freeze`
time, and gives it the compact varint encoding of the store image's
statistics section.

Histograms use log2 buckets: bucket *i* counts groups (one subject's
objects, or one object's subjects) whose size falls in ``[2^i,
2^(i+1))``.  Skew summaries (:meth:`PredicateStats.edge_fanout`) are
always derived from the histogram — never from the raw groups — so a
freshly collected statistics object and one decoded from an image give
bit-identical cost estimates.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import BinaryIO, Mapping

from ..exceptions import StorageError
from .persist import read_varint, write_varint


def _log2_bucket(size: int) -> int:
    """Histogram bucket of a fan-out group of *size* (≥1)."""
    return size.bit_length() - 1


def _histogram(sizes) -> tuple[int, ...]:
    """Log2-bucket histogram of group sizes, trailing zeros trimmed."""
    buckets: list[int] = []
    for size in sizes:
        bucket = _log2_bucket(size)
        if bucket >= len(buckets):
            buckets.extend([0] * (bucket + 1 - len(buckets)))
        buckets[bucket] += 1
    return tuple(buckets)


@dataclass(frozen=True)
class PredicateStats:
    """Statistics of one predicate's (subject, object) pair list."""

    cardinality: int
    distinct_subjects: int
    distinct_objects: int
    #: log2 histogram of objects-per-subject group sizes
    subject_fanout: tuple[int, ...]
    #: log2 histogram of subjects-per-object group sizes
    object_fanout: tuple[int, ...]

    def edge_fanout(self, direction: str) -> float:
        """Expected fan-out of the group a *random edge* belongs to.

        This is the second moment of the group-size distribution over
        its first (``Σ size² / Σ size``), approximated from the log2
        histogram with each bucket's geometric representative — the
        standard skew-aware expansion estimate: binding the other end
        of a uniformly random triple lands in a large group
        proportionally often, so hub-heavy predicates score high even
        when their *average* fan-out is small.
        """
        hist = (self.subject_fanout if direction == "s"
                else self.object_fanout)
        mass = 0.0
        weighted = 0.0
        for bucket, count in enumerate(hist):
            if not count:
                continue
            # bucket 0 is exactly size 1; others use the geometric
            # midpoint 1.5·2^bucket of [2^b, 2^(b+1))
            size = 1.0 if bucket == 0 else 1.5 * (1 << bucket)
            mass += count * size
            weighted += count * size * size
        return weighted / mass if mass else 0.0


@dataclass(frozen=True)
class StoreStats:
    """All per-predicate statistics of one frozen store image."""

    predicates: Mapping[int, PredicateStats]

    def get(self, pid: int) -> PredicateStats | None:
        return self.predicates.get(pid)

    @classmethod
    def collect(cls, so_by_p: Mapping[int, list[tuple[int, int]]]
                ) -> "StoreStats":
        """Compute statistics from per-predicate sorted (sid, oid) lists."""
        predicates: dict[int, PredicateStats] = {}
        for pid in sorted(so_by_p):
            pairs = so_by_p[pid]
            if not pairs:
                continue
            subject_sizes = [sum(1 for _ in group) for _, group in
                             groupby(pairs, key=itemgetter(0))]
            object_sizes = Counter(map(itemgetter(1), pairs)).values()
            predicates[pid] = PredicateStats(
                cardinality=len(pairs),
                distinct_subjects=len(subject_sizes),
                distinct_objects=len(object_sizes),
                subject_fanout=_histogram(subject_sizes),
                object_fanout=_histogram(object_sizes),
            )
        return cls(predicates=predicates)

    def to_bytes(self) -> bytes:
        buffer = io.BytesIO()
        write_stats(buffer, self)
        return buffer.getvalue()

    @classmethod
    def from_bytes(cls, payload: bytes) -> "StoreStats":
        return read_stats(io.BytesIO(payload))


def _write_histogram(out: BinaryIO, hist: tuple[int, ...]) -> None:
    write_varint(out, len(hist))
    for count in hist:
        write_varint(out, count)


def _read_histogram(data: BinaryIO) -> tuple[int, ...]:
    length = read_varint(data)
    return tuple(read_varint(data) for _ in range(length))


def write_stats(out: BinaryIO, stats: StoreStats) -> None:
    """Append one statistics section."""
    write_varint(out, len(stats.predicates))
    for pid in sorted(stats.predicates):
        pred = stats.predicates[pid]
        write_varint(out, pid)
        write_varint(out, pred.cardinality)
        write_varint(out, pred.distinct_subjects)
        write_varint(out, pred.distinct_objects)
        _write_histogram(out, pred.subject_fanout)
        _write_histogram(out, pred.object_fanout)


def read_stats(data: BinaryIO) -> StoreStats:
    """Read a statistics section written by :func:`write_stats`.

    Raises :class:`~repro.exceptions.StorageError` on structural
    corruption (the outer CRC has already vouched for the bytes; this
    guards the *semantic* invariants a valid collector maintains).
    """
    count = read_varint(data)
    predicates: dict[int, PredicateStats] = {}
    previous_pid = 0
    for _ in range(count):
        pid = read_varint(data)
        if pid <= previous_pid:
            raise StorageError("statistics section: pids not ascending")
        previous_pid = pid
        cardinality = read_varint(data)
        distinct_subjects = read_varint(data)
        distinct_objects = read_varint(data)
        subject_fanout = _read_histogram(data)
        object_fanout = _read_histogram(data)
        if (distinct_subjects > cardinality
                or distinct_objects > cardinality):
            raise StorageError("statistics section: distinct > cardinality")
        predicates[pid] = PredicateStats(
            cardinality=cardinality,
            distinct_subjects=distinct_subjects,
            distinct_objects=distinct_objects,
            subject_fanout=subject_fanout,
            object_fanout=object_fanout,
        )
    return StoreStats(predicates=predicates)
