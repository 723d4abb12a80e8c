"""Compressed bitvectors with the paper's hybrid encoding (§4).

A :class:`BitVector` is a set of bit positions in ``[0, size)`` whose
canonical form is sorted, disjoint, half-open runs of ones — the
operational equivalent of the paper's run-length encoding, and the form
the hybrid storage accounting (:meth:`BitVector.storage_ints`,
:meth:`BitVector.rle_ints`) is computed from.

Operationally the class is dual-backed.  Sparse operands are combined
directly on their runs (two-pointer and bisect intersections, as a C++
implementation would AND compressed words).  Operands with many runs
are lazily mirrored into a *packed* form — one arbitrary-precision
integer — so that large AND/OR kernels execute as single word-parallel
CPython primitives; the packed mirror is cached on the immutable vector
and amortized across the pruning passes.  Pure Python pays ~100× per
visited run where C++ pays one word op, so without this mirror the
interval representation would invert the paper's cost model.  Whether
the mirror pays for its resident bytes is measured end to end by
``e2ebench`` (``peak_rss_mb`` beside ``rows_per_s``); the two backings
are held result-identical by ``tests/test_packed.py``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Iterator, Sequence

#: run-count threshold below which pure interval algorithms are used
_SPARSE_RUNS = 64

#: max set bits a vector will pin as an uncompressed positions tuple
_POSITIONS_CACHE_MAX = 4096

#: per-byte set-bit offsets, for packed → runs conversion
_BYTE_POSITIONS = [tuple(bit for bit in range(8) if value >> bit & 1)
                   for value in range(256)]


def _normalize_sorted_positions(positions: Sequence[int]) -> list[int]:
    """Turn sorted distinct positions into flat run bounds."""
    bounds: list[int] = []
    for pos in positions:
        if bounds and bounds[-1] == pos:
            bounds[-1] = pos + 1
        else:
            bounds.append(pos)
            bounds.append(pos + 1)
    return bounds


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[int]:
    """Merge possibly-overlapping (start, stop) pairs into flat bounds."""
    bounds: list[int] = []
    for start, stop in sorted(intervals):
        if start >= stop:
            continue
        if bounds and start <= bounds[-1]:
            if stop > bounds[-1]:
                bounds[-1] = stop
        else:
            bounds.append(start)
            bounds.append(stop)
    return bounds


def _intersect_bounds(a: list[int], b: list[int]) -> list[int]:
    """Two-pointer intersection of flat run bounds."""
    out: list[int] = []
    i = j = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        start = a[i] if a[i] > b[j] else b[j]
        stop = a[i + 1] if a[i + 1] < b[j + 1] else b[j + 1]
        if start < stop:
            if out and out[-1] == start:
                out[-1] = stop
            else:
                out.append(start)
                out.append(stop)
        if a[i + 1] <= b[j + 1]:
            i += 2
        else:
            j += 2
    return out


def _intersect_small_into_big(small: list[int], big: list[int]) -> list[int]:
    """Intersection that binary-searches each small run into the big one.

    Costs ``O(|small| log |big|)`` instead of ``O(|small| + |big|)``, which
    matters when masking thousands of short rows with one wide mask
    (the `unfold` inner loop).
    """
    out: list[int] = []
    for k in range(0, len(small), 2):
        start, stop = small[k], small[k + 1]
        # first big run whose stop is > start
        idx = bisect_right(big, start)
        if idx % 2 == 1:
            idx -= 1  # start falls inside run big[idx-1:idx+1]
        while idx < len(big) and big[idx] < stop:
            lo = big[idx] if big[idx] > start else start
            hi = big[idx + 1] if big[idx + 1] < stop else stop
            if lo < hi:
                if out and out[-1] == lo:
                    out[-1] = hi
                else:
                    out.append(lo)
                    out.append(hi)
            idx += 2
    return out


def _fill_bytes(acc: bytearray, bounds: list[int]) -> None:
    """Set the bits of flat run bounds inside a little-endian bytearray."""
    for i in range(0, len(bounds), 2):
        start, stop = bounds[i], bounds[i + 1]
        first_byte, first_bit = divmod(start, 8)
        last_byte, last_bit = divmod(stop, 8)
        if first_byte == last_byte:
            acc[first_byte] |= ((1 << (stop - start)) - 1) << first_bit
            continue
        acc[first_byte] |= (0xFF << first_bit) & 0xFF
        if last_byte > first_byte + 1:
            acc[first_byte + 1:last_byte] = b"\xff" * (last_byte
                                                       - first_byte - 1)
        if last_bit:
            acc[last_byte] |= (1 << last_bit) - 1


def _bits_from_bounds(bounds: list[int], size: int) -> int:
    if not bounds:
        return 0
    acc = bytearray((size + 7) // 8)
    _fill_bytes(acc, bounds)
    return int.from_bytes(acc, "little")


def _bounds_from_bits(bits: int) -> list[int]:
    if not bits:
        return []
    if bits.bit_count() <= 64:
        # sparse: peel off lowest set bits (few big-int ops)
        bounds: list[int] = []
        while bits:
            low = bits & -bits
            position = low.bit_length() - 1
            if bounds and bounds[-1] == position:
                bounds[-1] = position + 1
            else:
                bounds.append(position)
                bounds.append(position + 1)
            bits ^= low
        return bounds
    # dense: one byte-level scan
    data = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
    bounds = []
    for index, byte in enumerate(data):
        if not byte:
            continue
        base = index * 8
        if byte == 0xFF:
            if bounds and bounds[-1] == base:
                bounds[-1] = base + 8
            else:
                bounds.append(base)
                bounds.append(base + 8)
            continue
        for bit in _BYTE_POSITIONS[byte]:
            position = base + bit
            if bounds and bounds[-1] == position:
                bounds[-1] = position + 1
            else:
                bounds.append(position)
                bounds.append(position + 1)
    return bounds


class BitVector:
    """An immutable compressed bitvector over positions ``[0, size)``."""

    __slots__ = ("size", "_bounds", "_bits", "_count", "_positions",
                 "_members")

    def __init__(self, size: int, _bounds: list[int] | None = None, *,
                 _bits: int | None = None) -> None:
        if size < 0:
            raise ValueError("BitVector size must be non-negative")
        self.size = size
        if _bounds is None and _bits is None:
            _bounds = []
        self._bounds = _bounds
        self._bits = _bits
        self._count: int | None = None
        self._positions: tuple[int, ...] | None = None
        self._members: frozenset[int] | None = None

    # ------------------------------------------------------------------
    # backing management
    # ------------------------------------------------------------------

    def _ensure_bounds(self) -> list[int]:
        if self._bounds is None:
            self._bounds = _bounds_from_bits(self._bits)
        return self._bounds

    def _ensure_bits(self) -> int:
        if self._bits is None:
            self._bits = _bits_from_bounds(self._bounds, self.size)
        return self._bits

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, size: int) -> "BitVector":
        """All-zeros vector."""
        return cls(size)

    @classmethod
    def full(cls, size: int, start: int = 0) -> "BitVector":
        """All-ones vector over ``[start, size)``."""
        if start >= size:
            return cls(size)
        return cls(size, [start, size])

    @classmethod
    def from_positions(cls, size: int, positions: Iterable[int]) -> "BitVector":
        """Vector with the given (possibly unsorted) positions set."""
        ordered = sorted(set(positions))
        if ordered and (ordered[0] < 0 or ordered[-1] >= size):
            raise ValueError("position out of range")
        return cls(size, _normalize_sorted_positions(ordered))

    @classmethod
    def from_sorted_positions(cls, size: int,
                              positions: Sequence[int]) -> "BitVector":
        """Like :meth:`from_positions` for already-sorted distinct input."""
        return cls(size, _normalize_sorted_positions(positions))

    @classmethod
    def from_intervals(cls, size: int,
                       intervals: Iterable[tuple[int, int]]) -> "BitVector":
        """Vector covering the union of half-open ``(start, stop)`` runs."""
        return cls(size, _merge_intervals(list(intervals)))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def count(self) -> int:
        """Number of set bits (cached: vectors are immutable)."""
        if self._count is None:
            if self._bounds is not None:
                bounds = self._bounds
                self._count = sum(bounds[i + 1] - bounds[i]
                                  for i in range(0, len(bounds), 2))
            else:
                self._count = self._bits.bit_count()
        return self._count

    def __bool__(self) -> bool:
        if self._bounds is not None:
            return bool(self._bounds)
        return self._bits != 0

    def __contains__(self, position: int) -> bool:
        if self._bounds is not None:
            return bisect_right(self._bounds, position) % 2 == 1
        return (self._bits >> position) & 1 == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return (self.size == other.size
                and self._ensure_bits() == other._ensure_bits())

    def __hash__(self) -> int:
        return hash((self.size, self._ensure_bits()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitVector(size={self.size}, bits={self.count()})"

    def iter_positions(self) -> Iterator[int]:
        """Yield set positions in increasing order."""
        bounds = self._ensure_bounds()
        for i in range(0, len(bounds), 2):
            yield from range(bounds[i], bounds[i + 1])

    def positions(self) -> list[int]:
        """Set positions as a list."""
        return list(self.iter_positions())

    def positions_cached(self) -> tuple[int, ...]:
        """Set positions as a tuple, cached on the immutable vector.

        The join enumerates the same candidate rows on every repeat of
        a query template; unfold shares unchanged row vectors with the
        store's cached BitMats, so this cache stays warm across runs.
        Dense vectors are *not* pinned: a long-lived cached row whose
        compressed form is a couple of runs must not hold an
        uncompressed position tuple forever, so past the threshold the
        tuple is rebuilt per call and only the join-local memos keep it
        for the duration of one execution.
        """
        cached = self._positions
        if cached is None:
            cached = tuple(self.iter_positions())
            if len(cached) <= _POSITIONS_CACHE_MAX:
                self._positions = cached
        return cached

    def positions_array(self) -> array:
        """Set positions as one flat ``array('q')`` buffer.

        The batched join kernels and the statistics collector consume
        candidate lists as contiguous int64 buffers; building them run
        by run keeps the conversion at C speed (``extend(range(...))``
        per run).
        """
        out = array("q")
        extend = out.extend
        bounds = self._ensure_bounds()
        for i in range(0, len(bounds), 2):
            extend(range(bounds[i], bounds[i + 1]))
        return out

    def membership(self) -> Callable[[int], bool]:
        """A fast positional-membership callable.

        Sparse vectors pin a frozenset (C-speed ``in``) under the same
        threshold as :meth:`positions_cached`; dense vectors fall back
        to the bisect path over run bounds — materializing the bounds
        if needed, so a packed operand never pays the O(position)
        big-int shift of the raw bit test per probe.
        """
        members = self._members
        if members is None:
            if self.count() <= _POSITIONS_CACHE_MAX:
                members = frozenset(self.iter_positions())
                self._members = members
            else:
                self._ensure_bounds()
                return self.__contains__
        return members.__contains__

    def intervals(self) -> list[tuple[int, int]]:
        """The run decomposition as (start, stop) pairs."""
        bounds = self._ensure_bounds()
        return [(bounds[i], bounds[i + 1]) for i in range(0, len(bounds), 2)]

    def run_length(self) -> int:
        """Number of runs of ones."""
        return len(self._ensure_bounds()) // 2

    def first(self) -> int | None:
        """Lowest set position, or None when empty."""
        if self._bounds is not None:
            return self._bounds[0] if self._bounds else None
        if not self._bits:
            return None
        return (self._bits & -self._bits).bit_length() - 1

    # ------------------------------------------------------------------
    # boolean algebra
    # ------------------------------------------------------------------

    def and_(self, other: "BitVector") -> "BitVector":
        """Bitwise AND; result size is the smaller of the two sizes."""
        size = min(self.size, other.size)
        if not self or not other:
            return BitVector(size)
        a, b = self._bounds, other._bounds
        if a is not None and b is not None:
            shorter = min(len(a), len(b))
            if shorter <= 2 * _SPARSE_RUNS:
                if len(a) * 8 < len(b):
                    bounds = _intersect_small_into_big(a, b)
                elif len(b) * 8 < len(a):
                    bounds = _intersect_small_into_big(b, a)
                else:
                    bounds = _intersect_bounds(a, b)
                if bounds and bounds[-1] > size:
                    bounds = _clip_bounds(bounds, size)
                return BitVector(size, bounds)
        bits = self._ensure_bits() & other._ensure_bits()
        if bits and bits.bit_length() > size:
            bits &= (1 << size) - 1
        return BitVector(size, _bits=bits)

    __and__ = and_

    def or_(self, other: "BitVector") -> "BitVector":
        """Bitwise OR; result size is the larger of the two sizes."""
        size = max(self.size, other.size)
        if not self._bounds and self._bounds is not None:
            return BitVector(size, other._bounds, _bits=other._bits)
        if not other._bounds and other._bounds is not None:
            return BitVector(size, self._bounds, _bits=self._bits)
        a, b = self._bounds, other._bounds
        if (a is not None and b is not None
                and len(a) + len(b) <= 4 * _SPARSE_RUNS):
            return BitVector(size, _merge_intervals(
                self.intervals() + other.intervals()))
        return BitVector(size,
                         _bits=self._ensure_bits() | other._ensure_bits())

    __or__ = or_

    def andnot(self, other: "BitVector") -> "BitVector":
        """Bits set in self but not in *other*."""
        bits = self._ensure_bits() & ~other._ensure_bits()
        if bits and bits.bit_length() > self.size:
            bits &= (1 << self.size) - 1
        return BitVector(self.size, _bits=bits)

    def truncate(self, limit: int) -> "BitVector":
        """Clear every bit at position >= *limit* (keeps the same size).

        Used to restrict a mask to the shared S/O id region ``V_so``
        before intersecting across dimensions (Appendix D).
        """
        if self._bounds is not None:
            return BitVector(self.size, _clip_bounds(self._bounds, limit))
        if limit <= 0:
            return BitVector(self.size)
        return BitVector(self.size,
                         _bits=self._bits & ((1 << limit) - 1))

    def resized(self, size: int) -> "BitVector":
        """The same bit set over a different width (clipping if smaller)."""
        if size == self.size:
            return self
        if self._bounds is not None:
            bounds = (self._bounds if not self._bounds
                      or self._bounds[-1] <= size
                      else _clip_bounds(self._bounds, size))
            return BitVector(size, list(bounds))
        bits = self._bits
        if bits and bits.bit_length() > size:
            bits &= (1 << size) - 1
        return BitVector(size, _bits=bits)

    def intersects(self, other: "BitVector") -> bool:
        """True when the two vectors share at least one set bit."""
        if self._bits is not None and other._bits is not None:
            return (self._bits & other._bits) != 0
        a = self._ensure_bounds()
        b = other._ensure_bounds()
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i] < b[j + 1] and b[j] < a[i + 1]:
                return True
            if a[i + 1] <= b[j + 1]:
                i += 2
            else:
                j += 2
        return False

    @staticmethod
    def and_many(vectors: Iterable["BitVector"]) -> "BitVector":
        """AND of many vectors in one pass (the semi-join mask kernel).

        Sparse operands intersect on their runs with early exit; as
        soon as the running result (or any operand) is packed, the rest
        of the reduction collapses to chained big-int ``&`` with no
        intermediate :class:`BitVector` allocations.
        """
        collected = list(vectors)
        if not collected:
            raise ValueError("and_many needs at least one vector")
        size = min(vector.size for vector in collected)
        if len(collected) == 1:
            return collected[0].resized(size)
        sparse = True
        for vector in collected:
            if not vector:
                return BitVector(size)
            if (vector._bounds is None
                    or len(vector._bounds) > 2 * _SPARSE_RUNS):
                sparse = False
        if sparse:
            bounds = collected[0]._bounds
            for vector in collected[1:]:
                bounds = _intersect_bounds(bounds, vector._bounds)
                if not bounds:
                    break
            if bounds and bounds[-1] > size:
                bounds = _clip_bounds(bounds, size)
            return BitVector(size, list(bounds))
        bits = collected[0]._ensure_bits()
        for vector in collected[1:]:
            bits &= vector._ensure_bits()
            if not bits:
                break
        if bits and bits.bit_length() > size:
            bits &= (1 << size) - 1
        return BitVector(size, _bits=bits)

    @staticmethod
    def union_many(vectors: Iterable["BitVector"], size: int) -> "BitVector":
        """OR of many vectors in one pass (the `fold` kernel)."""
        collected = list(vectors)
        total_runs = 0
        sparse = True
        for vector in collected:
            if vector._bounds is None:
                sparse = False
                break
            total_runs += len(vector._bounds)
            if total_runs > 8 * _SPARSE_RUNS:
                sparse = False
                break
        if sparse:
            intervals: list[tuple[int, int]] = []
            for vector in collected:
                intervals.extend(vector.intervals())
            return BitVector(size, _merge_intervals(intervals))
        # packed accumulation: bulk-fill runs into one byte buffer and
        # OR in already-packed operands afterwards
        acc = bytearray((size + 7) // 8)
        packed: list[int] = []
        for vector in collected:
            if vector._bits is not None:
                packed.append(vector._bits)
            elif vector._bounds:
                _fill_bytes(acc, vector._bounds)
        bits = int.from_bytes(acc, "little")
        for extra in packed:
            bits |= extra
        if bits and bits.bit_length() > size:
            bits &= (1 << size) - 1
        return BitVector(size, _bits=bits)

    # ------------------------------------------------------------------
    # hybrid-compression storage accounting (§4)
    # ------------------------------------------------------------------

    def rle_ints(self) -> int:
        """Integers used by pure run-length encoding over the full width.

        Mirrors the paper's "[0] 2 1 2 1 4" example: alternating run
        lengths from position 0 to ``size``, plus nothing for the leading
        bit flag (a single byte in practice, identical in both schemes).
        """
        if self.size == 0:
            return 0
        bounds = self._ensure_bounds()
        if not bounds:
            return 1  # one run of zeros
        runs = 2 * (len(bounds) // 2) - 1
        if bounds[0] > 0:
            runs += 1
        if bounds[-1] < self.size:
            runs += 1
        return runs

    def storage_ints(self) -> int:
        """Integers used by the hybrid scheme: min(RLE runs, set bits)."""
        return min(self.rle_ints(), self.count())

    def storage_bytes(self) -> int:
        """Hybrid storage cost at 4 bytes per integer."""
        return 4 * self.storage_ints()

    def rle_bytes(self) -> int:
        """RLE-only storage cost at 4 bytes per integer."""
        return 4 * self.rle_ints()


def _clip_bounds(bounds: list[int], limit: int) -> list[int]:
    """Drop every position >= limit from flat run bounds."""
    if not bounds or bounds[0] >= limit:
        return []
    if bounds[-1] <= limit:
        return list(bounds)
    idx = bisect_left(bounds, limit)
    if idx % 2 == 1:
        return bounds[:idx] + [limit]
    return bounds[:idx]
