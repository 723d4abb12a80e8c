"""BitVector's packed (one big int) backing ≡ its run-bounds backing.

Every operation has a run-bounds path and a packed path, chosen by the
operands' backing and density; a vector built from a bit mask must
answer exactly as the same set built from positions, alone and mixed
with run-bounds operands.
"""

import pytest
from hypothesis import given, strategies as st

from repro.bitmat.bitvec import BitVector

SIZE = 96
position_sets = st.sets(st.integers(0, SIZE - 1), max_size=SIZE)


def packed(positions, size=SIZE) -> BitVector:
    """A packed-backed vector (no run bounds until one is needed)."""
    return BitVector(size, _bits=sum(1 << p for p in positions))


def pair(positions):
    return BitVector.from_positions(SIZE, positions), packed(positions)


class TestConstruction:
    def test_empty_and_full(self):
        assert not packed([], size=8)
        assert packed([], size=8).first() is None
        assert packed(range(8), size=8).count() == 8
        assert packed([5, 6, 7], size=8) == BitVector.full(8, start=5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BitVector.from_positions(4, [4])
        with pytest.raises(ValueError):
            BitVector(-1, _bits=1)

    @given(position_sets)
    def test_conversion_round_trip(self, positions):
        interval, bits = pair(positions)
        assert bits == interval and hash(bits) == hash(interval)
        assert bits.intervals() == interval.intervals()
        assert BitVector(SIZE, _bits=interval._ensure_bits()) == bits


class TestEquivalence:
    @given(position_sets, position_sets)
    def test_and(self, a, b):
        ia, pa = pair(a)
        ib, pb = pair(b)
        for left, right in ((pa, pb), (pa, ib), (ia, pb)):
            assert set(left.and_(right).positions()) == a & b
        assert BitVector.and_many([pa, ib, pb]).positions() == sorted(a & b)

    @given(position_sets, position_sets)
    def test_or(self, a, b):
        ia, pa = pair(a)
        ib, pb = pair(b)
        for left, right in ((pa, pb), (pa, ib), (ia, pb)):
            assert set(left.or_(right).positions()) == a | b

    @given(position_sets, position_sets)
    def test_andnot(self, a, b):
        ia, pa = pair(a)
        ib, pb = pair(b)
        assert set(pa.andnot(pb).positions()) == a - b
        assert set(pa.andnot(ib).positions()) == a - b

    @given(position_sets, st.integers(0, SIZE))
    def test_truncate(self, a, limit):
        _, pa = pair(a)
        assert set(pa.truncate(limit).positions()) == {
            p for p in a if p < limit}

    @given(position_sets, position_sets)
    def test_intersects(self, a, b):
        ia, pa = pair(a)
        ib, pb = pair(b)
        assert pa.intersects(pb) == bool(a & b)
        assert ia.intersects(pb) == bool(a & b)

    @given(st.lists(position_sets, max_size=5))
    def test_union_many(self, sets):
        vectors = [packed(s) if i % 2 else BitVector.from_positions(SIZE, s)
                   for i, s in enumerate(sets)]
        expected = set().union(*sets) if sets else set()
        assert set(BitVector.union_many(vectors, SIZE)
                   .positions()) == expected

    @given(position_sets)
    def test_count_contains_first(self, a):
        _, bits = pair(a)
        assert bits.count() == len(a)
        assert bits.first() == (min(a) if a else None)
        member = bits.membership()
        for position in range(SIZE):
            assert (position in bits) == (position in a) == member(position)

    def test_and_different_sizes_clips(self):
        a = packed([5, 60, 99], size=100)
        b = packed(range(10), size=10)
        assert a.and_(b).positions() == [5]
        assert a.and_(b).size == 10

    @given(position_sets)
    def test_iter_positions_sorted(self, a):
        _, bits = pair(a)
        assert bits.positions() == sorted(a)
        assert list(bits.positions_array()) == sorted(a)
