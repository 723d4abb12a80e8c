"""Compressed bitvector tests, including set-model equivalence properties."""

import pytest
from hypothesis import given, strategies as st

from repro.bitmat.bitvec import BitVector

SIZE = 64
position_sets = st.sets(st.integers(min_value=0, max_value=SIZE - 1),
                        max_size=SIZE)


def vec(positions, size=SIZE) -> BitVector:
    return BitVector.from_positions(size, positions)


class TestConstruction:
    def test_empty(self):
        v = BitVector.empty(10)
        assert not v
        assert v.count() == 0

    def test_full(self):
        v = BitVector.full(10)
        assert v.count() == 10
        assert v.positions() == list(range(10))

    def test_full_with_start(self):
        v = BitVector.full(10, start=7)
        assert v.positions() == [7, 8, 9]

    def test_full_start_past_size_is_empty(self):
        assert not BitVector.full(5, start=5)

    def test_from_positions_deduplicates(self):
        assert vec([3, 3, 5]).count() == 2

    def test_from_positions_out_of_range(self):
        with pytest.raises(ValueError):
            BitVector.from_positions(4, [4])
        with pytest.raises(ValueError):
            BitVector.from_positions(4, [-1])

    def test_from_intervals_merges_overlaps(self):
        v = BitVector.from_intervals(20, [(0, 5), (3, 8), (10, 12)])
        assert v.positions() == list(range(0, 8)) + [10, 11]

    def test_from_intervals_ignores_empty_runs(self):
        assert not BitVector.from_intervals(10, [(3, 3), (5, 4)])

    def test_adjacent_positions_become_one_run(self):
        assert vec([1, 2, 3]).run_length() == 1

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            BitVector(-1)


class TestInspection:
    def test_contains(self):
        v = vec([2, 3, 9])
        assert 2 in v and 3 in v and 9 in v
        assert 1 not in v and 4 not in v and 63 not in v

    def test_first(self):
        assert vec([5, 9]).first() == 5
        assert BitVector.empty(4).first() is None

    def test_intervals(self):
        assert vec([1, 2, 5]).intervals() == [(1, 3), (5, 6)]

    def test_equality_and_hash(self):
        assert vec([1, 2]) == vec([2, 1])
        assert hash(vec([1, 2])) == hash(vec([1, 2]))
        assert vec([1]) != vec([1], size=32)

    def test_iter_positions_sorted(self):
        assert list(vec([9, 1, 4]).iter_positions()) == [1, 4, 9]


class TestOperations:
    @given(position_sets, position_sets)
    def test_and_matches_set_intersection(self, a, b):
        assert set(vec(a).and_(vec(b)).positions()) == (a & b)

    @given(position_sets, position_sets)
    def test_or_matches_set_union(self, a, b):
        assert set(vec(a).or_(vec(b)).positions()) == (a | b)

    @given(position_sets, position_sets)
    def test_andnot_matches_set_difference(self, a, b):
        assert set(vec(a).andnot(vec(b)).positions()) == (a - b)

    @given(position_sets, position_sets)
    def test_intersects_matches_disjointness(self, a, b):
        assert vec(a).intersects(vec(b)) == bool(a & b)

    @given(position_sets, st.integers(min_value=0, max_value=SIZE))
    def test_truncate_drops_high_positions(self, a, limit):
        assert set(vec(a).truncate(limit).positions()) == {
            p for p in a if p < limit}

    @given(st.lists(position_sets, min_size=0, max_size=6))
    def test_union_many_matches_set_union(self, sets):
        expected = set().union(*sets) if sets else set()
        merged = BitVector.union_many([vec(s) for s in sets], SIZE)
        assert set(merged.positions()) == expected

    def test_and_asymmetric_path(self):
        # small (1 run) against big (many runs) takes the bisect path
        small = vec([30])
        big = vec(set(range(0, SIZE, 2)))
        assert small.and_(big).positions() == [30]
        assert big.and_(vec([31])).positions() == []

    def test_and_different_sizes_clips(self):
        a = BitVector.from_positions(100, [5, 60, 99])
        b = BitVector.full(10)
        assert a.and_(b).positions() == [5]
        assert a.and_(b).size == 10

    def test_or_different_sizes_keeps_larger(self):
        a = BitVector.from_positions(100, [99])
        b = BitVector.from_positions(10, [3])
        merged = a.or_(b)
        assert merged.size == 100
        assert merged.positions() == [3, 99]

    @given(position_sets)
    def test_operator_aliases(self, a):
        assert (vec(a) & vec(a)) == vec(a)
        assert (vec(a) | BitVector.empty(SIZE)) == vec(a)


class TestHybridStorage:
    def test_paper_rle_example_dense(self):
        # "1110011110" -> "[1] 3 2 4 1": 4 runs
        v = BitVector.from_positions(10, [0, 1, 2, 5, 6, 7, 8])
        assert v.rle_ints() == 4

    def test_paper_rle_example_sparse(self):
        # "0010010000" -> RLE needs 5 ints but only 2 bits are set,
        # so the hybrid scheme stores the 2 positions
        v = BitVector.from_positions(10, [2, 5])
        assert v.rle_ints() == 5
        assert v.storage_ints() == 2

    def test_empty_vector_storage(self):
        v = BitVector.empty(10)
        assert v.rle_ints() == 1
        assert v.storage_ints() == 0

    def test_full_vector_prefers_rle(self):
        v = BitVector.full(1000)
        assert v.rle_ints() == 1
        assert v.storage_ints() == 1

    def test_zero_size(self):
        assert BitVector.empty(0).rle_ints() == 0

    @given(position_sets)
    def test_hybrid_never_exceeds_rle(self, a):
        v = vec(a)
        assert v.storage_ints() <= v.rle_ints()
        assert v.storage_ints() <= v.count()
        assert v.storage_bytes() == 4 * v.storage_ints()

    def test_leading_and_trailing_zero_runs_counted(self):
        v = BitVector.from_positions(10, [4, 5])
        # 0000110000 -> [0] 4 2 4: 3 runs
        assert v.rle_ints() == 3


class TestImmutability:
    def test_and_does_not_mutate_operands(self):
        a, b = vec({1, 2, 3}), vec({2, 3, 4})
        a.and_(b)
        assert a == vec({1, 2, 3})
        assert b == vec({2, 3, 4})

    def test_count_cache_consistent(self):
        v = vec({1, 5, 6})
        assert v.count() == 3
        assert v.count() == 3


DENSE_SIZE = 4096


def dense_vec(step, offset=0):
    return BitVector.from_positions(
        DENSE_SIZE, range(offset, DENSE_SIZE, step))


class TestDualBacking:
    """Dense operands take the packed path; results must stay exact."""

    @given(st.integers(1, 5), st.integers(1, 5))
    def test_dense_and_matches_set_model(self, step_a, step_b):
        a, b = dense_vec(step_a), dense_vec(step_b, offset=1)
        expected = (set(range(0, DENSE_SIZE, step_a))
                    & set(range(1, DENSE_SIZE, step_b)))
        assert set(a.and_(b).positions()) == expected

    @given(st.integers(1, 5), st.integers(1, 5))
    def test_dense_or_matches_set_model(self, step_a, step_b):
        a, b = dense_vec(step_a), dense_vec(step_b, offset=1)
        expected = (set(range(0, DENSE_SIZE, step_a))
                    | set(range(1, DENSE_SIZE, step_b)))
        assert set(a.or_(b).positions()) == expected

    def test_packed_result_supports_all_queries(self):
        packed = dense_vec(2).and_(dense_vec(3))  # packed-backed result
        assert packed.count() == len(
            set(range(0, DENSE_SIZE, 2)) & set(range(0, DENSE_SIZE, 3)))
        assert 0 in packed and 6 in packed and 3 not in packed
        assert packed.first() == 0
        assert packed.run_length() >= 1
        assert packed.truncate(10).positions() == [0, 6]
        assert packed.rle_ints() > 0

    def test_packed_equality_with_interval_backed(self):
        interval = BitVector.from_positions(DENSE_SIZE,
                                            range(0, DENSE_SIZE, 6))
        packed = dense_vec(2).and_(dense_vec(3))
        assert packed == interval
        assert hash(packed) == hash(interval)

    def test_union_many_dense_takes_packed_path(self):
        parts = [dense_vec(7, offset=i) for i in range(7)]
        merged = BitVector.union_many(parts, DENSE_SIZE)
        assert merged.count() == DENSE_SIZE

    @pytest.mark.parametrize("shape", ["sparse", "dense", "mixed"])
    def test_kernels_match_per_element_model(self, shape):
        """The batched AND/OR/candidate-scan kernels at join width, on
        isolated bits, long runs and one of each, against set algebra."""
        size = 1 << 16

        def sparse(step, phase=0):
            return BitVector.from_sorted_positions(
                size, range(phase, size, step))

        def dense(phase=0):
            return BitVector.from_intervals(
                size, ((s, min(s + 48, size)) for s in range(phase, size, 64)))

        a, b = {"sparse": (sparse(97), sparse(89, phase=13)),
                "dense": (dense(), dense(phase=29)),
                "mixed": (sparse(61), dense())}[shape]
        set_a, set_b = set(a.iter_positions()), set(b.iter_positions())
        assert a.and_(b).positions() == sorted(set_a & set_b)
        assert a.or_(b).positions() == sorted(set_a | set_b)
        for vector in (a, b, a.and_(b), a.or_(b)):
            assert list(vector.positions_array()) == vector.positions()
        rows = [sparse(193 + 2 * i, phase=i) for i in range(64)]
        assert BitVector.union_many(rows, size).positions() == sorted(
            set().union(*(row.iter_positions() for row in rows)))

    def test_mixed_backing_operations(self):
        packed = dense_vec(2).and_(dense_vec(2))  # bits-backed
        sparse = vec({2, 4, 100}, size=DENSE_SIZE)  # interval-backed
        assert set(packed.and_(sparse).positions()) == {2, 4, 100}
        assert sparse.intersects(packed)
        assert set(packed.andnot(sparse).positions()) == (
            set(range(0, DENSE_SIZE, 2)) - {2, 4, 100})
