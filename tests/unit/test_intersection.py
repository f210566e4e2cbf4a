"""Unit tests for the scalar, multiway and big-int bitmap kernels."""

import pytest

from repro.utils.kernels import (
    BitmapKernel,
    ScalarKernel,
    intersect_galloping,
    intersect_hybrid,
    intersect_merge,
)

KERNELS = [intersect_merge, intersect_galloping, intersect_hybrid]


@pytest.mark.parametrize("kernel", KERNELS)
class TestPairwiseKernels:
    def test_basic(self, kernel):
        assert kernel([1, 3, 5, 7], [3, 4, 5, 6]) == [3, 5]

    def test_disjoint(self, kernel):
        assert kernel([1, 2], [3, 4]) == []

    def test_identical(self, kernel):
        assert kernel([1, 2, 3], [1, 2, 3]) == [1, 2, 3]

    def test_empty_inputs(self, kernel):
        assert kernel([], [1, 2]) == []
        assert kernel([1, 2], []) == []
        assert kernel([], []) == []

    def test_subset(self, kernel):
        assert kernel([2, 4], list(range(10))) == [2, 4]

    def test_single_elements(self, kernel):
        assert kernel([5], [5]) == [5]
        assert kernel([5], [6]) == []

    def test_result_sorted(self, kernel):
        big = list(range(0, 1000, 3))
        small = list(range(0, 1000, 7))
        result = kernel(big, small)
        assert result == sorted(set(big) & set(small))


class TestGalloping:
    def test_skewed_sizes(self):
        small = [100, 5000, 9999]
        large = list(range(10000))
        assert intersect_galloping(small, large) == small

    def test_argument_order_irrelevant(self):
        a, b = [1, 5, 9], list(range(100))
        assert intersect_galloping(a, b) == intersect_galloping(b, a)

    def test_early_exit_past_end(self):
        assert intersect_galloping([500], [1, 2, 3]) == []


class TestHybrid:
    def test_dispatches_to_gallop_on_skew(self):
        # Just correctness under the skew threshold; dispatch is internal.
        small = [64]
        large = list(range(10000))
        assert intersect_hybrid(small, large) == [64]

    def test_similar_sizes(self):
        assert intersect_hybrid([1, 2, 3, 4], [2, 4, 6, 8]) == [2, 4]


class TestMultiIntersect:
    def test_three_lists(self):
        assert ScalarKernel().multi_intersect([[1, 2, 3, 4], [2, 4, 6], [0, 2, 4, 8]]) == [2, 4]

    def test_single_list(self):
        assert ScalarKernel().multi_intersect([[3, 1, 2][1:]]) == [1, 2]

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError):
            ScalarKernel().multi_intersect([])

    def test_short_circuit_on_empty(self):
        assert ScalarKernel().multi_intersect([[1], [], [1, 2, 3]]) == []

    def test_input_not_mutated(self):
        lists = [[1, 2], [2, 3]]
        ScalarKernel().multi_intersect(lists)
        assert lists == [[1, 2], [2, 3]]


class TestBitmapSetIndex:
    def test_roundtrip(self):
        idx = BitmapKernel()
        assert idx.decode(idx.encode([5, 1, 9])) == [1, 5, 9]

    def test_intersect(self):
        idx = BitmapKernel()
        assert idx.intersect([1, 3, 5], [3, 4, 5]) == [3, 5]

    def test_multi_intersect(self):
        idx = BitmapKernel()
        assert idx.multi_intersect([[1, 2, 3], [2, 3], [3, 9]]) == [3]

    def test_multi_empty_raises(self):
        with pytest.raises(ValueError):
            BitmapKernel().multi_intersect([])

    def test_cache_hits_by_identity(self):
        idx = BitmapKernel()
        lst = [1, 2, 3]
        idx.intersect(lst, [2])
        assert id(lst) in idx._cache

    def test_clear(self):
        idx = BitmapKernel()
        idx.intersect([1], [1])
        idx.clear()
        assert not idx._cache

    def test_empty_sets(self):
        idx = BitmapKernel()
        assert idx.intersect([], [1, 2]) == []
        assert idx.decode(0) == []

    def test_agrees_with_hybrid(self):
        idx = BitmapKernel()
        a = list(range(0, 500, 3))
        b = list(range(0, 500, 5))
        assert idx.intersect(a, b) == intersect_hybrid(a, b)

    def test_cache_survives_id_recycling(self):
        """Regression: CPython reuses ids of collected lists; a bare-id
        cache key would alias a dead list's encoding."""
        import numpy as np

        idx = BitmapKernel()
        rng = np.random.default_rng(11)
        for _ in range(200):
            # Fresh lists each iteration are freed immediately, making id
            # collisions with earlier iterations likely.
            a = sorted(set(rng.integers(0, 400, size=30).tolist()))
            b = sorted(set(rng.integers(0, 400, size=30).tolist()))
            assert idx.intersect(a, b) == sorted(set(a) & set(b))
