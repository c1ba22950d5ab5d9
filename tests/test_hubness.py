import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hubridge.hubness import ZeroVarianceError, nk_counts, skewness
from hubridge.knn import Dissimilarity, build_knn_model, neighbor_index_matrix

from _helpers import exact_skewness, oracle_knn_indices


def euclid_model(points, labels=None, k=1):
    labels = np.zeros(len(points), dtype=int) if labels is None else labels
    return build_knn_model(points, labels, k, Dissimilarity.euclidean())


def nk(model, queries):
    return nk_counts(neighbor_index_matrix(model, queries), model.n)


class TestNkCounts:
    def test_single_query_k1(self, rng):
        pts = rng.normal(size=(10, 3))
        counts = nk(euclid_model(pts), rng.normal(size=(1, 3)))
        assert counts.sum() == 1 and (counts == 1).sum() == 1

    def test_self_retrieval(self, rng):
        pts = rng.normal(size=(12, 4))
        counts = nk(euclid_model(pts), pts)
        np.testing.assert_array_equal(counts, np.ones(12, dtype=int))

    def test_conservation_and_oracle(self, rng):
        pts = rng.normal(size=(100, 5))
        queries = rng.normal(size=(50, 5))
        counts = nk(euclid_model(pts, k=10), queries)
        assert counts.sum() == 500
        want = np.zeros(100, dtype=int)
        for q in queries:
            for i in oracle_knn_indices(q, pts, 10):
                want[i] += 1
        np.testing.assert_array_equal(counts, want)

    def test_identity_w_matches_euclidean(self, rng):
        pts, queries = rng.normal(size=(42, 5)), rng.normal(size=(18, 5))
        identity = build_knn_model(pts, np.zeros(42, dtype=int), 10,
                                   Dissimilarity(labeled_map=np.eye(5)))
        np.testing.assert_array_equal(nk(identity, queries),
                                      nk(euclid_model(pts, k=10), queries))

    def test_k_too_large(self, rng):
        pts = rng.normal(size=(5, 2))
        with pytest.raises(ValueError, match="k must be"):
            euclid_model(pts, k=6)

    def test_empty_queries_rejected(self, rng):
        pts = rng.normal(size=(5, 2))
        with pytest.raises(ValueError, match="non-empty"):
            nk(euclid_model(pts, k=2), np.empty((0, 2)))

    @pytest.mark.parametrize("bad", [5, 7, -1])
    def test_entry_outside_range_named(self, bad):
        # bincount would lengthen the vector past 5 entries, or fail on -1
        with pytest.raises(ValueError,
                           match=rf"^neighbors\[1, 0\] = {bad} is out of range \[0, 5\)$"):
            nk_counts(np.array([[0, 4], [bad, 2]]), 5)


class TestSkewness:
    def test_constant_counts_error(self):
        with pytest.raises(ZeroVarianceError):
            skewness([1, 1, 1, 1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_counts_rejected(self, bad):
        # a NaN count made the skewness NaN, which no caller checks
        with pytest.raises(ValueError, match=rf"^counts contains non-finite values: "
                                             rf"counts\[1\] = {bad}$"):
            skewness([1.0, bad, 2.0])

    def test_symmetric_counts_zero(self):
        assert abs(skewness([0, 1, 2, 3, 4])) < 1e-12

    def test_hub_like_counts_match_exact_oracle(self):
        counts = [9, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        assert abs(skewness(counts) - exact_skewness(counts)) < 1e-10

    def test_random_integer_vectors_match_oracle(self, rng):
        for _ in range(25):
            counts = rng.integers(0, 40, size=rng.integers(2, 30))
            if counts.max() == counts.min():
                continue
            assert abs(skewness(counts) - exact_skewness(counts)) < 1e-10

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=40),
           st.integers(min_value=1, max_value=9))
    @settings(max_examples=60, deadline=None)
    def test_scale_and_translation_invariance(self, counts, c):
        counts = np.array(counts, dtype=float)
        if counts.max() == counts.min():
            return
        base = skewness(counts)
        assert abs(skewness(counts * c) - base) < 1e-9
        assert abs(skewness(counts + c) - base) < 1e-9

    def test_two_point_symmetric_multiset(self):
        assert abs(skewness([3, 7, 3, 7, 3, 7])) < 1e-12

    def test_too_short(self):
        with pytest.raises(ValueError, match="length >= 2"):
            skewness([5])
