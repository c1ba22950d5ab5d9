import numpy as np
import pytest

from hubridge.datamodel import dataset_from_arrays
from hubridge.targets import TargetSelectionError, indicator_matrix, select_targets

from _helpers import oracle_sq_dist


def brute_force_targets(features, labels, k_targets):
    """Oracle: exhaustive same-class scan with (distance, index) sorting.

    Returns each object's chosen targets as a sorted index tuple, the row
    pattern of J.
    """
    out = []
    for i in range(len(features)):
        cands = [(oracle_sq_dist(features[i], features[j]), j)
                 for j in range(len(features))
                 if j != i and labels[j] == labels[i]]
        cands.sort()
        out.append(tuple(sorted(j for _, j in cands[:k_targets])))
    return out


def target_sets(jj):
    """Each row's target columns, ascending, from J."""
    assert jj.has_canonical_format and (jj.data == 1).all()
    return [tuple(int(c) for c in jj.indices[jj.indptr[i]:jj.indptr[i + 1]])
            for i in range(jj.shape[0])]


class TestSelectTargets:
    def test_two_points_mutual(self):
        ds = dataset_from_arrays([[0.0], [1.0]], [0, 0])
        sets = target_sets(select_targets(ds, [0, 1], 1))
        assert sets == [(1,), (0,)]

    def test_matches_brute_force(self, rng):
        feats = rng.normal(size=(5, 2))
        labels = np.array([0, 0, 1, 1, 1])
        ds = dataset_from_arrays(feats, labels)
        sets = target_sets(select_targets(ds, np.arange(5), 1))
        assert sets == brute_force_targets(feats, labels, 1)

    def test_matches_brute_force_k2(self, rng):
        feats = rng.normal(size=(12, 3))
        labels = np.array([0, 1] * 6)
        ds = dataset_from_arrays(feats, labels)
        sets = target_sets(select_targets(ds, np.arange(12), 2))
        assert sets == brute_force_targets(feats, labels, 2)

    def test_k1_gives_singletons(self, rng):
        feats = rng.normal(size=(20, 4))
        labels = np.repeat([0, 1, 2, 3], 5)
        ds = dataset_from_arrays(feats, labels)
        sets = target_sets(select_targets(ds, np.arange(20), 1))
        assert all(len(t) == 1 for t in sets)

    def test_small_class_degrades_gracefully(self):
        # class 0 has 2 members: with k_targets=3 each gets the 1 available
        feats = [[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]]
        labels = [0, 0, 1, 1, 1, 1]
        ds = dataset_from_arrays(feats, labels)
        sets = target_sets(select_targets(ds, np.arange(6), 3))
        assert sets[0] == (1,) and sets[1] == (0,)
        assert all(len(sets[i]) == 3 for i in range(2, 6))

    def test_singleton_class_rejected(self):
        ds = dataset_from_arrays([[0.0], [1.0], [2.0]], [0, 0, 1],
                                 label_names=("a", "lonely"))
        with pytest.raises(TargetSelectionError, match="lonely"):
            select_targets(ds, np.arange(3), 1)

    def test_duplicate_points_are_legal_targets(self):
        feats = [[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]]
        ds = dataset_from_arrays(feats, [0, 0, 0])
        sets = target_sets(select_targets(ds, np.arange(3), 1))
        assert sets[0] == (1,)
        assert sets[1] == (0,)

    def test_tie_broken_by_lower_index(self):
        # points 1 and 2 both at distance 1 from point 0
        feats = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        ds = dataset_from_arrays(feats, [0, 0, 0])
        sets = target_sets(select_targets(ds, np.arange(3), 1))
        assert sets[0] == (1,)

    def test_tie_group_straddling_kth_place(self):
        # points 1..4 are all at distance 1 from point 0; k=2 keeps 1 and 2
        feats = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        ds = dataset_from_arrays(feats, [0] * 5)
        assert target_sets(select_targets(ds, np.arange(5), 2))[0] == (1, 2)

    def test_duplicated_binary_rows_match_brute_force(self, rng):
        feats = rng.integers(0, 2, size=(24, 4)).astype(float)
        feats = np.vstack([feats, feats[:8]])
        labels = np.tile([0, 1], 16)
        ds = dataset_from_arrays(feats, labels)
        for k in (1, 2, 5):
            sets = target_sets(select_targets(ds, np.arange(32), k))
            assert sets == brute_force_targets(feats, labels, k)

    @pytest.mark.parametrize("train, message", [
        ([0, -1, 2], r"train\[1\] = -1 is out of range \[0, 4\)"),
        ([0, 1, 4], r"train\[2\] = 4 is out of range \[0, 4\)"),
        ([3, 1, 3], r"train\[2\] = 3 repeats an earlier entry"),
    ])
    def test_bad_train_indices_rejected(self, train, message):
        ds = dataset_from_arrays([[0.0], [1.0], [2.0], [3.0]], [0, 0, 0, 0])
        with pytest.raises(ValueError, match=message):
            select_targets(ds, train, 1)

    def test_train_local_indexing(self, rng):
        # selecting on a sub-list yields positions within that list
        feats = rng.normal(size=(6, 2))
        ds = dataset_from_arrays(feats, [0, 1, 0, 1, 0, 1])
        train = [2, 3, 4, 5]
        sets = target_sets(select_targets(ds, train, 1))
        oracle = brute_force_targets(feats[train], np.array([0, 1, 0, 1]), 1)
        assert sets == oracle

    def test_k_targets_zero(self):
        ds = dataset_from_arrays([[0.0], [1.0]], [0, 0])
        sets = target_sets(select_targets(ds, [0, 1], 0))
        assert sets == [(), ()]

    def test_unique_argmin_when_distances_distinct(self, rng):
        feats = rng.normal(size=(9, 3))
        labels = np.repeat([0, 1, 2], 3)
        ds = dataset_from_arrays(feats, labels)
        sets = target_sets(select_targets(ds, np.arange(9), 1))
        for i, t in enumerate(sets):
            same = [j for j in range(9) if labels[j] == labels[i] and j != i]
            best = min(same, key=lambda j: oracle_sq_dist(feats[i], feats[j]))
            assert t == (best,)

    def test_permutation_commutes(self, rng):
        feats = rng.normal(size=(8, 2))
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        ds = dataset_from_arrays(feats, labels)
        base = target_sets(select_targets(ds, np.arange(8), 1))
        perm = rng.permutation(8)
        ds2 = dataset_from_arrays(feats[perm], labels[perm])
        permuted = target_sets(select_targets(ds2, np.arange(8), 1))
        inv = np.empty(8, dtype=int)
        inv[perm] = np.arange(8)
        for new_i in range(8):
            old_i = perm[new_i]
            assert permuted[new_i] == tuple(sorted(int(inv[j]) for j in base[old_i]))


class TestIndicatorMatrix:
    def test_mutual_pair(self):
        j = indicator_matrix([0, 1], [1, 0], 2).toarray()
        np.testing.assert_array_equal(j, [[0, 1], [1, 0]])

    def test_zero_matrix_for_no_targets(self):
        assert indicator_matrix([], [], 2).nnz == 0

    def test_five_point_assignment(self, rng):
        feats = rng.normal(size=(5, 2))
        labels = np.array([0, 0, 1, 1, 1])
        ds = dataset_from_arrays(feats, labels)
        j = select_targets(ds, np.arange(5), 1).toarray()
        # oracle: direct construction from the brute-force lists
        want = np.zeros((5, 5))
        for i, t in enumerate(brute_force_targets(feats, labels, 1)):
            for col in t:
                want[i, col] = 1
        np.testing.assert_array_equal(j, want)
        assert j.sum() == 5 and (j.sum(axis=1) == 1).all()

    def test_zero_diagonal_and_same_label_columns(self, rng):
        feats = rng.normal(size=(10, 3))
        labels = np.tile([0, 1], 5)
        ds = dataset_from_arrays(feats, labels)
        j = select_targets(ds, np.arange(10), 2).toarray()
        assert (np.diag(j) == 0).all()
        rows, cols = j.nonzero()
        assert (labels[rows] == labels[cols]).all()

    def test_row_sums_match_list_sizes(self):
        # pairs in any order give the same canonical J
        j = indicator_matrix([1, 0, 0], [0, 2, 1], 3)
        assert j.has_canonical_format
        np.testing.assert_array_equal(np.asarray(j.sum(axis=1)).ravel(), [2, 1, 0])
        assert target_sets(j) == [(1, 2), (0,), ()]

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match=r"targets\[1\] = 5 is out of range \[0, 3\)"):
            indicator_matrix([0, 1], [1, 5], 3)

    @pytest.mark.parametrize("owners, message", [
        ([0, -1], r"owners\[1\] = -1 is out of range \[0, 3\)"),
        ([0, 1, 2], r"owners has 3 entries, targets 2"),
    ], ids=["negative", "unaligned"])
    def test_bad_owners_rejected(self, owners, message):
        with pytest.raises(ValueError, match=message):
            indicator_matrix(owners, [1, 0], 3)

    def test_self_target_rejected(self):
        with pytest.raises(ValueError, match="pair 1: object 2 lists itself"):
            indicator_matrix([0, 2], [1, 2], 3)

    def test_repeated_pair_rejected(self):
        # a repeated pair would add up to a J entry of 2
        with pytest.raises(ValueError, match=r"pair 3 \(0, 2\) repeats an earlier pair"):
            indicator_matrix([0, 1, 0, 0], [2, 0, 1, 2], 3)
