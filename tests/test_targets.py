import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hubridge._arrays
from hubridge import knn
from hubridge.datamodel import dataset_from_arrays
from hubridge.experiment import fit_timed
from hubridge.targets import TargetSelectionError, indicator_matrix, select_targets

from _helpers import brute_force_targets, oracle_sq_dist, target_sets


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

    @pytest.mark.parametrize("k_targets", [1, 3])
    def test_matches_brute_force_at_large_offset(self, k_targets):
        # an uncentered expanded form loses the small differences to
        # cancellation against ~1e6 squared norms and picks wrong targets
        # (it did for 1-5 of the 600 objects at each of these seeds)
        for seed in range(2):
            rng = np.random.default_rng(seed)
            feats = rng.normal(size=(600, 50)) + 1e6
            labels = rng.integers(0, 3, size=600)
            ds = dataset_from_arrays(feats, labels)
            sets = target_sets(select_targets(ds, np.arange(600), k_targets))
            assert sets == brute_force_targets(feats, labels, k_targets)

    def test_rows_near_float64_range(self):
        # their expanded squared norms overflow float64; the direct
        # differences (1, 9 and 4) do not
        feats = np.array([[1e155, 0.0], [1e155, 1.0], [1e155, 3.0]])
        ds = dataset_from_arrays(feats, [0, 0, 0])
        sets = target_sets(select_targets(ds, np.arange(3), 1))
        assert sets == [(1,), (0,), (1,)]
        assert sets == brute_force_targets(feats, np.zeros(3), 1)

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
        # k_targets = 0 used to give an empty J that no fit could use
        ds = dataset_from_arrays([[0.0], [1.0]], [0, 0])
        with pytest.raises(ValueError, match="k_targets must be >= 1"):
            select_targets(ds, [0, 1], 0)
        with pytest.raises(ValueError, match="k_targets must be >= 1"):
            fit_timed(ds, "move-labeled", 0.1, 0, "paper")

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


@st.composite
def tied_classes(draw):
    """(features, labels, k_targets): 1-3 classes of 2-40 rows drawn from a few
    distinct 0/1 or small-integer rows, so rows repeat and distances tie, all
    scaled by 2^e for e in [-200, 200], and k_targets from 1 to the largest
    class size + 1."""
    sizes = draw(st.lists(st.integers(min_value=2, max_value=40), min_size=1, max_size=3))
    d = draw(st.integers(min_value=1, max_value=6))
    high = draw(st.sampled_from([1, 3]))
    distinct = draw(st.integers(min_value=1, max_value=12))
    k_targets = draw(st.integers(min_value=1, max_value=max(sizes) + 1))
    scale = 2.0 ** draw(st.integers(min_value=-200, max_value=200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    rows = rng.integers(0, high + 1, size=(distinct, d)) * scale
    feats = rows[rng.integers(0, distinct, size=sum(sizes))]
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    return feats, labels, k_targets


@st.composite
def count_classes(draw):
    """(features, labels, k_targets): 1-3 classes of 2-40 rows at scale 1 drawn
    from a few distinct 0/1 or 0-3 count rows, so rows repeat and distances
    tie, and k_targets from 1 to 20: integer rows the exact stage serves."""
    sizes = draw(st.lists(st.integers(min_value=2, max_value=40), min_size=1, max_size=3))
    d = draw(st.sampled_from([1, 3, 12, 40]))
    high = draw(st.sampled_from([1, 3]))
    distinct = draw(st.integers(min_value=1, max_value=20))
    k_targets = draw(st.integers(min_value=1, max_value=20))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    rows = rng.integers(0, high + 1, size=(distinct, d)).astype(np.float64)
    feats = rows[rng.integers(0, distinct, size=sum(sizes))]
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    return feats, labels, k_targets


def counting_bands(monkeypatch) -> list:
    """Record the values of every band the self-join takes."""
    seen = []
    real = knn.smallest_k_band

    def spy(*args):
        out = real(*args)
        seen.append(out[2])
        return out

    monkeypatch.setattr(knn, "smallest_k_band", spy)
    return seen


def tied_class(n: int, d: int = 3, seed: int = 0) -> np.ndarray:
    """n 0/1 rows, every row repeated at least once."""
    rows = np.random.default_rng(seed).integers(0, 2, size=(n // 2, d)).astype(np.float64)
    return np.vstack([rows, rows, rows[:n % 2]])


class TestSelfJoin:
    """Each class is one self-join; it must equal the full-sort oracle wherever
    its own entry, chunks or precision could go wrong."""

    @given(tied_classes())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_on_tied_rows(self, case):
        feats, labels, k_targets = case
        ds = dataset_from_arrays(feats, labels)
        sets = target_sets(select_targets(ds, np.arange(len(labels)), k_targets))
        assert sets == brute_force_targets(feats, labels, k_targets)

    @pytest.mark.parametrize("k_targets", [1, 4, 13])
    def test_class_split_over_chunks(self, monkeypatch, k_targets):
        # 7 rows per chunk: a 20-row class is cut into 3 chunks, so a row's
        # own entry is column lo + r of its chunk
        monkeypatch.setattr(hubridge._arrays, "_CHUNK_CELLS", 7 * 20)
        bands = counting_bands(monkeypatch)
        feats = tied_class(20)
        ds = dataset_from_arrays(feats, np.zeros(20, dtype=np.int64))
        sets = target_sets(select_targets(ds, np.arange(20), k_targets))
        assert len(bands) == 3
        assert sets == brute_force_targets(feats, np.zeros(20), k_targets)

    @pytest.mark.parametrize("k_targets", [11, 15, 19])
    def test_more_than_half_the_class(self, k_targets):
        # k > n/2 puts each strided group at one column, so the bound T of the
        # rows whose own +inf entry is among the first k columns is +inf and
        # the band holds that entry; it must not reach the re-rank
        feats = tied_class(20, seed=k_targets)
        ds = dataset_from_arrays(feats, np.zeros(20, dtype=np.int64))
        sets = target_sets(select_targets(ds, np.arange(20), k_targets))
        assert sets == brute_force_targets(feats, np.zeros(20), k_targets)

    def test_own_entry_dropped_before_the_re_rank(self, monkeypatch):
        bands = counting_bands(monkeypatch)
        ranked = []
        real = knn._rank
        monkeypatch.setattr(knn, "_rank", lambda *args: ranked.append(args) or real(*args))
        # off the integer lattice, so the certified stage serves the class
        ds = dataset_from_arrays(tied_class(20) + 0.5, np.zeros(20, dtype=np.int64))
        select_targets(ds, np.arange(20), 15)
        assert np.isinf(bands[0]).any()
        # one chunk, so a row's own column is its row index
        *_, rows, cols, values, _ = ranked[0]
        assert np.isfinite(values).all() and not (rows == cols).any()

    def test_chunked_rows_near_float64_range(self, monkeypatch):
        # the 1e155 rows overflow float32 unscaled; every chunk forms one
        # float32 block all the same
        monkeypatch.setattr(hubridge._arrays, "_CHUNK_CELLS", 4 * 12)
        bands = counting_bands(monkeypatch)
        feats = np.column_stack([np.full(12, 1e155), tied_class(12, d=1)[:, 0] * 3])
        ds = dataset_from_arrays(feats, np.zeros(12, dtype=np.int64))
        for k_targets in (1, 5, 11):
            sets = target_sets(select_targets(ds, np.arange(12), k_targets))
            assert sets == brute_force_targets(feats, np.zeros(12), k_targets)
        assert len(bands) == 3 * 3 and {b.dtype for b in bands} == {np.dtype(np.float32)}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-160, 1e-310])
    def test_oracle_underflow_ties_kept(self, rng, scale):
        # below ~1e-154 the oracle's squares underflow (at 1e-310, to zero): it
        # ties the near-copies' distances, and the targets must follow its ties
        feats = rng.normal(size=(40, 3)) * scale
        feats[20:] = feats[:20] + 1e-6 * scale
        labels = np.tile([0, 1], 20)
        ds = dataset_from_arrays(feats, labels)
        for k_targets in (1, 4):
            sets = target_sets(select_targets(ds, np.arange(40), k_targets))
            assert sets == brute_force_targets(feats, labels, k_targets)

    def test_tiny_inputs_re_rank_no_more(self, rng, re_ranked):
        # unscaled, 1e-19 inputs underflow in float32 and every entry is re-ranked;
        # the 0.5 shift keeps the ties and exact arithmetic but leaves the integer
        # lattice, whose exact stage would skip the re-rank at scale 1
        feats = (rng.random((300, 20)) < 0.3) + 0.5
        labels = np.repeat([0, 1, 2], 100)
        totals = []
        for scale in (1.0, 1e-19):
            re_ranked.clear()
            ds = dataset_from_arrays(feats * scale, labels)
            sets = target_sets(select_targets(ds, np.arange(300), 5))
            assert sets == brute_force_targets(feats * scale, labels, 5)
            totals.append(sum(re_ranked))
        assert totals[0] == totals[1] < 3 * 100 * 99

    @given(count_classes())
    @settings(max_examples=100, deadline=None)
    def test_count_rows_match_brute_force(self, case):
        feats, labels, k_targets = case
        ds = dataset_from_arrays(feats, labels)
        sets = target_sets(select_targets(ds, np.arange(len(labels)), k_targets))
        assert sets == brute_force_targets(feats, labels, k_targets)

    @pytest.mark.parametrize("shift, re_ranks", [(0.0, False), (0.5, True)],
                             ids=["integer", "shifted"])
    def test_integer_rows_re_rank_nothing(self, rng, re_ranked, shift, re_ranks):
        # the same ties either way: shifted by 0.5 the rows leave the lattice
        feats = (rng.random((300, 20)) < 0.3) + shift
        labels = np.repeat([0, 1, 2], 100)
        ds = dataset_from_arrays(feats, labels)
        sets = target_sets(select_targets(ds, np.arange(300), 5))
        assert sets == brute_force_targets(feats, labels, 5)
        assert (sum(re_ranked) > 0) is re_ranks

    def test_float64_overflow_names_the_class(self):
        # centered squared norms near 1e320: the distances themselves overflow
        ds = dataset_from_arrays([[1e160, 0.0], [-1e160, 1.0], [0.0, 3.0], [0.0, 0.0], [1.0, 0.0]],
                                 [0, 0, 0, 1, 1], label_names=("far", "near"))
        with pytest.raises(TargetSelectionError,
                           match="training class 'far': squared distances overflow float64"):
            select_targets(ds, np.arange(5), 1)


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
