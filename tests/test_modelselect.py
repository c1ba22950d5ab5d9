from itertools import permutations

import numpy as np
import pytest

from hubridge import modelselect
from hubridge.datamodel import dataset_from_arrays
from hubridge.knn import knn_from_transform, majority_vote, neighbor_index_matrix
from hubridge.modelselect import (METHODS, CvConfig, CvResult, FoldError, grid_search,
                                  make_folds)
from hubridge.targets import TargetSelectionError, select_targets
from hubridge.transform import fit_move_query

from _helpers import gaussian_mixture


class TestMakeFolds:
    def test_balanced_two_class_five_folds(self):
        indices = np.arange(10)
        labels = np.tile([0, 1], 5)
        folds = make_folds(indices, labels, 5, seed=0)
        assert len(folds) == 5
        for f in folds:
            assert f.size == 2
            assert set(labels[f]) == {0, 1}

    def test_odd_class_sizes(self):
        indices = np.arange(7)
        labels = np.zeros(7, dtype=int)
        folds = make_folds(indices, labels, 2, seed=1)
        sizes = sorted(f.size for f in folds)
        assert sizes == [3, 4]

    def test_partition_and_stratification_checker(self):
        # oracle: explicit partition + per-class-count checker
        indices = np.arange(150)
        labels = np.tile([0, 1, 2], 50)
        for seed in (1, 2):
            folds = make_folds(indices, labels, 5, seed)
            merged = np.sort(np.concatenate(folds))
            np.testing.assert_array_equal(merged, indices)
            for c in range(3):
                per_fold = [int((labels[f] == c).sum()) for f in folds]
                assert max(per_fold) - min(per_fold) <= 1
        a = make_folds(indices, labels, 5, 1)
        b = make_folds(indices, labels, 5, 2)
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_class_smaller_than_folds(self):
        with pytest.raises(FoldError, match="class 1"):
            make_folds(np.arange(6), np.array([0, 0, 0, 0, 0, 1]), 3, seed=0)

    @pytest.mark.parametrize("indices, labels, message", [
        ([-1, 0, 1, 2], [0, 0, 1, 1], r"indices\[0\] = -1 is out of range"),
        ([1, 1, 2, 2], [0, 0, 1, 1], r"indices\[1\] = 1 repeats an earlier entry"),
    ], ids=["negative", "repeated"])
    def test_bad_indices_rejected(self, indices, labels, message):
        # a repeated row would sit on the fit side and the validation side at once
        with pytest.raises(ValueError, match=message):
            make_folds(indices, labels, 2, 0)

    def test_matches_member_by_member_reference(self):
        # the per-member loop make_folds replaced, with the same draws in the same order
        def reference(indices, labels, n_folds, seed):
            rng = np.random.default_rng(seed)
            folds = [[] for _ in range(n_folds)]
            for c in np.unique(labels):
                perm = rng.permutation(indices[labels == c])
                start = int(rng.integers(n_folds))
                for t, member in enumerate(perm):
                    folds[(start + t) % n_folds].append(int(member))
            return [np.sort(np.array(f, dtype=np.int64)) for f in folds]

        rng = np.random.default_rng(7)
        for _ in range(50):
            n_folds = int(rng.integers(2, 6))
            labels = np.repeat(rng.permutation(4), rng.integers(n_folds, 3 * n_folds, 4))
            indices = rng.permutation(10 * labels.size)[:labels.size]
            seed = int(rng.integers(1000))
            for got, want in zip(make_folds(indices, labels, n_folds, seed),
                                 reference(indices, labels, n_folds, seed), strict=True):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_non_contiguous_indices(self):
        indices = np.array([3, 7, 11, 20, 21, 30])
        labels = np.array([0, 1, 0, 1, 0, 1])
        folds = make_folds(indices, labels, 3, seed=5)
        merged = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(merged, np.sort(indices))


class TestGridSearch:
    def separable_dataset(self, n=100, seed=0):
        x, y = gaussian_mixture(n, 5, 2, sep=6.0, seed=seed)
        return dataset_from_arrays(x, y)

    def test_singleton_grids(self):
        ds = self.separable_dataset()
        cfg = CvConfig(lambda_grid=(0.5,), k_grid=(3,), n_folds=5, seed=0)
        res = grid_search(ds, np.arange(ds.n), cfg, ["move-labeled"]).result(0)
        assert res.best_lambda == 0.5 and res.best_k == 3
        assert len(res.table) == 1
        assert 0.0 <= res.table[0].mean_accuracy <= 1.0

    def test_degenerate_lambda_rejected(self):
        # lambda=1e12 collapses the labeled points to a whisker of the
        # origin, where only the rank-limited numerator signal is left; on
        # overlapping classes that scorer loses and CV must prefer the sane
        # candidate (oracle: evaluate both directly)
        x, y = gaussian_mixture(120, 6, 3, sep=1.5, seed=0)
        ds = dataset_from_arrays(x, y)
        cfg = CvConfig(lambda_grid=(0.1, 1e12), k_grid=(1,), n_folds=5, seed=0)
        res = grid_search(ds, np.arange(ds.n), cfg, ["move-labeled"]).result(0)
        assert res.best_lambda == 0.1
        by_lam = {c.lam: c.mean_accuracy for c in res.table}
        assert by_lam[0.1] > by_lam[1e12]

    def test_deterministic(self):
        ds = self.separable_dataset()
        cfg = CvConfig(lambda_grid=(0.1, 1.0), k_grid=(1, 3), n_folds=5, seed=3)
        a = grid_search(ds, np.arange(ds.n), cfg, ["move-labeled"]).result(0)
        b = grid_search(ds, np.arange(ds.n), cfg, ["move-labeled"]).result(0)
        assert a == b

    def test_argmax_consistency(self):
        ds = self.separable_dataset(seed=4)
        cfg = CvConfig(lambda_grid=(0.01, 1.0), k_grid=(1, 5), n_folds=4, seed=2)
        res = grid_search(ds, np.arange(ds.n), cfg, ["move-query"]).result(0)
        best_mean = max(c.mean_accuracy for c in res.table)
        winner = [c for c in res.table
                  if c.lam == res.best_lambda and c.k == res.best_k][0]
        assert winner.mean_accuracy == best_mean

    def test_tie_rule_prefers_larger_lambda_then_smaller_k(self):
        # well-separated classes: every cell scores 1.0, so the winner must
        # be the largest lambda with the smallest k
        ds = self.separable_dataset(seed=5)
        cfg = CvConfig(lambda_grid=(0.1, 10.0), k_grid=(1, 3), n_folds=5, seed=1)
        res = grid_search(ds, np.arange(ds.n), cfg, ["move-labeled"]).result(0)
        assert [c.mean_accuracy for c in res.table] == [1.0] * 4
        assert (res.best_lambda, res.best_k) == (10.0, 1)

    def test_euclidean_reduces_to_k_selection(self):
        ds = self.separable_dataset(seed=6)
        cfg = CvConfig(lambda_grid=(0.1, 10.0), k_grid=(1, 3, 5), n_folds=5, seed=0)
        res = grid_search(ds, np.arange(ds.n), cfg, ["euclidean"]).result(0)
        assert res.best_lambda == 0.0
        assert res.best_k in (1, 3, 5)

    def test_folds_partition_training_indices(self):
        ds = self.separable_dataset(seed=7)
        train = np.arange(0, 80)
        cfg = CvConfig(lambda_grid=(0.1,), k_grid=(1,), n_folds=4, seed=9)
        res = grid_search(ds, train, cfg, ["move-labeled"]).result(0)
        merged = np.sort(np.concatenate([np.array(f) for f in res.folds]))
        np.testing.assert_array_equal(merged, train)

    def test_validation_never_in_fit_side(self):
        # structural proxy: removing a validation point from the training
        # rows must not change the folds' training composition it scored on;
        # here we simply check folds are disjoint so no point scores itself
        ds = self.separable_dataset(seed=8)
        cfg = CvConfig(lambda_grid=(0.1,), k_grid=(1,), n_folds=5, seed=3)
        res = grid_search(ds, np.arange(ds.n), cfg, ["move-labeled"]).result(0)
        seen = set()
        for f in res.folds:
            assert not (seen & set(f))
            seen |= set(f)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            CvConfig(lambda_grid=(), k_grid=(1,), n_folds=2, seed=0)

    @pytest.mark.parametrize("lam", [-1.0, np.nan])
    def test_negative_lambda_rejected(self, lam):
        # NaN used to pass, and every fit at it failed on a non-finite W
        with pytest.raises(ValueError, match=r"lambda_grid\[1\] must be finite and non-negative"):
            CvConfig(lambda_grid=(0.1, lam), k_grid=(1,), n_folds=2, seed=0)

    def test_unknown_method_rejected(self):
        ds = self.separable_dataset(seed=9)
        cfg = CvConfig(lambda_grid=(0.1,), k_grid=(1,), n_folds=3, seed=0)
        with pytest.raises(ValueError, match=r"methods\[1\] must be one of .*, got 'move-both'"):
            grid_search(ds, np.arange(ds.n), cfg, ["euclidean", "move-both"])

    @pytest.mark.parametrize("methods, message", [
        (["move-labeled", "move-labeled"], r"methods\[1\] = 'move-labeled' repeats"),
        ([], "^methods must be non-empty$"),
    ], ids=["repeated", "empty"])
    def test_method_list_rejected(self, methods, message):
        ds = self.separable_dataset(seed=9)
        cfg = CvConfig(lambda_grid=(0.1,), k_grid=(1,), n_folds=3, seed=0)
        with pytest.raises(ValueError, match=message):
            grid_search(ds, np.arange(ds.n), cfg, methods)

    def test_json_round_trip_schema(self):
        ds = self.separable_dataset(seed=9)
        cfg = CvConfig(lambda_grid=(0.1,), k_grid=(1,), n_folds=3, seed=0)
        res = grid_search(ds, np.arange(ds.n), cfg, ["euclidean"]).result(0)
        doc = CvResult.JSON.encode(res)
        assert doc["version"] == 1
        assert {"lambda", "k", "mean_accuracy", "std_accuracy"} == set(doc["table"][0])


def cells(result: CvResult) -> list[tuple]:
    return [(c.lam, c.k, c.mean_accuracy, c.std_accuracy) for c in result.table]


def library_table(ds, cfg: CvConfig, folds, lambdas) -> list[tuple]:
    """``cells`` recomputed fold by fold through the library path: a move-query
    fit per lambda (None: Euclidean) and ``knn_from_transform``'s model of the
    fold's centered fit rows, looked up with ``neighbor_index_matrix``."""
    max_k = max(cfg.k_grid)
    acc = np.zeros((len(lambdas), len(cfg.k_grid), cfg.n_folds))
    for f, val in enumerate(folds):
        val = np.array(val)
        fit = np.sort(np.concatenate([g for h, g in enumerate(folds) if h != f]))
        mu = ds.features[fit].mean(axis=0)
        x_fit, x_val = ds.features[fit] - mu, ds.features[val] - mu
        j = select_targets(ds, fit, cfg.k_targets)
        for li, lam in enumerate(lambdas):
            tm = None if lam is None else fit_move_query(x_fit.T, j, lam)
            km = knn_from_transform(tm, x_fit, ds.labels[fit], max_k)
            nbr = ds.labels[fit][neighbor_index_matrix(km, x_val)]
            for ki, k in enumerate(cfg.k_grid):
                pred = majority_vote(nbr[:, :k])
                acc[li, ki, f] = np.mean(pred == ds.labels[val])
    return [(0.0 if lam is None else lam, k, acc[li, ki].mean(), acc[li, ki].std(ddof=1))
            for li, lam in enumerate(lambdas) for ki, k in enumerate(cfg.k_grid)]


class TestSharedPass:
    """Every method's outcome is the one a pass serving that method alone gives."""

    @pytest.mark.parametrize("k_targets, solver", [(1, "paper"), (2, "exact")])
    @pytest.mark.parametrize("methods", [order for r in (2, 3)
                                         for order in permutations(METHODS, r)])
    def test_result_does_not_depend_on_the_other_methods(self, methods, k_targets, solver):
        # overlapping classes, so any change of W moves validation accuracy;
        # with two targets every Gram differs and none may be shared
        x, y = gaussian_mixture(120, 6, 3, sep=0.8, seed=11)
        ds = dataset_from_arrays(x, y)
        train = np.arange(ds.n)
        cfg = CvConfig((0.0, 0.03, 1.0), (1, 3, 5), 3, 4, k_targets, solver)
        together = grid_search(ds, train, cfg, methods)
        for i, method in enumerate(methods):
            alone = grid_search(ds, train, cfg, [method])
            assert together.result(i) == alone.result(0), method

    def test_unmapped_lookups_equal_a_model_per_lambda(self):
        # Euclidean and move-query share one Euclidean model per fold; each
        # cell must equal the one a KnnModel built through knn_from_transform
        # for that lambda alone gives (move-query: Dissimilarity(query_map=W))
        x, y = gaussian_mixture(120, 6, 3, sep=0.8, seed=11)
        ds = dataset_from_arrays(x, y)
        cfg = CvConfig((0.0, 0.03, 1.0), (1, 3, 5), 3, 4)
        cv = grid_search(ds, np.arange(ds.n), cfg, ["euclidean", "move-query"])
        for i, lambdas in enumerate([(None,), cfg.lambda_grid]):
            assert cells(cv.result(i)) == library_table(ds, cfg, cv.folds, lambdas)

    @pytest.mark.parametrize("k_targets", [1, 2])
    @pytest.mark.parametrize("rounded", [False, True], ids=["continuous", "integer"])
    def test_move_query_alone_equals_the_library_path(self, k_targets, rounded):
        # the fold maps its validation rows itself and looks them up on its
        # shared Euclidean model; the table must stay the library path's
        x, y = gaussian_mixture(90, 5, 3, sep=0.8, seed=5)
        ds = dataset_from_arrays(np.rint(2 * x) if rounded else x, y)
        cfg = CvConfig((0.01, 1.0), (1, 4), 3, 2, k_targets)
        cv = grid_search(ds, np.arange(ds.n), cfg, ["move-query"])
        assert cells(cv.result(0)) == library_table(ds, cfg, cv.folds, cfg.lambda_grid)

    def test_a_failing_method_leaves_the_others_running(self):
        # an all-zero column makes X X^T singular at lambda 0: the fitted
        # methods fail, Euclidean (which has no lambda) still gets its result
        x, y = gaussian_mixture(60, 4, 2, sep=2.0, seed=1)
        x[:, 2] = 0.0
        ds = dataset_from_arrays(x, y)
        cfg = CvConfig((0.0,), (1,), 3, 0)
        cv = grid_search(ds, np.arange(ds.n), cfg, METHODS)
        assert cv.result(0) == grid_search(ds, np.arange(ds.n), cfg, METHODS[:1]).result(0)
        for i in (1, 2):
            with pytest.raises(ValueError, match="singular at lambda=0.0"):
                cv.result(i)

    @pytest.fixture
    def selections(self, monkeypatch):
        """The calls grid_search makes to select_targets, as the test runs."""
        calls = []
        real = modelselect.select_targets

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(modelselect, "select_targets", counted)
        return calls

    @pytest.mark.parametrize("methods", [METHODS, METHODS[1:]])
    def test_targets_selected_once_per_fold(self, selections, methods):
        ds = dataset_from_arrays(*gaussian_mixture(60, 4, 2, sep=2.0, seed=1))
        grid_search(ds, np.arange(ds.n), CvConfig((0.1, 1.0), (1, 3), 3, 0), methods)
        assert len(selections) == 3

    def test_a_failed_selection_fails_each_fitted_method(self, selections):
        # a class of two leaves one member on each fold's fit side, which has no
        # same-class target; each fitted method's own call raises, Euclidean runs on
        x, y = gaussian_mixture(60, 4, 2, sep=2.0, seed=1)
        y[:2] = 2
        ds = dataset_from_arrays(x, y)
        cfg = CvConfig((0.1,), (1,), 2, 0)
        cv = grid_search(ds, np.arange(ds.n), cfg, METHODS)
        assert len(selections) == 2  # the first fold's, once per fitted method
        for i in (1, 2):
            with pytest.raises(TargetSelectionError, match="training class '2' has a single "
                                                           "member"):
                cv.result(i)
        assert cv.result(0) == grid_search(ds, np.arange(ds.n), cfg, METHODS[:1]).result(0)

    @pytest.mark.parametrize("change, message", [
        ((0, -1), r"train_indices\[0\] = -1 is out of range \[0, 30\)"),
        ((29, 30), r"train_indices\[29\] = 30 is out of range \[0, 30\)"),
        ((29, 0), r"train_indices\[29\] = 0 repeats an earlier entry"),
    ], ids=["negative", "out-of-range", "repeated"])
    def test_bad_train_indices_rejected(self, change, message):
        # a Euclidean-only pass never selects targets, whose check would catch them
        ds = dataset_from_arrays(*gaussian_mixture(30, 3, 2, sep=2.0, seed=0))
        train = np.arange(30)
        train[change[0]] = change[1]
        with pytest.raises(ValueError, match=message):
            grid_search(ds, train, CvConfig((0.0,), (1,), 3, 0), ["euclidean"])
