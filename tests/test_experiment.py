import json
import re
from pathlib import Path

import numpy as np
import pytest

import hubridge.experiment
import hubridge.modelselect
from hubridge import knn
from hubridge.datamodel import (Preprocessor, bundled_dataset_path, column_mean_sd,
                                dataset_from_arrays, split)
from hubridge.experiment import (ExperimentConfig, ExperimentReport, MethodSplitResult,
                                 ModelArtifact, TIMING_FIELDS, fit_timed, preprocess,
                                 run_experiment, training_record)
from hubridge.modelselect import CvConfig, grid_search
from hubridge.targets import select_targets

from _helpers import gaussian_mixture, write_dense_csv


@pytest.fixture
def mixture_csv(tmp_path):
    x, y = gaussian_mixture(150, 8, 3, sep=1.5, seed=42)
    p = tmp_path / "mix.csv"
    write_dense_csv(p, x, y)
    return p


def small_config(path, **kw):
    base = dict(dataset_path=str(path), n_splits=2, seeds=(1, 2),
                lambda_grid=(0.01, 0.1, 1.0), k_grid=(1, 3), cv_folds=3)
    base.update(kw)
    return ExperimentConfig(**base)


class TestPreprocess:
    def test_center_uses_train_rows_only(self, rng):
        feats = rng.normal(5.0, 1.0, size=(40, 3))
        ds = dataset_from_arrays(feats, np.tile([0, 1], 20))
        sp = split(ds, 0.5, seed=0)
        pre = preprocess(ds, sp.train_indices, center=True)
        train_mean = pre.features[sp.train_indices].mean(axis=0)
        np.testing.assert_allclose(train_mean, 0.0, atol=1e-12)
        # test rows keep the train-mean offset
        want = feats[sp.test_indices] - feats[sp.train_indices].mean(axis=0)
        np.testing.assert_allclose(pre.features[sp.test_indices], want)

    def test_zscore_train_statistics(self, rng):
        feats = rng.normal(3.0, 2.5, size=(60, 4))
        ds = dataset_from_arrays(feats, np.tile([0, 1], 30))
        sp = split(ds, 0.5, seed=1)
        pre = preprocess(ds, sp.train_indices, center=False, zscore=True)
        tr = pre.features[sp.train_indices]
        np.testing.assert_allclose(tr.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(tr.std(axis=0, ddof=1), 1.0, atol=1e-10)

    def test_pca_output_dimension(self, rng):
        feats = rng.normal(size=(50, 10))
        ds = dataset_from_arrays(feats, np.tile([0, 1], 25))
        pre = preprocess(ds, None, center=True, pca_dim=4)
        assert pre.features.shape == (50, 4)
        assert pre.class_count == 2

    def test_full_fit_when_no_rows_given(self, rng):
        feats = rng.normal(7.0, 1.0, size=(30, 2))
        ds = dataset_from_arrays(feats, np.tile([0, 1], 15))
        pre = preprocess(ds, None, center=True)
        np.testing.assert_allclose(pre.features.mean(axis=0), 0.0, atol=1e-12)


    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("zscore", [False, True])
    @pytest.mark.parametrize("pca_dim", [None, 3])
    @pytest.mark.parametrize("train_rows", [None, "split"])
    def test_bit_identical_to_all_rows_reference(self, rng, center, zscore, pca_dim,
                                                 train_rows):
        # reference: each step computed on every row, statistics read from the
        # training rows of the previous step's output
        ds = dataset_from_arrays(rng.normal(2.0, 3.0, size=(40, 7)) * rng.uniform(0.1, 50, 7),
                                 np.tile([0, 1], 20))
        rows = (np.arange(ds.n) if train_rows is None
                else split(ds, 0.6, seed=4).train_indices)
        want = ds.features
        if zscore:
            mean, sd = column_mean_sd(want[rows])
            want = (want - mean) / sd
        if center or pca_dim is not None:  # PCA centers regardless
            want = want - want[rows].mean(axis=0)
        if pca_dim is not None:
            # principal axes from a thin SVD, each with its largest-magnitude entry positive
            axes = np.linalg.svd(want[rows], full_matrices=False)[2][:pca_dim].T.copy()
            for c in range(pca_dim):
                if axes[np.abs(axes[:, c]).argmax(), c] < 0:
                    axes[:, c] = -axes[:, c]
            want = want @ axes
        got = preprocess(ds, None if train_rows is None else rows, center=center,
                         zscore=zscore, pca_dim=pca_dim)
        assert np.array_equal(got.features, want)
        assert np.array_equal(got.labels, ds.labels)


    @pytest.mark.parametrize("rows, message", [
        ([-1, 0, 1, 2], r"train_rows\[0\] = -1 is out of range \[0, 6\)"),
        ([0, 1, 6], r"train_rows\[2\] = 6 is out of range \[0, 6\)"),
        ([0, 1, 2, 1], r"train_rows\[3\] = 1 repeats an earlier entry"),
    ], ids=["negative", "out-of-range", "repeated"])
    def test_bad_train_rows_rejected(self, rng, rows, message):
        # a negative row would fit the statistics on the end of the dataset
        ds = dataset_from_arrays(rng.normal(size=(6, 3)), [0, 1, 2] * 2)
        with pytest.raises(ValueError, match=message):
            preprocess(ds, rows)


class TestModelArtifact:
    def fitted(self, rng, pca_dim=3, center=True):
        x = rng.normal(1.0, 4.0, size=(30, 6)) * np.array([1.0, 10.0, 0.1, 1.0, 5.0, 2.0])
        ds = dataset_from_arrays(x, np.tile([0, 1, 2], 10), label_names=("a", "b", "c"))
        prep = Preprocessor.fit(ds.features, center=center, zscore=True, pca_dim=pca_dim)
        pre = dataset_from_arrays(prep.apply(ds.features), ds.labels,
                                  label_names=ds.label_names)
        tm, _, _ = fit_timed(pre, "move-labeled", 0.3, 1, "exact")
        return ModelArtifact(prep, tm, ds.label_names, training_record(ds))

    def test_exact_json_round_trip(self, rng, tmp_path):
        art = self.fitted(rng)
        path = tmp_path / "model.json"
        art.save(path)
        got = ModelArtifact.load(path)
        assert json.loads(path.read_text())["version"] == 4
        assert got.training == art.training and art.training["n"] == 30
        assert np.array_equal(got.transform.w, art.transform.w)
        assert (got.transform.direction, got.transform.lam, got.transform.solver) == (
            "move-labeled", 0.3, "exact")
        a, b = got.preprocessor, art.preprocessor
        assert a.d_in == b.d_in == 6 and got.label_names == ("a", "b", "c")
        for name in ("zscore_mean", "zscore_sd", "center_mean", "components"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.components.shape == (6, 3)

    def test_uncentered_pca_round_trip(self, rng, tmp_path):
        # a center=False PCA fit still stores the mean its axes were fitted on
        art = self.fitted(rng, center=False)
        path = tmp_path / "model.json"
        art.save(path)
        doc = json.loads(path.read_text())
        assert doc["version"] == 4 and len(doc["preprocessor"]["components"]) == 6
        got = ModelArtifact.load(path).preprocessor
        x = rng.normal(size=(5, 6))
        assert np.array_equal(got.center_mean, art.preprocessor.center_mean)
        assert np.array_equal(got.components, art.preprocessor.components)
        assert np.array_equal(got.apply(x), art.preprocessor.apply(x))

    def test_version_2_rejected(self, rng):
        # version 2 kept PCA as a nested document with a second mean
        doc = ModelArtifact.JSON.encode(self.fitted(rng))
        doc["version"] = 2
        pre = doc["preprocessor"]
        pre["pca"] = {"version": 1, "mean": [0.0] * 6, "components": pre.pop("components"),
                      "r": 3}
        with pytest.raises(ValueError, match="model file version 2 is not 4.*refit it with "
                                             "`hubridge fit`"):
            ModelArtifact.JSON.decode(doc)

    def test_version_3_rejected(self, rng):
        # version 3 did not record the training set, so predict could not check it
        doc = ModelArtifact.JSON.encode(self.fitted(rng))
        doc["version"] = 3
        del doc["training"]
        with pytest.raises(ValueError, match="model file version 3 is not 4, the first that "
                                             "records its training set; refit"):
            ModelArtifact.JSON.decode(doc)

    def test_training_mismatch_names_the_field(self, rng):
        x = rng.normal(size=(12, 3))
        art = self.fitted(rng)
        art = ModelArtifact(art.preprocessor, art.transform, art.label_names,
                            training_record(dataset_from_arrays(x, [0, 1, 2] * 4)))
        names = art.label_names  # checked first, so each set below carries the model's
        for ds, field in ((dataset_from_arrays(x[:, :2], [0, 1, 2] * 4, label_names=names),
                           "d_in"),
                          (dataset_from_arrays(x[1:], [1, 2, 0] * 3 + [1, 2], label_names=names),
                           "n"),
                          (dataset_from_arrays(x, [0, 1, 2] * 3 + [0, 2, 1], label_names=names),
                           "sha256")):
            with pytest.raises(ValueError, match=f"training field '{field}'"):
                art.check_training(ds)
        with pytest.raises(ValueError, match=r"training file label names \['0', '1', '2'\] "
                                             r"differ from the model's label_names"):
            art.check_training(dataset_from_arrays(x, [0, 1, 2] * 4))
        art.check_training(dataset_from_arrays(x, [0, 1, 2] * 4, label_names=names))

    def test_label_names_stored_as_tuple(self, rng):
        # a list of the right names used to fail check_training: "training file label names
        # ['a', 'b', 'c'] differ from the model's label_names ['a', 'b', 'c']"
        art = self.fitted(rng)
        art = ModelArtifact(art.preprocessor, art.transform, list(art.label_names), art.training)
        assert art.label_names == ("a", "b", "c")
        x = rng.normal(1.0, 4.0, size=(30, 6))
        with pytest.raises(ValueError, match="training field 'sha256'"):  # past the names
            art.check_training(dataset_from_arrays(x, np.tile([0, 1, 2], 10),
                                                   label_names=("a", "b", "c")))

    @pytest.mark.parametrize("names, want", [
        ("abc", "label_names must be a sequence, got 'abc'"),
        (("a", "a", "c"), "label_names[1] = 'a' repeats an earlier name"),
        (("a", 1, "c"), "label_names[1] must be a str, got 1"),
    ], ids=["str", "repeat", "int-entry"])
    def test_label_names_checked_as_dataset_does(self, rng, names, want):
        # the str "abc" used to be taken as three names
        art = self.fitted(rng)
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            ModelArtifact(art.preprocessor, art.transform, names, art.training)

    def test_transform_must_fit_preprocessed_dimension(self, rng):
        art = self.fitted(rng)
        with pytest.raises(ValueError, match="transform is 3-dimensional, "
                                             "preprocessing outputs 6"):
            ModelArtifact(self.fitted(rng, pca_dim=None).preprocessor, art.transform,
                          art.label_names, art.training)

    def test_missing_field_named(self, rng):
        doc = ModelArtifact.JSON.encode(self.fitted(rng))
        del doc["preprocessor"]["center_mean"]
        with pytest.raises(ValueError, match="lacks field 'center_mean'"):
            ModelArtifact.JSON.decode(doc)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [], "model file must be a JSON object, got list"),
        (lambda doc: {**doc, "preprocessor": []},
         "model file field 'preprocessor': expected dict, got []"),
        (lambda doc: {**doc, "transform": []}, "model file field 'transform': expected dict, got []"),
        (lambda doc: {**doc, "label_names": 5}, "model file field 'label_names': expected list, got 5"),
        *((lambda doc, v=v: {**doc, "preprocessor": {**doc["preprocessor"], "d_in": v}},
           f"preprocessor field 'd_in': expected int, got {v!r}") for v in (2.7, "6", True, None)),
        *((lambda doc, v=v: {**doc, "transform": {**doc["transform"], "lambda": v}},
           f"transform field 'lambda': expected a number, got {v!r}")
          for v in ([1], None, "0.3")),
        (lambda doc: {**doc,
                      "preprocessor": {**doc["preprocessor"], "zscore_sd": [1.0, 0.0] * 3}},
         "zscore_sd must be positive; column 1 is 0.0"),
        (lambda doc: {**doc, "training": "abc"}, "model file field 'training': expected dict"),
        (lambda doc: {**doc, "training": {**doc["training"], "n": 30.0}},
         "training field 'n': expected int, got 30.0"),
        (lambda doc: {**doc, "training": {**doc["training"], "sha256": 7}},
         "training field 'sha256': expected str, got 7"),
        (lambda doc: {**doc, "training": {"n": 30, "d_in": 6}},
         "model file lacks field 'sha256'"),
    ], ids=["document", "preprocessor", "transform", "label_names",
            "d_in-2.7", "d_in-str", "d_in-bool", "d_in-null",
            "lambda-list", "lambda-null", "lambda-str", "zscore_sd-zero",
            "training", "training-n", "training-sha256", "training-missing"])
    def test_malformed_document_named(self, rng, edit, message):
        # the first four and a non-number lambda used to raise AttributeError or
        # TypeError; d_in 2.7 loaded as 2, lambda "0.3" as 0.3 and a zero zscore_sd
        # divided by zero at apply
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelArtifact.JSON.decode(edit(ModelArtifact.JSON.encode(self.fitted(rng))))


class TestRunExperiment:
    def test_rows_and_aggregates(self, mixture_csv, tmp_path):
        cfg = small_config(mixture_csv, out_dir=str(tmp_path / "out"))
        rep = run_experiment(cfg)
        assert len(rep.rows) == 2 * 3  # splits x methods
        methods = {r.method for r in rep.rows}
        assert methods == {"euclidean", "move-labeled", "move-query"}
        for r in rep.rows:
            assert 0.0 <= r.accuracy <= 1.0
            assert r.training_seconds >= 0.0
            assert np.isfinite(r.n10_skewness)
        euclid = [r for r in rep.rows if r.method == "euclidean"]
        assert all(r.training_seconds == 0.0 for r in euclid)
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "report.txt").exists()

    def test_every_band_is_float32(self, mixture_csv, monkeypatch, rng):
        # the band orders by a 32-bit key: a lookup, a target selection and a
        # whole split (CV, fits, lookups) may form no other block
        seen = []
        real = knn.smallest_k_band
        monkeypatch.setattr(knn, "smallest_k_band",
                            lambda values, *args: seen.append(values.dtype) or real(values, *args))
        counts = []
        ds = dataset_from_arrays(rng.normal(size=(60, 5)), np.arange(60) % 3)
        model = knn.build_knn_model(ds.features, ds.labels, 3, knn.Dissimilarity())
        for run in (lambda: knn.neighbor_index_matrix(model, rng.normal(size=(8, 5))),
                    lambda: select_targets(ds, np.arange(60), 4),
                    lambda: run_experiment(small_config(mixture_csv, n_splits=1, seeds=(1,)))):
            run()
            counts.append(len(seen))
        assert 0 < counts[0] < counts[1] < counts[2]
        assert set(seen) == {np.dtype(np.float32)}

    @pytest.mark.parametrize("hubness_k", [5, 10])
    def test_table_heads_skewness_with_hubness_k(self, hubness_k):
        # hubness_k=5 used to print "N10 skew" above N_5 skewness
        row = MethodSplitResult("euclidean", 1, 0.5, 1.25, 0.0, 0.0, 1)
        report = ExperimentReport(ExperimentConfig("never-loaded.csv", n_splits=1, seeds=(1,),
                                                   hubness_k=hubness_k), (row,), ())
        header = report.render_table().splitlines()[0]
        assert header.split()[3:5] == [f"N{hubness_k}", "skew"]

    def test_single_euclidean_split(self, mixture_csv):
        cfg = small_config(mixture_csv, methods=("euclidean",), n_splits=1,
                           seeds=(7,), lambda_grid=(0.0,))
        rep = run_experiment(cfg)
        assert len(rep.rows) == 1
        assert rep.rows[0].training_seconds == 0.0

    def test_solver_gap_reported_for_move_labeled(self, mixture_csv):
        cfg = small_config(mixture_csv, methods=("move-labeled",))
        rep = run_experiment(cfg)
        assert all(r.solver_gap is not None and r.solver_gap >= 0 for r in rep.rows)

    def test_reproducible_modulo_timing(self, mixture_csv):
        cfg = small_config(mixture_csv)
        a = run_experiment(cfg).to_json_dict()
        b = run_experiment(cfg).to_json_dict()

        def strip(doc):
            for row in doc["rows"]:
                for f in TIMING_FIELDS:
                    row.pop(f, None)
            for agg in doc["aggregates"]:
                for f in TIMING_FIELDS:
                    agg.pop(f, None)
            return doc

        assert json.dumps(strip(a), sort_keys=True) == json.dumps(strip(b), sort_keys=True)

    def test_work_counts(self, mixture_csv, monkeypatch):
        # one target selection per CV fold and split, shared by the fitted
        # methods, plus one per fitted method and split for the final fit;
        # with one target per object, paper move-labeled and move-query read
        # one eigendecomposition per fold
        calls = {"select": 0, "eigh": 0, "cv_eigh": 0, "lookup": 0, "cv_lookup": 0}
        select, eigh = hubridge.modelselect.select_targets, np.linalg.eigh
        grid_search = hubridge.experiment.grid_search
        lookup = hubridge.modelselect.fold_neighbors

        def counting_select(*args):
            calls["select"] += 1
            return select(*args)

        def counting_eigh(*args):
            calls["eigh"] += 1
            return eigh(*args)

        def counting_lookup(*args):
            calls["lookup"] += 1
            return lookup(*args)

        def counting_search(*args):
            before = calls["eigh"], calls["lookup"]
            out = grid_search(*args)
            calls["cv_eigh"] += calls["eigh"] - before[0]
            calls["cv_lookup"] += calls["lookup"] - before[1]
            return out

        for module in (hubridge.modelselect, hubridge.experiment):
            monkeypatch.setattr(module, "select_targets", counting_select)
            monkeypatch.setattr(module, "fold_neighbors", counting_lookup)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(hubridge.experiment, "grid_search", counting_search)
        splits, folds, fitted, lambdas = 2, 3, 2, 3
        rep = run_experiment(small_config(mixture_csv, cv_folds=folds))
        assert len(rep.rows) == 3 * splits
        assert calls["select"] == folds * splits + fitted * splits
        assert calls["cv_eigh"] == folds * splits
        # the final fits, plus one for move-labeled's solver gap
        assert calls["eigh"] - calls["cv_eigh"] == fitted * splits + splits
        # every lookup takes the one path: Euclidean's one per fold, each fitted
        # method's one per fold and lambda, then each method's final rows
        assert calls["cv_lookup"] == folds * splits * (1 + fitted * lambdas)
        assert calls["lookup"] - calls["cv_lookup"] == 3 * splits

    def test_hubness_k_above_training_rows_named_before_cv(self, monkeypatch):
        # it used to fail after the split's whole CV, naming k
        def refuse(*args, **kwargs):
            raise AssertionError("grid search ran before hubness_k was checked")

        monkeypatch.setattr(hubridge.experiment, "grid_search", refuse)
        cfg = ExperimentConfig(dataset_path=str(bundled_dataset_path("iris")), n_splits=1,
                               seeds=(1,), hubness_k=200)
        with pytest.raises(ValueError, match=r"^hubness_k must be in \[1, 105\], got 200$"):
            run_experiment(cfg)

    def test_failure_carries_context(self, tmp_path):
        # a class with 2 members lands a singleton in some CV fold
        x, y = gaussian_mixture(21, 4, 3, sep=2.0, seed=0)
        y[:2] = 2  # shrink nothing; keep valid labels
        p = tmp_path / "tiny.csv"
        write_dense_csv(p, x, y)
        cfg = ExperimentConfig(dataset_path=str(p), n_splits=1, seeds=(1,),
                               lambda_grid=(0.1,), k_grid=(1,), cv_folds=6)
        with pytest.raises(RuntimeError, match="split seed 1"):
            run_experiment(cfg)

    def test_config_json_round_trip(self, mixture_csv, tmp_path):
        cfg = small_config(mixture_csv, zscore=True, pca_dim=5)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(ExperimentConfig.JSON.encode(cfg)))
        loaded = ExperimentConfig.load(path)
        assert loaded == cfg

    def test_numpy_scalars_and_paths_written_as_json(self, mixture_csv, tmp_path):
        # numpy counts, seeds, fraction and lambdas and Path fields used to run the whole
        # protocol and then fail in report.save: "Object of type int64 is not JSON serializable"
        def plain(value):  # the Python value of a numpy scalar or a Path
            return (str(value) if isinstance(value, Path) else tuple(map(plain, value))
                    if isinstance(value, tuple) else value.item())

        out = tmp_path / "out"
        given = dict(dataset_path=mixture_csv, out_dir=out, n_splits=np.int64(2),
                     seeds=(np.int64(1), np.int64(2)), k_grid=(np.int64(1), np.int32(3)),
                     lambda_grid=tuple(np.float32(v) for v in (0.01, 0.1, 1.0)),
                     cv_folds=np.int64(3), k_targets=np.int64(1), hubness_k=np.int64(5),
                     pca_dim=np.int64(5), train_fraction=np.float32(0.7), center=np.bool_(True))
        written = []
        for cfg in (ExperimentConfig(**given),
                    ExperimentConfig(**{key: plain(value) for key, value in given.items()})):
            run_experiment(cfg)
            doc = json.loads((out / "report.json").read_text())
            for item in doc["rows"] + doc["aggregates"]:
                for key in TIMING_FIELDS:
                    item.pop(key, None)
            written.append(doc)
        assert written[0] == written[1]
        assert written[0]["config"]["train_fraction"] == float(np.float32(0.7))
        assert written[0]["config"]["dataset"] == str(mixture_csv)

    def test_partial_report_kept_when_a_method_fails(self, tmp_path):
        # an all-zero column makes X X^T exactly singular: move-labeled at
        # lambda 0 fails on the first split, after Euclidean has finished
        x, y = gaussian_mixture(60, 4, 2, sep=2.0, seed=1)
        x[:, 2] = 0.0
        p = tmp_path / "zero_col.csv"
        write_dense_csv(p, x, y)
        out = tmp_path / "out"
        cfg = ExperimentConfig(dataset_path=str(p), center=False,
                               methods=("euclidean", "move-labeled"), n_splits=2,
                               seeds=(1, 2), lambda_grid=(0.0,), k_grid=(1,),
                               cv_folds=3, out_dir=str(out))
        with pytest.raises(RuntimeError, match="'move-labeled' failed on split seed 1"):
            run_experiment(cfg)
        doc = json.loads((out / "partial" / "report.json").read_text())
        assert [(r["method"], r["split_seed"]) for r in doc["rows"]] == [("euclidean", 1)]
        assert [a["method"] for a in doc["aggregates"]] == ["euclidean"]
        assert (out / "partial" / "report.txt").read_text().startswith("method")
        assert not (out / "report.json").exists()

    def test_seed_count_must_match_splits(self, mixture_csv):
        with pytest.raises(ValueError, match="one seed per split"):
            small_config(mixture_csv, n_splits=3)

    def test_unknown_method_rejected(self, mixture_csv):
        with pytest.raises(ValueError, match=r"methods\[0\] must be one of .*, got 'lmnn'"):
            small_config(mixture_csv, methods=("lmnn",))


class TestConfigFile:
    """Every config-file defect is a ValueError naming the key, raised at load."""

    @pytest.fixture
    def doc(self, mixture_csv):
        return {"version": 1, "dataset": str(mixture_csv), "seeds": [1, 2],
                "n_splits": 2, "lambda_grid": [0.1], "k_grid": [1, 3], "cv_folds": 3}

    def test_unknown_key(self, doc):
        doc["lamda_grid"] = [1.0]
        with pytest.raises(ValueError, match="unknown config key 'lamda_grid'"):
            ExperimentConfig.JSON.decode(doc)

    @pytest.mark.parametrize("key", ["center", "zscore"])
    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_flags_must_be_booleans(self, doc, key, value):
        doc[key] = value
        with pytest.raises(ValueError, match=f"config key '{key}': expected bool"):
            ExperimentConfig.JSON.decode(doc)

    @pytest.mark.parametrize("key", ["dataset", "seeds"])
    def test_missing_required_key(self, doc, key):
        del doc[key]
        with pytest.raises(ValueError, match=f"lacks required key '{key}'"):
            ExperimentConfig.JSON.decode(doc)

    @pytest.mark.parametrize("doc", [[1, 2], "config", None])
    def test_document_not_an_object(self, doc):
        with pytest.raises(ValueError, match="must be a JSON object"):
            ExperimentConfig.JSON.decode(doc)

    @pytest.mark.parametrize("key", ["lambda_grid", "k_grid", "seeds", "methods"])
    @pytest.mark.parametrize("value", [5, "0.1"])
    def test_non_list_grid(self, doc, key, value):
        doc[key] = value
        with pytest.raises(ValueError, match=f"config key '{key}': expected list"):
            ExperimentConfig.JSON.decode(doc)

    @pytest.mark.parametrize("key, value", [("dataset", None), ("format", 1),
                                            ("pca_dim", "3"), ("solver", ["exact"]),
                                            ("out_dir", 5), ("cv_folds", 2.9),
                                            ("hubness_k", "10"), ("n_splits", True),
                                            ("train_fraction", True), ("k_targets", False),
                                            ("pca_dim", True), ("seeds", [1.5, 2]),
                                            ("k_grid", [True]), ("lambda_grid", ["0.1"])])
    def test_wrongly_typed_value(self, doc, key, value):
        doc[key] = value
        with pytest.raises(ValueError, match=f"config key '{key}': expected"):
            ExperimentConfig.JSON.decode(doc)

    @pytest.mark.parametrize("key", ["lambda_grid", "k_grid"])
    def test_empty_grid_rejected_at_load(self, doc, key):
        doc[key] = []
        with pytest.raises(ValueError, match=f"{key} must be non-empty"):
            ExperimentConfig.JSON.decode(doc)

    @pytest.mark.parametrize("value", [1, 0])
    def test_cv_folds_below_two_named(self, doc, value):
        doc["cv_folds"] = value
        with pytest.raises(ValueError, match="cv_folds must be >= 2"):
            ExperimentConfig.JSON.decode(doc)

    @pytest.mark.parametrize("key, value, message", [
        ("hubness_k", 0, "hubness_k must be >= 1"),
        ("train_fraction", 0.0, r"train_fraction must be in \(0, 1\), got 0.0"),
        ("train_fraction", 1, r"train_fraction must be in \(0, 1\), got 1.0"),
        ("train_fraction", 1.5, r"train_fraction must be in \(0, 1\), got 1.5"),
    ], ids=["hubness_k-0", "train_fraction-0.0", "train_fraction-1", "train_fraction-1.5"])
    def test_out_of_range_value_rejected_at_load(self, doc, key, value, message):
        # hubness_k = 0 used to fail only after the whole cross-validation
        doc[key] = value
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.JSON.decode(doc)

    @pytest.mark.parametrize("value", [0, -1])
    def test_pca_dim_below_one_named(self, doc, value):
        # used to load, then fail at the first split without naming the key
        doc["pca_dim"] = value
        with pytest.raises(ValueError, match=f"pca_dim must be >= 1, got {value}"):
            ExperimentConfig.JSON.decode(doc)

    @pytest.mark.parametrize("value", [2.5, 3.0, True], ids=["2.5", "3.0", "True"])
    def test_non_integer_pca_dim_named(self, value):
        # else the run would fail in the SVD slice at the first split, naming no key
        with pytest.raises(ValueError, match=f"^pca_dim must be an integer, got {value}$"):
            ExperimentConfig("x.csv", pca_dim=value, seeds=(1, 2, 3, 4))

    def test_numpy_integer_pca_dim_accepted(self):
        cfg = ExperimentConfig("x.csv", pca_dim=np.int64(3), seeds=(1, 2, 3, 4))
        assert json.loads(json.dumps(ExperimentConfig.JSON.encode(cfg)))["pca_dim"] == 3

    @pytest.mark.parametrize("grid", [[], [-1.0], [float("nan")]])
    def test_lambda_grid_checked_for_euclidean_alone(self, doc, grid):
        doc["methods"] = ["euclidean"]
        doc["lambda_grid"] = grid
        with pytest.raises(ValueError, match="lambda_grid"):
            ExperimentConfig.JSON.decode(doc)

    def test_repeated_method_named(self, doc):
        # each copy's aggregate row would average the rows of both
        doc["methods"] = ["euclidean", "euclidean"]
        with pytest.raises(ValueError, match=r"methods\[1\] = 'euclidean' repeats"):
            ExperimentConfig.JSON.decode(doc)

    def test_n_splits_follows_seeds(self, doc):
        del doc["n_splits"]
        cfg = ExperimentConfig.JSON.decode(doc)
        assert cfg.n_splits == 2 and cfg.seeds == (1, 2)


class TestCvConfig:
    """One CvConfig serves every method; grid_search gives each its lambda axis."""

    @staticmethod
    def cells(method, config):
        ds = dataset_from_arrays(*gaussian_mixture(60, 4, 2, sep=2.0, seed=0))
        res = grid_search(ds, np.arange(ds.n), config, [method]).result(0)
        return [(c.lam, c.k) for c in res.table]

    def test_euclidean_searches_k_at_lambda_zero(self):
        cfg = CvConfig((0.1, 1.0), (1, 3), 4, 7, 2, "exact")
        assert self.cells("euclidean", cfg) == [(0.0, 1), (0.0, 3)]

    @pytest.mark.parametrize("method", ["move-labeled", "move-query"])
    def test_fitted_methods_search_the_lambda_grid(self, method):
        cfg = CvConfig((0.1, 1.0), (1, 3), 4, 7)
        assert self.cells(method, cfg) == [(0.1, 1), (0.1, 3), (1.0, 1), (1.0, 3)]
