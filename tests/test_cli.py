import json
import re

import numpy as np
import pytest

from hubridge.cli import main
from hubridge.datamodel import (Preprocessor, bundled_dataset_path, dataset_from_arrays,
                                load_dataset, split, subset)
from hubridge.experiment import ModelArtifact, fit_timed, preprocess
from hubridge.knn import classify_batch, knn_from_transform

from _helpers import exact_skewness, gaussian_mixture, oracle_knn_indices, write_dense_csv


@pytest.fixture
def train_and_queries(tmp_path):
    x, y = gaussian_mixture(120, 6, 3, sep=2.0, seed=3)
    train_p = tmp_path / "train.csv"
    query_p = tmp_path / "queries.csv"
    write_dense_csv(train_p, x[:90], y[:90])
    write_dense_csv(query_p, x[90:], y[90:])
    return train_p, query_p


@pytest.fixture
def scaled_train_and_queries(tmp_path):
    # columns on very different scales, so z-scoring changes the neighbors
    x, y = gaussian_mixture(120, 6, 3, sep=2.0, seed=3)
    x = x * np.array([1.0, 30.0, 0.03, 1.0, 300.0, 0.3])
    train_p = tmp_path / "train.csv"
    query_p = tmp_path / "queries.csv"
    write_dense_csv(train_p, x[:90], y[:90])
    write_dense_csv(query_p, x[90:], y[90:])
    return train_p, query_p


def in_process_predictions(train_p, query_p, k, **prep_flags):
    """fit + predict without the CLI: preprocessing fitted on the training file only."""
    train = load_dataset(train_p, "dense-csv")
    queries = load_dataset(query_p, "dense-csv")
    tm, _, _ = fit_timed(preprocess(train, None, **prep_flags), "move-labeled",
                         0.1, 1, "paper")
    both = dataset_from_arrays(
        np.vstack([train.features, queries.features]),
        np.concatenate([train.labels, np.zeros(queries.n, dtype=np.int64)]))
    pre = preprocess(both, np.arange(train.n), **prep_flags)
    km = knn_from_transform(tm, pre.features[: train.n], train.labels, k)
    return [train.label_names[p] for p in classify_batch(km, pre.features[train.n:])]


def written_ids(ds):
    """The integer ids ``write_dense_csv`` wrote as label tokens ``c<id>``."""
    return np.array([int(ds.label_names[c][1:]) for c in ds.labels])


def predicted_labels(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "query_index,predicted_label,true_label"
    return [line.split(",")[1] for line in lines[1:]]


class TestFitPredict:
    def test_round_trip_matches_in_process(self, train_and_queries, tmp_path, capsys):
        train_p, query_p = train_and_queries
        model_p = tmp_path / "model.json"
        rc = main(["fit", "--dataset", str(train_p), "--method", "move-labeled",
                   "--lambda", "0.1", "--out", str(model_p)])
        assert rc == 0
        fit_summary = json.loads(capsys.readouterr().out)
        assert fit_summary["direction"] == "move-labeled"
        assert "solver_gap" in fit_summary

        out_p = tmp_path / "pred.csv"
        rc = main(["predict", "--dataset", str(train_p), "--queries", str(query_p),
                   "--model", str(model_p), "--k", "3", "--out", str(out_p)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)

        # in-process pipeline with the same preprocessing (center only) and
        # the transform read back from the model file
        train = load_dataset(train_p, "dense-csv")
        queries = load_dataset(query_p, "dense-csv")
        both = dataset_from_arrays(
            np.vstack([train.features, queries.features]),
            np.concatenate([train.labels, np.zeros(queries.n, dtype=np.int64)]))
        pre = preprocess(both, np.arange(train.n), center=True)
        tm = ModelArtifact.load(model_p).transform
        km = knn_from_transform(tm, pre.features[: train.n], train.labels, 3)
        preds = classify_batch(km, pre.features[train.n:])

        assert predicted_labels(out_p) == [train.label_names[p] for p in preds]

        truth_ids = np.array([
            {t: i for i, t in enumerate(train.label_names)}[queries.label_names[y]]
            for y in queries.labels])
        assert summary["accuracy"] == pytest.approx(float(np.mean(preds == truth_ids)))
        assert summary["dissimilarity"] == "move-labeled"

    def test_fit_writes_schema(self, train_and_queries, tmp_path, capsys):
        train_p, _ = train_and_queries
        model_p = tmp_path / "m.json"
        assert main(["fit", "--dataset", str(train_p), "--method", "move-query",
                     "--lambda", "0.5", "--out", str(model_p)]) == 0
        doc = json.loads(model_p.read_text())
        assert set(doc) == {"version", "label_names", "preprocessor", "transform", "training"}
        assert doc["version"] == 4
        assert {k: doc["training"][k] for k in ("n", "d_in")} == {"n": 90, "d_in": 6}
        assert doc["label_names"] == list(load_dataset(train_p, "dense-csv").label_names)
        assert doc["preprocessor"]["d_in"] == 6
        assert len(doc["preprocessor"]["center_mean"]) == 6
        assert doc["preprocessor"]["zscore_mean"] is None
        assert doc["preprocessor"]["components"] is None
        assert doc["transform"]["direction"] == "move-query"
        assert doc["transform"]["d"] == 6 and len(doc["transform"]["W"]) == 6

    @pytest.mark.parametrize("flags, prep_flags", [
        ([], {}),
        (["--zscore"], {"zscore": True}),
        (["--pca-dim", "3"], {"pca_dim": 3}),
    ])
    def test_predict_takes_preprocessing_from_model(self, scaled_train_and_queries,
                                                    tmp_path, capsys, flags, prep_flags):
        train_p, query_p = scaled_train_and_queries
        model_p = tmp_path / "model.json"
        assert main(["fit", "--dataset", str(train_p), "--lambda", "0.1",
                     "--out", str(model_p), *flags]) == 0
        out_p = tmp_path / "pred.csv"
        # no preprocessing flags: the model file carries them
        rc = main(["predict", "--dataset", str(train_p), "--queries", str(query_p),
                   "--model", str(model_p), "--k", "3", "--out", str(out_p)])
        assert rc == 0
        assert predicted_labels(out_p) == in_process_predictions(
            train_p, query_p, 3, **prep_flags)


class TestPredictRejects:
    """A model/data mismatch exits 1 with the offending field named, never predicts."""

    @pytest.fixture
    def model_p(self, train_and_queries, tmp_path, capsys):
        train_p, _ = train_and_queries
        p = tmp_path / "model.json"
        assert main(["fit", "--dataset", str(train_p), "--out", str(p)]) == 0
        capsys.readouterr()
        return p

    def predict(self, train_p, query_p, model_p, capsys):
        rc = main(["predict", "--dataset", str(train_p), "--queries", str(query_p),
                   "--model", str(model_p)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        return captured.err

    def test_training_dimension(self, train_and_queries, model_p, tmp_path, capsys):
        train_p, query_p = train_and_queries
        train = load_dataset(train_p, "dense-csv")
        narrow_p = tmp_path / "narrow.csv"
        write_dense_csv(narrow_p, train.features[:, :5], written_ids(train))
        err = self.predict(narrow_p, query_p, model_p, capsys)
        assert "training features have dimension 5" in err and "d_in is 6" in err

    def test_query_dimension(self, train_and_queries, model_p, tmp_path, capsys):
        train_p, query_p = train_and_queries
        queries = load_dataset(query_p, "dense-csv")
        wide_p = tmp_path / "wide.csv"
        write_dense_csv(wide_p, np.hstack([queries.features, queries.features[:, :1]]),
                        written_ids(queries))
        err = self.predict(train_p, wide_p, model_p, capsys)
        assert "query features have dimension 7" in err and "d_in is 6" in err

    def test_training_label_names(self, train_and_queries, model_p, tmp_path, capsys):
        train_p, query_p = train_and_queries
        train = load_dataset(train_p, "dense-csv")
        relabeled_p = tmp_path / "relabeled.csv"
        write_dense_csv(relabeled_p, train.features, written_ids(train) + 3)
        err = self.predict(relabeled_p, query_p, model_p, capsys)
        assert "label_names" in err and "'c3'" in err

    def test_training_row_subset(self, train_and_queries, model_p, tmp_path, capsys):
        # every other training row used to predict, exit 0, with no warning
        train_p, query_p = train_and_queries
        train = load_dataset(train_p, "dense-csv")
        half_p = tmp_path / "half.csv"
        write_dense_csv(half_p, train.features[::2], written_ids(train)[::2])
        err = self.predict(half_p, query_p, model_p, capsys)
        assert "training file has n 45" in err and "training field 'n' is 90" in err

    def test_training_value_changed(self, train_and_queries, model_p, tmp_path, capsys):
        train_p, query_p = train_and_queries
        train = load_dataset(train_p, "dense-csv")
        features = train.features.copy()
        features[17, 2] = np.nextafter(features[17, 2], np.inf)
        changed_p = tmp_path / "changed.csv"
        write_dense_csv(changed_p, features, written_ids(train))
        err = self.predict(changed_p, query_p, model_p, capsys)
        assert "training file has sha256" in err and "training field 'sha256'" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda x, y: (x, y + 3), "label_names"),
        (lambda x, y: (x[:, :5], y), "training features have dimension 5"),
        (lambda x, y: (x[::2], y[::2]), "training file has n 45"),
    ], ids=["label-names", "dimension", "rows"])
    def test_training_checked_before_queries_and_preprocessing(
            self, train_and_queries, model_p, tmp_path, monkeypatch, capsys, edit, message):
        train_p, query_p = train_and_queries
        train = load_dataset(train_p, "dense-csv")
        other_p = tmp_path / "other.csv"
        write_dense_csv(other_p, *edit(train.features, written_ids(train)))
        self.load_training_only(monkeypatch, other_p)
        assert message in self.predict(other_p, query_p, model_p, capsys)

    def test_k_above_training_size_checked_before_queries(self, train_and_queries, model_p,
                                                           monkeypatch, capsys):
        # used to fail in the k-NN model, after both files loaded, as "k must be in
        # [1, 90], got 91"
        train_p, query_p = train_and_queries
        self.load_training_only(monkeypatch, train_p)
        rc = main(["predict", "--dataset", str(train_p), "--queries", str(query_p),
                   "--model", str(model_p), "--k", "91"])
        assert rc == 1
        assert capsys.readouterr().err == ("error: --k must be at most the 90 training rows, "
                                           "got 91\n")

    @staticmethod
    def load_training_only(monkeypatch, train_p):
        """Make ``predict`` fail the test if it loads another file or preprocesses a row."""
        import hubridge.cli

        real = hubridge.cli.load_dataset

        def training_only(path, fmt):
            assert path == str(train_p), "query file loaded before the training file was checked"
            return real(path, fmt)

        def refuse(*args):
            raise AssertionError("preprocessed before the training file was checked")

        monkeypatch.setattr(hubridge.cli, "load_dataset", training_only)
        monkeypatch.setattr(Preprocessor, "apply", refuse)

    def test_version_1_model(self, train_and_queries, model_p, tmp_path, capsys):
        train_p, query_p = train_and_queries
        v1_p = tmp_path / "v1.json"
        v1_p.write_text(json.dumps(json.loads(model_p.read_text())["transform"]))
        err = self.predict(train_p, query_p, v1_p, capsys)
        assert "version 1" in err and "refit" in err

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: [], "JSON object"),
        (lambda doc: {**doc, "preprocessor": []}, "'preprocessor'"),
        (lambda doc: {**doc, "transform": []}, "'transform'"),
        (lambda doc: {**doc, "label_names": 5}, "'label_names'"),
        (lambda doc: {**doc, "preprocessor": {**doc["preprocessor"], "d_in": 2.7}}, "'d_in'"),
    ], ids=["document", "preprocessor", "transform", "label_names", "d_in"])
    def test_malformed_model_file(self, train_and_queries, model_p, tmp_path, capsys,
                                  edit, field):
        # each used to end in a traceback, or (d_in) to load silently as 2;
        # test_experiment.py checks each message
        train_p, query_p = train_and_queries
        bad_p = tmp_path / "bad.json"
        bad_p.write_text(json.dumps(edit(json.loads(model_p.read_text()))))
        err = self.predict(train_p, query_p, bad_p, capsys)
        assert err.startswith("error: model file") or err.startswith("error: preprocessor")
        assert field in err


class TestErrors:
    def test_missing_file(self, capsys):
        rc = main(["fit", "--dataset", "/nonexistent.csv", "--out", "/tmp/x.json"])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_directory_as_dataset(self, tmp_path, capsys):
        rc = main(["fit", "--dataset", str(tmp_path), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: Is a directory")

    @pytest.mark.parametrize("command, flag", [
        ("fit", "--out"), ("hubness", "--out"), ("hubness", "--json-out"), ("cv", "--out"),
        ("predict", "--out"), ("centrality", "--out")])
    def test_missing_output_directory_checked_first(self, monkeypatch, tmp_path, capsys,
                                                    command, flag):
        # fit and cv used to load and fit, and hubness to print its CSV, before
        # exiting 1 with "file not found: <path>" and the usage line
        import hubridge.cli

        def refuse(*args):
            raise AssertionError(f"work began before {flag} was checked")

        for name in ("load_dataset", "simulate_delta"):
            monkeypatch.setattr(hubridge.cli, name, refuse)
        out = tmp_path / "missing" / "out.json"
        iris = ["--dataset", str(bundled_dataset_path("iris"))]
        given = {"centrality": [],
                 "predict": [*iris, "--model", str(tmp_path / "m.json"), "--queries", iris[1]]}
        assert main([command, *given.get(command, iris), flag, str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: output {flag} {out}: directory {out.parent} "
                                "does not exist\n")

    def test_unknown_flag_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--bogus"])
        assert exc.value.code != 0
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["fit", "--lambda", "nan", "--out", "m.json"], "--lambda"),
        (["fit", "--lambda", "-1", "--out", "m.json"], "--lambda"),
        (["fit", "--lambda", "inf", "--out", "m.json"], "--lambda"),
        (["hubness", "--lambda=-inf"], "--lambda"),
        (["fit", "--k-targets", "0", "--out", "m.json"], "--k-targets"),
        (["hubness", "--lambda", "nan"], "--lambda"),
        (["hubness", "--k", "0"], "--k"),
        (["hubness", "--k-targets", "0"], "--k-targets"),
        (["cv", "--k-targets", "0"], "--k-targets"),
        (["cv", "--folds", "1"], "--folds"),
        (["predict", "--model", "m.json", "--queries", "q.csv", "--k", "0"], "--k"),
        (["centrality", "--n", "0"], "--n"),
        (["bench", "--config", "c.json", "--splits", "0"], "--splits"),
        (["fit", "--pca-dim", "0", "--out", "m.json"], "--pca-dim"),
        (["hubness", "--pca-dim", "0"], "--pca-dim"),
        (["hubness", "--seed", "-1"], "--seed"),
        (["cv", "--seed", "-1"], "--seed"),
        (["centrality", "--seed", "-1"], "--seed"),
        (["bench", "--config", "c.json", "--seed", "-1"], "--seed"),
    ], ids=["fit-nan-lambda", "fit-negative-lambda", "fit-inf-lambda", "hubness-minus-inf-lambda",
            "fit-k-targets-0", "hubness-nan-lambda",
            "hubness-k-0", "hubness-k-targets-0", "cv-k-targets-0", "cv-folds-1",
            "predict-k-0", "centrality-n-0", "bench-splits-0", "fit-pca-dim-0",
            "hubness-pca-dim-0", "hubness-seed-minus-1", "cv-seed-minus-1",
            "centrality-seed-minus-1", "bench-seed-minus-1"])
    def test_lower_bound_checked_before_loading(self, monkeypatch, capsys, argv, flag):
        # NaN passed `lam < 0`; fit --lambda -1 and hubness --k 0 failed only after
        # loading, as did fit/hubness --k-targets 0 and predict --k 0, and cv, centrality
        # and bench failed in a constructor; none named the flag ("n_folds must be >= 2")
        import hubridge.cli
        import hubridge.experiment

        def refuse(*args):
            raise AssertionError(f"work began before {flag} was checked")

        for module, name in ((hubridge.cli, "load_dataset"),
                             (hubridge.experiment, "load_dataset"),
                             (hubridge.cli, "simulate_delta")):
            monkeypatch.setattr(module, name, refuse)
        dataset = [] if argv[0] in ("centrality", "bench") else [
            "--dataset", str(bundled_dataset_path("iris"))]
        with pytest.raises(SystemExit) as exc:
            main([argv[0], *dataset, *argv[1:]])
        assert exc.value.code == 2
        rule = "finite and non-negative" if flag == "--lambda" else ">= "
        assert f"argument {flag}: must be {rule}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["hubness", "bench"])
    @pytest.mark.parametrize("fraction", ["1.5", "1", "0", "-0.1", "nan"])
    def test_train_fraction_checked_before_loading(self, monkeypatch, capsys, command,
                                                   fraction):
        import hubridge.cli
        import hubridge.experiment

        def refuse(*args):
            raise AssertionError("work began before --train-fraction was checked")

        for module, name in ((hubridge.cli, "load_dataset"),
                             (hubridge.experiment, "load_dataset"),
                             (hubridge.cli.ExperimentConfig, "load")):
            monkeypatch.setattr(module, name, refuse)
        source = (["--config", "c.json"] if command == "bench"
                  else ["--dataset", str(bundled_dataset_path("iris"))])
        with pytest.raises(SystemExit) as exc:
            main([command, *source, "--train-fraction", fraction])
        assert exc.value.code == 2
        assert "argument --train-fraction: must be in (0, 1), got " in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["centrality", "--d", ""], "--d"), (["centrality", "--s", ","], "--s"),
        (["centrality", "--gamma", ""], "--gamma"), (["cv", "--k-grid", ""], "--k-grid"),
        (["cv", "--lambda-grid", ","], "--lambda-grid"),
    ], ids=["centrality-d", "centrality-s", "centrality-gamma", "cv-k-grid", "cv-lambda-grid"])
    def test_empty_list_named(self, monkeypatch, capsys, argv, flag):
        # centrality crashed with an IndexError traceback in _csv, and cv exited 1 with
        # "k_grid must be non-empty", which named no flag
        import hubridge.cli

        def refuse(*args):
            raise AssertionError(f"work began before {flag} was checked")

        for name in ("load_dataset", "simulate_delta"):
            monkeypatch.setattr(hubridge.cli, name, refuse)
        dataset = [] if argv[0] == "centrality" else [
            "--dataset", str(bundled_dataset_path("iris"))]
        with pytest.raises(SystemExit) as exc:
            main([argv[0], *dataset, *argv[1:]])
        assert exc.value.code == 2
        assert (f"argument {flag}: must be a non-empty comma list, got '{argv[2]}'"
                in capsys.readouterr().err)

    def test_nan_lambda_grid_checked_before_loading(self, monkeypatch, capsys):
        import hubridge.cli

        def refuse(*args):
            raise AssertionError("dataset loaded before --lambda-grid was checked")

        monkeypatch.setattr(hubridge.cli, "load_dataset", refuse)
        rc = main(["cv", "--dataset", str(bundled_dataset_path("iris")),
                   "--lambda-grid", "0.1,nan"])
        assert rc == 1
        assert "lambda_grid[1] must be finite and non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config", [
        (["fit", "--lambda", "nan", "--out", "m.json"], None),
        (["fit", "--solver", "bogus", "--out", "m.json"], None),
        (["predict", "--model", "m.json", "--queries", "q.csv", "--k", "1.5"], None),
        (["hubness", "--train-fraction", "inf"], None),
        (["hubness", "--methods", "euclidean,None"], None),
        (["cv", "--lambda-grid", "0.1,-inf"], None),
        (["cv", "--direction", "bogus"], None),
        (["centrality", "--s", "nan"], None),
        (["centrality", "--gamma", "inf"], None),
        (["bench"], {"train_fraction": "0.5"}),
        (["bench"], {"lambda_grid": [True]}),
        (["bench"], {"solver": None}),
        (["bench"], {"methods": ["euclidean", "nan"]}),
        (["bench"], {"format": "csv"}),
    ], ids=["fit-lambda", "fit-solver", "predict-k", "hubness-fraction", "hubness-methods",
            "cv-lambda-grid", "cv-direction", "centrality-s", "centrality-gamma",
            "bench-fraction", "bench-lambda-grid", "bench-solver", "bench-methods",
            "bench-format"])
    def test_hostile_value_is_one_error_line(self, tmp_path, capsys, argv, config):
        iris = str(bundled_dataset_path("iris"))
        if config is None:
            source = [] if argv[0] == "centrality" else ["--dataset", iris]
        else:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"dataset": iris, "seeds": [1], **config}))
            source = ["--config", str(path)]
        try:
            rc = main([argv[0], *source, *argv[1:]])
        except SystemExit as exc:
            rc = exc.code
        assert rc in (1, 2)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert sum("error:" in line for line in captured.err.splitlines()) == 1

    def test_domain_error_is_diagnosed(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,a\n1,2,3,a\n")
        rc = main(["fit", "--dataset", str(p), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestHubnessCommand:
    def test_csv_report(self, train_and_queries, tmp_path, capsys):
        train_p, _ = train_and_queries
        out_p = tmp_path / "hub.csv"
        json_p = tmp_path / "hub.json"
        rc = main(["hubness", "--dataset", str(train_p), "--seed", "0",
                   "--out", str(out_p), "--json-out", str(json_p)])
        assert rc == 0
        text = out_p.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "method,k,skewness,max_count,mean_count"
        assert len(lines) == 4  # header + three methods
        doc = json.loads(json_p.read_text())
        assert {r["method"] for r in doc} == {"euclidean", "move-labeled", "move-query"}

    def test_row_fields_and_csv(self, train_and_queries, tmp_path, capsys):
        train_p, _ = train_and_queries
        json_p = tmp_path / "hub.json"
        rc = main(["hubness", "--dataset", str(train_p), "--seed", "2", "--k", "5",
                   "--json-out", str(json_p)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "method,k,skewness,max_count,mean_count"
        # the oracle: per-query full sorts on the preprocessed split, exact moments
        ds = load_dataset(train_p, "dense-csv")
        sp = split(ds, 0.7, 2)
        pre = preprocess(ds, sp.train_indices)
        train = subset(pre, sp.train_indices)
        w = {m: fit_timed(train, m, 0.1, 1, "paper")[0].w for m in ("move-labeled", "move-query")}
        kinds = {"euclidean": "euclidean", "move-labeled": "transformed-labeled",
                 "move-query": "transformed-query"}
        doc = json.loads(json_p.read_text())
        assert [r["method"] for r in doc] == list(kinds)
        for line, row in zip(lines[1:], doc):
            m = row["method"]
            idx = [oracle_knn_indices(q, train.features, 5, kinds[m], w.get(m))
                   for q in pre.features[sp.test_indices]]
            counts = np.bincount(np.ravel(idx), minlength=train.n)
            want = {"method": m, "k": 5, "skewness": exact_skewness(counts),
                    "max_count": int(counts.max()), "mean_count": float(counts.mean())}
            assert row == pytest.approx(want, rel=1e-12)
            assert line == ",".join(str(row[key]) for key in want)

    def test_solver_gap_not_computed(self, train_and_queries, monkeypatch, capsys):
        # the hubness report has no solver_gap column, so no extra fit for it
        import hubridge.experiment

        def refuse(*args):
            raise AssertionError("solver gap computed for hubness")

        monkeypatch.setattr(hubridge.experiment, "solver_disagreement", refuse)
        train_p, _ = train_and_queries
        assert main(["hubness", "--dataset", str(train_p), "--seed", "0"]) == 0

    def test_rows_follow_methods_order(self, train_and_queries, capsys):
        train_p, _ = train_and_queries
        order = ["move-query", "euclidean", "move-labeled"]
        rc = main(["hubness", "--dataset", str(train_p), "--seed", "0",
                   "--methods", ",".join(order)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split(",")[0] for line in lines[1:]] == order

    @pytest.mark.parametrize("methods,message", [
        ("euclidean,bogus", r"--methods\[1\] must be one of \(.*\), got 'bogus'"),
        ("euclidean,euclidean", r"--methods\[1\] = 'euclidean' repeats an earlier method"),
    ])
    def test_methods_checked_before_loading(self, monkeypatch, capsys, methods, message):
        import hubridge.cli

        def refuse(*args):
            raise AssertionError("dataset loaded before --methods was checked")

        monkeypatch.setattr(hubridge.cli, "load_dataset", refuse)
        rc = main(["hubness", "--dataset", str(bundled_dataset_path("iris")),
                   "--methods", methods])
        assert rc == 1
        captured = capsys.readouterr()
        assert re.search(message, captured.err)
        assert captured.out == ""

    def test_k_above_training_size_checked_before_fitting(self, monkeypatch, capsys):
        # used to fail inside the first k-NN lookup, after preprocessing and a fit
        import hubridge.cli
        import hubridge.experiment

        def refuse(*args, **kwargs):
            raise AssertionError("preprocessed or fitted before --k was checked")

        monkeypatch.setattr(hubridge.cli, "preprocess", refuse)
        monkeypatch.setattr(hubridge.experiment, "fit_timed", refuse)
        rc = main(["hubness", "--dataset", str(bundled_dataset_path("iris")), "--k", "200",
                   "--methods", "move-labeled"])
        assert rc == 1
        assert capsys.readouterr().err == ("error: --k must be at most the 105 training rows, "
                                           "got 200\n")


class TestCvCommand:
    def test_json_output(self, train_and_queries, tmp_path, capsys):
        train_p, _ = train_and_queries
        rc = main(["cv", "--dataset", str(train_p), "--direction", "euclidean",
                   "--k-grid", "1,3", "--folds", "3", "--seed", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["best_k"] in (1, 3)
        assert len(doc["table"]) == 2

    @pytest.mark.parametrize("direction", ["euclidean", "move-labeled", "move-query"])
    def test_no_center_changes_nothing(self, capsys, direction):
        # every fold is re-centered on its fit rows, which undoes centering before the search
        argv = ["cv", "--dataset", str(bundled_dataset_path("iris")), "--direction", direction]
        outputs = []
        for flags in ([], ["--no-center"]):
            assert main([*argv, *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_pca_dim_below_one_named(self, train_and_queries, monkeypatch, capsys, value):
        import hubridge.cli

        def refuse(*args):
            raise AssertionError("dataset loaded before --pca-dim was checked")

        monkeypatch.setattr(hubridge.cli, "load_dataset", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["cv", "--dataset", str(train_and_queries[0]), "--direction", "euclidean",
                  "--k-grid", "1", "--folds", "3", "--pca-dim", value])
        assert exc.value.code == 2
        assert f"argument --pca-dim: must be >= 1, got '{value}'" in capsys.readouterr().err


class TestCentralityCommand:
    def test_single_cell_json(self, capsys):
        rc = main(["centrality", "--d", "300", "--gamma", "1", "--s", "1",
                   "--n", "100000", "--seed", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["delta_theory"] == pytest.approx(np.sqrt(600))
        assert abs(doc["delta_hat"] - 24.49) < 1.0
        assert abs(doc["delta_hat"] - doc["delta_theory"]) < 3 * doc["std_error"]

    @pytest.mark.parametrize("scales", ["1e160", "1,1e160"], ids=["one-cell", "sweep"])
    def test_overflowing_s_named_before_any_draw(self, monkeypatch, capsys, scales):
        import hubridge.cli

        def refuse(*args):
            raise AssertionError("a cell was simulated before every --s was checked")

        monkeypatch.setattr(hubridge.cli, "simulate_delta", refuse)
        rc = main(["centrality", "--s", scales, "--n", "100"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --s must be at most " in captured.err
        assert "got 1e+160" in captured.err

    def test_sweep_csv(self, capsys):
        rc = main(["centrality", "--d", "10,50", "--gamma", "0,1", "--s", "1",
                   "--n", "1000", "--seed", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "d,s,gamma,n_queries,delta_hat,delta_theory,std_error"
        assert len(lines) == 5


@pytest.mark.parametrize("argv, want", [
    (["centrality", "--d", "5,7", "--s", "1", "--gamma", "0.5", "--n", "50", "--seed", "3"],
     "d,s,gamma,n_queries,delta_hat,delta_theory,std_error\n"
     "5,1.0,0.5,50,1.3241193774198712,1.5811388300841898,1.189927333877826\n"
     "7,1.0,0.5,50,1.9226036602802725,1.8708286933869707,1.2299168411543813\n"),
    (["hubness", "--dataset", str(bundled_dataset_path("iris")), "--seed", "1", "--k", "5"],
     "method,k,skewness,max_count,mean_count\n"
     "euclidean,5,0.9083474605307684,7,2.142857142857143\n"
     "move-labeled,5,0.9482208560062986,8,2.142857142857143\n"
     "move-query,5,0.8953431227970493,8,2.142857142857143\n"),
], ids=["centrality-sweep", "hubness"])
def test_csv_bytes_pinned(tmp_path, capsys, argv, want):
    # the CSV text written to --out and printed, byte for byte
    out_p = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out_p)]) == 0
    assert capsys.readouterr().out == want
    assert out_p.read_bytes() == want.encode()


class TestBenchCommand:
    def test_report_files_schema_valid(self, tmp_path, capsys):
        x, y = gaussian_mixture(120, 6, 3, sep=1.5, seed=5)
        data_p = tmp_path / "mix.csv"
        write_dense_csv(data_p, x, y)
        cfg = {"version": 1, "dataset": str(data_p), "seeds": [1, 2],
               "n_splits": 2, "lambda_grid": [0.1, 1.0], "k_grid": [1, 3],
               "cv_folds": 3, "out_dir": str(tmp_path / "out")}
        cfg_p = tmp_path / "exp.json"
        cfg_p.write_text(json.dumps(cfg))
        rc = main(["bench", "--config", str(cfg_p)])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["version"] == 1
        assert len(report["rows"]) == 6
        for row in report["rows"]:
            assert {"method", "split_seed", "accuracy", "n10_skewness",
                    "training_seconds", "lambda", "k", "solver_gap"} == set(row)
        assert (tmp_path / "out" / "report.txt").read_text().startswith("method")

    def test_misspelt_key_exits_1(self, tmp_path, capsys):
        cfg_p = tmp_path / "exp.json"
        cfg_p.write_text(json.dumps({"version": 1, "dataset": "x.csv", "seeds": [1],
                                     "lamda_grid": [0.1]}))
        assert main(["bench", "--config", str(cfg_p)]) == 1
        captured = capsys.readouterr()
        assert "unknown config key 'lamda_grid'" in captured.err and captured.out == ""

    def test_override_splits_and_seed(self, tmp_path, capsys):
        x, y = gaussian_mixture(100, 5, 2, sep=2.0, seed=6)
        data_p = tmp_path / "mix.csv"
        write_dense_csv(data_p, x, y)
        cfg = {"version": 1, "dataset": str(data_p), "seeds": [1, 2, 3, 4],
               "lambda_grid": [0.1], "k_grid": [1], "cv_folds": 3,
               "methods": ["euclidean"]}
        cfg_p = tmp_path / "exp.json"
        cfg_p.write_text(json.dumps(cfg))
        rc = main(["bench", "--config", str(cfg_p), "--splits", "1",
                   "--seed", "9", "--out", str(tmp_path / "o2")])
        assert rc == 0
        report = json.loads((tmp_path / "o2" / "report.json").read_text())
        assert [r["split_seed"] for r in report["rows"]] == [9]
