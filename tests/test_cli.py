import json
import re

import numpy as np
import pytest

from hubridge.cli import main
from hubridge.datamodel import bundled_dataset_path, dataset_from_arrays, load_dataset
from hubridge.experiment import ModelArtifact, fit_timed, preprocess
from hubridge.knn import classify_batch, knn_from_transform

from _helpers import gaussian_mixture, write_dense_csv


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
        assert set(doc) == {"version", "label_names", "preprocessor", "transform"}
        assert doc["version"] == 2
        assert doc["label_names"] == list(load_dataset(train_p, "dense-csv").label_names)
        assert doc["preprocessor"]["d_in"] == 6
        assert len(doc["preprocessor"]["center_mean"]) == 6
        assert doc["preprocessor"]["zscore_mean"] is None and doc["preprocessor"]["pca"] is None
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

    def test_version_1_model(self, train_and_queries, model_p, tmp_path, capsys):
        train_p, query_p = train_and_queries
        v1_p = tmp_path / "v1.json"
        v1_p.write_text(json.dumps(json.loads(model_p.read_text())["transform"]))
        err = self.predict(train_p, query_p, v1_p, capsys)
        assert "version 1" in err and "refit" in err


class TestErrors:
    def test_missing_file(self, capsys):
        rc = main(["fit", "--dataset", "/nonexistent.csv", "--out", "/tmp/x.json"])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_flag_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--bogus"])
        assert exc.value.code != 0
        assert "usage" in capsys.readouterr().err

    def test_zero_k_targets_exits_1(self, train_and_queries, tmp_path, capsys):
        # zero targets per object would fit and save W = 0
        model_p = tmp_path / "m.json"
        rc = main(["fit", "--dataset", str(train_and_queries[0]), "--k-targets", "0",
                   "--out", str(model_p)])
        assert rc == 1
        assert "k_targets" in capsys.readouterr().err
        assert not model_p.exists()

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
        ("euclidean,bogus", r"--methods\[1\] = 'bogus' is an unknown method"),
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


class TestCvCommand:
    def test_json_output(self, train_and_queries, tmp_path, capsys):
        train_p, _ = train_and_queries
        rc = main(["cv", "--dataset", str(train_p), "--direction", "euclidean",
                   "--k-grid", "1,3", "--folds", "3", "--seed", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["best_k"] in (1, 3)
        assert len(doc["table"]) == 2


class TestCentralityCommand:
    def test_single_cell_json(self, capsys):
        rc = main(["centrality", "--d", "300", "--gamma", "1", "--s", "1",
                   "--n", "100000", "--seed", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["delta_theory"] == pytest.approx(np.sqrt(600))
        assert abs(doc["delta_hat"] - 24.49) < 1.0
        assert abs(doc["delta_hat"] - doc["delta_theory"]) < 3 * doc["std_error"]

    def test_sweep_csv(self, capsys):
        rc = main(["centrality", "--d", "10,50", "--gamma", "0,1", "--s", "1",
                   "--n", "1000", "--seed", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "d,s,gamma,n_queries,delta_hat,delta_theory,std_error"
        assert len(lines) == 5


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
