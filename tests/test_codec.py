"""The one JSON codec: every field of a model file and a config, fuzzed; every document's
record against its class; encode -> decode -> encode on the documents that are read."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest

from hubridge.cli import main
from hubridge.datamodel import Preprocessor, bundled_dataset_path, dataset_from_arrays
from hubridge.experiment import (ExperimentConfig, ExperimentReport, MethodAggregate,
                                 MethodSplitResult, ModelArtifact, run_experiment)
from hubridge.modelselect import CvCell, CvResult
from hubridge.transform import TransformModel

MISSING = object()
VALUES = {"missing": MISSING, "null": None, "bool": True, "int": 1, "float": 1.5,
          "huge": 10**400, "nan": math.nan, "str": "x", "list": [1], "nested": [[1]],
          "object": {}}
IRIS = str(bundled_dataset_path("iris"))

# the values each field takes; the rest raise a ValueError naming the field. These
# are the values the codec's predecessor accepted, less a NaN lambda, which loaded
# and predicted before, a null center_mean beside PCA components, which projected
# uncentered rows, and a version of true (== 1).
MODEL_ACCEPTS = {"label_names": {"list", "nested"}, "transform.version": {"int"},
                 "transform.lambda": {"int", "float"},
                 "transform.d": set(VALUES), "training.n": {"int", "huge"},
                 "training.d_in": {"int", "huge"}, "training.sha256": {"str"}}
CONFIG = {"version": 1, "dataset": IRIS, "format": "dense-csv", "center": True,
          "zscore": False, "pca_dim": None, "methods": ["euclidean"], "n_splits": 2,
          "train_fraction": 0.7, "seeds": [1, 2], "lambda_grid": [0.1], "k_grid": [1, 3],
          "cv_folds": 3, "k_targets": 1, "solver": "paper", "hubness_k": 10, "out_dir": None}
CONFIG_ACCEPTS = {"version": {"int"}, "dataset": {"str"},
                  "center": {"bool"}, "zscore": {"bool"}, "pca_dim": {"null", "int", "huge"},
                  "lambda_grid": {"list"}, "k_grid": {"list"}, "cv_folds": {"huge"},
                  "k_targets": {"int", "huge"}, "hubness_k": {"int", "huge"},
                  "out_dir": {"null", "str"}}
CONFIG_REQUIRED = {"version", "dataset", "seeds"}


@pytest.fixture(scope="module")
def model_doc(tmp_path_factory):
    # z-scoring and PCA, so every preprocessor field holds an array
    path = tmp_path_factory.mktemp("model") / "model.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fit", "--dataset", IRIS, "--zscore", "--pca-dim", "3",
                     "--out", str(path)]) == 0
    return json.loads(path.read_text())


def fields(doc, prefix=""):
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from fields(value, f"{prefix}{key}.")


def mutated(doc, field, value):
    out = copy.deepcopy(doc)
    *path, key = field.split(".")
    holder = out
    for part in path:
        holder = holder[part]
    if value is MISSING:
        del holder[key]
    else:
        holder[key] = value
    return out


def names(message: str, field: str) -> bool:
    key = field.split(".")[-1]
    return re.search(rf"(?<![\w-]){re.escape(key)}(?![\w-])", message) is not None


def model_fields():
    # the fixture's fields, known without running it
    return ["version", "label_names", "preprocessor", *(
        f"preprocessor.{k}" for k in ("d_in", "zscore_mean", "zscore_sd", "center_mean",
                                      "components")),
        "transform", *(f"transform.{k}" for k in ("version", "direction", "lambda", "solver",
                                                  "d", "W")),
        "training", "training.n", "training.d_in", "training.sha256"]


def test_model_fields_listed(model_doc):
    assert list(fields(model_doc)) == model_fields()


@pytest.mark.parametrize("field", model_fields())
def test_model_file_fuzz(model_doc, tmp_path, capsys, field):
    # an object, 10**400 or a string in an array, and 10**400 as lambda, used to
    # end predict in a TypeError, OverflowError or unnamed ValueError
    path = tmp_path / "model.json"
    for name, value in VALUES.items():
        path.write_text(json.dumps(mutated(model_doc, field, value)))
        accepted = name in MODEL_ACCEPTS.get(field, ())
        if accepted:
            ModelArtifact.load(path)
        else:
            with pytest.raises(ValueError) as info:
                ModelArtifact.load(path)
            assert names(str(info.value), field), (name, str(info.value))
        rc = main(["predict", "--dataset", IRIS, "--queries", IRIS, "--model", str(path)])
        err = capsys.readouterr().err
        if not accepted:
            assert rc == 1 and err.startswith("error: ") and names(err, field), (name, err)
        assert rc in (0, 1) and "Traceback" not in err, (name, err)


@pytest.mark.parametrize("field", list(CONFIG))
def test_config_fuzz(tmp_path, capsys, field):
    path = tmp_path / "config.json"
    for name, value in VALUES.items():
        path.write_text(json.dumps(mutated(CONFIG, field, value)))
        if name in CONFIG_ACCEPTS.get(field, ()) or (name == "missing"
                                                       and field not in CONFIG_REQUIRED):
            ExperimentConfig.load(path)
            continue
        with pytest.raises(ValueError) as info:
            ExperimentConfig.load(path)
        assert names(str(info.value), field), (name, str(info.value))
        assert main(["bench", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and names(err, field), (name, err)


# ---------------------------------------------------------------------------
# Every record against its class
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def documents():
    """One instance of each class written as JSON, by class name."""
    rng = np.random.default_rng(0)
    ds = dataset_from_arrays(rng.normal(size=(30, 4)), np.arange(30) % 3)
    config = ExperimentConfig("unused.csv", n_splits=1, seeds=(1,), lambda_grid=(0.1,),
                              k_grid=(1,), cv_folds=3, zscore=True, pca_dim=2)
    report = run_experiment(config, ds)
    prep = Preprocessor.fit(ds.features, zscore=True, pca_dim=2)
    art = ModelArtifact(prep, TransformModel(np.eye(2), "move-labeled", 0.1, "paper"),
                        ("a", "b", "c"), {"n": 30, "d_in": 4, "sha256": "0" * 64})
    cv = CvResult(0.1, 1, (CvCell(0.1, 1, 0.9, 0.05),), ((0, 1), (2, 3)))
    objs = [config, report.rows[0], report.aggregates[0], report, cv.table[0], cv,
            art.transform, prep, art]
    return {type(obj).__name__: obj for obj in objs}


@pytest.mark.parametrize("name", [cls.__name__ for cls in (
    ExperimentConfig, MethodSplitResult, MethodAggregate, ExperimentReport, CvCell, CvResult,
    TransformModel, Preprocessor, ModelArtifact)])
def test_record_matches_class(documents, name):
    # a dataclass field added without an entry, or an entry left behind, fails here
    obj = documents[name]
    record = type(obj).JSON
    read = {attr for _, attr, parser in record.entries if parser.parse is not None}
    assert read == {f.name for f in dataclasses.fields(obj)}
    head = set() if record.version is None else {"version"}
    assert set(record.encode(obj)) == head | {key for key, _, _ in record.entries}


@pytest.mark.parametrize("name", ["ExperimentConfig", "ModelArtifact", "TransformModel",
                                  "Preprocessor"])
def test_read_documents_round_trip(documents, name):
    record = type(documents[name]).JSON
    text = json.dumps(record.encode(documents[name]))
    assert json.dumps(record.encode(record.decode(json.loads(text)))) == text


def test_nested_missing_field_names_its_record(model_doc):
    doc = mutated(model_doc, "transform.W", MISSING)
    with pytest.raises(ValueError, match=r"^model file lacks field 'W' in 'transform'$"):
        ModelArtifact.JSON.decode(doc)


@pytest.mark.parametrize("doc, message", [
    ({"lambda": 10**400}, "transform field 'lambda': expected a finite number, got 1000"),
    ({"lambda": math.inf}, "transform field 'lambda': expected a finite number, got inf"),
    ({"W": [[1.0, "x"], [0.0, 1.0]]}, "transform field 'W': expected a 2-dimensional array"),
    ({"W": [[1.0], [0.0, 1.0]]}, "transform field 'W': expected a 2-dimensional array"),
    ({"W": [[1.0, math.nan], [0.0, 1.0]]}, "transform field 'W': expected a 2-dimensional "
                                            "array of finite numbers"),
], ids=["huge-lambda", "inf-lambda", "string-entry", "ragged", "nan-entry"])
def test_transform_values_named(doc, message):
    good = {"version": 1, "direction": "move-labeled", "lambda": 0.1, "solver": "paper",
            "W": [[1.0, 0.0], [0.0, 1.0]]}
    with pytest.raises(ValueError, match=re.escape(message)):
        TransformModel.JSON.decode({**good, **doc})
    assert TransformModel.JSON.decode(good).lam == 0.1


@pytest.mark.parametrize("name, version, message", [
    ("ModelArtifact", 4.0, "model file version 4.0 is not 4"),
    ("ModelArtifact", True, "model file version True is not 4"),
    ("TransformModel", True, "unsupported TransformModel version True"),
    ("TransformModel", 1.0, "unsupported TransformModel version 1.0"),
    ("ExperimentConfig", True, "unsupported config version True"),
    ("ExperimentConfig", 1.0, "unsupported config version 1.0"),
], ids=["model-4.0", "model-true", "transform-true", "transform-1.0", "config-true",
        "config-1.0"])
def test_version_is_an_int(documents, name, version, message):
    # true == 1 and 4.0 == 4, so these used to load
    record = type(documents[name]).JSON
    doc = record.encode(documents[name])
    record.decode(doc)
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        record.decode({**doc, "version": version})


def plain_leaves(value):
    """Every scalar a decoded object holds (arrays, decoded as float64 arrays, aside)."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from plain_leaves(getattr(value, f.name))
    elif isinstance(value, (tuple, list, dict)):
        for item in (value.values() if isinstance(value, dict) else value):
            yield from plain_leaves(item)
    elif not isinstance(value, np.ndarray):
        yield value


def test_numpy_scalars_and_paths_encode_as_json_types(tmp_path):
    # json.dumps used to raise "Object of type int64 is not JSON serializable"
    i64, f32 = np.int64, np.float32
    config = ExperimentConfig(
        tmp_path / "data.csv", fmt=np.str_("dense-csv"), center=np.bool_(True),
        zscore=np.bool_(False), pca_dim=i64(2), methods=(np.str_("euclidean"),),
        n_splits=i64(1), train_fraction=f32(0.7), seeds=(i64(3),), lambda_grid=(f32(0.1),),
        k_grid=(i64(1), np.int32(3)), cv_folds=i64(3), k_targets=i64(1), hubness_k=i64(4),
        out_dir=tmp_path)
    row = MethodSplitResult(np.str_("move-labeled"), i64(3), f32(0.5), np.float64(0.25),
                            f32(0.125), f32(0.1), i64(3), f32(1e-3))
    aggregate = MethodAggregate(np.str_("euclidean"), f32(0.5), f32(0.25), f32(1.5),
                                np.float64(0.0), f32(0.0))
    cell = CvCell(f32(0.1), i64(3), f32(0.75), f32(0.125))
    transform = TransformModel(np.eye(2), np.str_("move-labeled"), f32(0.1), np.str_("paper"))
    prep = Preprocessor(i64(2), center_mean=np.zeros(2))
    training = {"n": i64(30), "d_in": np.int32(2), "sha256": np.str_("0" * 64)}
    for obj in (config, row, aggregate, ExperimentReport(config, (row,), (aggregate,)), cell,
                CvResult(f32(0.1), i64(3), (cell,), ((i64(0), i64(2)), (np.int32(1),))),
                transform, prep, ModelArtifact(prep, transform, (np.str_("a"),), training)):
        record = type(obj).JSON
        doc = json.loads(json.dumps(record.encode(obj)))
        back = record.decode(doc)
        assert record.encode(back) == doc
        assert {type(v) for v in plain_leaves(back)} <= {int, float, str, bool, type(None)}
    assert doc["training"] == {"n": 30, "d_in": 2, "sha256": "0" * 64}
    assert ExperimentConfig.JSON.encode(config)["dataset"] == str(tmp_path / "data.csv")
