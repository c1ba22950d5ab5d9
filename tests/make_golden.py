"""Write the golden outputs that ``test_golden.py`` compares the CLI against.

Run from the repository root, on a tree whose outputs are known to be right:

    PYTHONPATH=src python tests/make_golden.py

For bundled iris and a fixed-seed 7-class 144 x 12 set (``golden/seven_class.csv``,
written here first), it runs five commands in process and writes what they produce
to ``tests/golden/<set>_<file>``:

- ``bench.json``: ``hubridge bench``'s report.json on the default protocol over split
  seeds 1-4, without ``TIMING_FIELDS``, with the config's dataset path relative to the
  repository root and its output directory relative to the run's own;
- ``cv.json``: ``hubridge cv --out`` (move-labeled, default grids);
- ``hubness.csv`` and ``hubness.json``: ``hubridge hubness --out --json-out``;
- ``fit.json`` and ``model.json``: ``hubridge fit``'s printed summary (default flags),
  without ``training_seconds`` and ``model_path``, and the model file it writes;
- ``predict.csv`` and ``predict.json``: ``hubridge predict --k 5 --out`` with that
  model and the training file as the queries, and the summary it prints.

A change that rewrites a golden file says which fields moved, and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from hubridge import cli
from hubridge.experiment import TIMING_FIELDS

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
GOLDEN = TESTS / "golden"
DATASETS = {"iris": ROOT / "src" / "hubridge" / "data" / "iris.csv",
            "seven_class": GOLDEN / "seven_class.csv"}


def seven_class_csv() -> str:
    """144 rows of 12 two-decimal features around 7 class means; labels c0..c6 in turn."""
    rng = np.random.default_rng(22)
    labels = np.arange(144) % 7
    x = rng.normal(size=(7, 12))[labels] + 1.5 * rng.normal(size=(144, 12))
    return "".join(",".join(f"{v:.2f}" for v in row) + f",c{y}\n" for row, y in zip(x, labels))


def _run(*argv: str) -> str:
    """What ``hubridge *argv`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(list(argv))
    if status != 0:
        raise RuntimeError(f"hubridge {' '.join(argv)} exited {status}")
    return out.getvalue()


def _portable_report(report: dict, work: Path) -> dict:
    """``report`` without timing fields, its paths relative to the repository and ``work``."""
    config = report["config"]
    config["dataset"] = Path(config["dataset"]).relative_to(ROOT).as_posix()
    config["out_dir"] = Path(config["out_dir"]).relative_to(work).as_posix()
    for part in ("rows", "aggregates"):
        for item in report[part]:
            for field in TIMING_FIELDS:
                item.pop(field, None)
    return report


def golden_outputs(dataset: Path, work: Path) -> dict[str, str]:
    """File suffix -> text of each golden output of ``dataset``, run in directory ``work``."""
    config = work / "config.json"
    config.write_text(json.dumps({"version": 1, "dataset": str(dataset), "seeds": [1, 2, 3, 4]}))
    _run("bench", "--config", str(config), "--out", str(work / "bench"))
    report = json.loads((work / "bench" / "report.json").read_text())
    _run("cv", "--dataset", str(dataset), "--out", str(work / "cv.json"))
    _run("hubness", "--dataset", str(dataset), "--out", str(work / "hubness.csv"),
         "--json-out", str(work / "hubness.json"))
    fit = json.loads(_run("fit", "--dataset", str(dataset), "--out", str(work / "model.json")))
    del fit["training_seconds"], fit["model_path"]
    predict = _run("predict", "--dataset", str(dataset), "--model", str(work / "model.json"),
                   "--queries", str(dataset), "--k", "5", "--out", str(work / "predict.csv"))
    return {"bench.json": json.dumps(_portable_report(report, work), indent=2, sort_keys=True),
            "cv.json": (work / "cv.json").read_text(),
            "hubness.csv": (work / "hubness.csv").read_text(),
            "hubness.json": (work / "hubness.json").read_text(),
            "fit.json": json.dumps(fit, indent=2, sort_keys=True),
            "model.json": (work / "model.json").read_text(),
            "predict.csv": (work / "predict.csv").read_text(),
            "predict.json": predict}


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    DATASETS["seven_class"].write_text(seven_class_csv())
    for name, dataset in DATASETS.items():
        with tempfile.TemporaryDirectory() as tmp:
            for suffix, text in golden_outputs(dataset, Path(tmp)).items():
                (GOLDEN / f"{name}_{suffix}").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
