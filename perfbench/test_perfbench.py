"""Tests of the benchmark itself, on shrunken copies of each workload.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads
from hubridge import knn, modelselect

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_cv():
    return workloads.CvProtocol(n=120, d=12, n_classes=4, splits=2, folds=3,
                                lambda_grid=(0.1, 1.0), k_grid=(1, 3))


def expected_cv_counts(w) -> dict:
    """Calls the protocol must make, from its shape alone."""
    n_lam = len(w.lambda_grid)
    cv_neighbors = w.splits * w.folds * (1 + 2 * n_lam)  # euclidean + two directions
    cv_fits = w.splits * w.folds * 2 * n_lam
    return {"modelselect.cv_neighbors_calls": cv_neighbors,
            "targets.select_calls": w.splits * (2 * w.folds + 2),
            "modelselect.cv_fit_calls": cv_fits,
            "experiment.fit_timed_calls": 2 * w.splits,
            # CV fits, one final fit per direction, two solver-gap fits
            "transform.fit_calls": cv_fits + 4 * w.splits,
            # plus evaluate and N_k for each method on each split
            "knn.neighbors_calls": cv_neighbors + 6 * w.splits,
            "modelselect.cv_cells": w.splits * w.folds * len(w.k_grid) * (1 + 2 * n_lam)}


def test_full_cv_protocol_counts():
    counts = expected_cv_counts(workloads.CvProtocol())
    assert counts["modelselect.cv_neighbors_calls"] == 260
    assert counts["targets.select_calls"] == 48
    assert counts["modelselect.cv_fit_calls"] == 240
    assert counts["experiment.fit_timed_calls"] == 8


def test_cv_trace_counts_and_every_layer(tmp_path):
    w = small_cv()
    result = workloads.run_traced(w, 0, 1, tmp_path)
    assert result["correct"] and result["failed"] == 0
    m = {k: v for k, (v, _) in result["metrics"].items()}
    for name, want in expected_cv_counts(w).items():
        assert m[name] == want, name
    assert m["datamodel.load_bytes"] == (tmp_path / "cv_protocol.csv").stat().st_size
    assert m["transform.gram_gflop"] > 0 and m["knn.distance_cells"] > 0
    assert m["modelselect.grid_search_self_s"] < m["modelselect.grid_search_s"]


def test_every_named_layer_records_a_span(tmp_path):
    w = small_cv()
    w.prepare(0, tmp_path)
    tracer = spans.Tracer()
    with tracer.installed():
        w.op(w.setup(), 0)
    for name in spans.SPAN_NAMES:
        assert tracer.calls(name) >= 1, name


def test_tracer_restores_every_binding(tmp_path):
    before = (modelselect.neighbor_index_matrix, knn.pairwise_sq_dists,
              knn.Dissimilarity.__dict__["map_labeled"])
    with spans.Tracer().installed():
        assert modelselect.neighbor_index_matrix is not before[0]
        assert knn.pairwise_sq_dists is not before[1]
    assert (modelselect.neighbor_index_matrix, knn.pairwise_sq_dists,
            knn.Dissimilarity.__dict__["map_labeled"]) == before


def test_fit_large(tmp_path):
    w = workloads.FitLarge(n=300, d=15)
    result = workloads.run_traced(w, 0, 2, tmp_path)
    m = {k: v for k, (v, _) in result["metrics"].items()}
    assert result["correct"]
    # the set-up warm-up fit plus the two timed ones
    assert m["experiment.fit_timed_calls"] == 3 == m["targets.select_calls"]
    assert m["knn.distance_cells"] == 0  # no k-NN in the timed work


@pytest.mark.parametrize("cls, tied", [(workloads.QueryDense, False),
                                       (workloads.QueryTies, True)])
def test_query_workloads(tmp_path, cls, tied):
    w = cls(n_labeled=400, n_queries=128, d=40, oracle_rows=32,
            batches_per_trace_second=3)
    result = workloads.run_traced(w, 0, 1, tmp_path)
    m = {k: v for k, (v, _) in result["metrics"].items()}
    assert result["correct"]
    # set-up warm-up batch plus the timed batches, each 64 x n_labeled cells
    assert m["knn.distance_cells"] == (3 + 1) * 64 * 400
    assert (m["knn.tie_share"] > 0.5) if tied else (m["knn.tie_share"] == 0.0)


def test_query_check_catches_a_wrong_prediction(tmp_path):
    w = workloads.QueryDense(n_labeled=300, n_queries=64, d=10, oracle_rows=64)
    w.prepare(0, tmp_path)
    state = w.setup()
    preds = w.op(state, 0).copy()
    preds[5] = (preds[5] + 1) % w.n_classes
    failed = [name for name, ok in w.check(state, [(0, preds)]).checks if not ok]
    assert failed == ["oracle_prediction"]


def test_untraced_reports_exactly_the_benchmark_metrics(tmp_path):
    result = workloads.run_untraced(small_cv(), 0, 0, tmp_path)
    assert result["correct"]
    assert result["text"]["setups"][0] == workloads.CvProtocol.setup_repeats
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(v > 0 for v, _ in result["metrics"].values())
    traced = workloads.run_traced(small_cv(), 0, 0, tmp_path)
    assert list(traced["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]


def test_no_process_outlives_a_run(tmp_path):
    workloads.run_untraced(small_cv(), 0, 0, tmp_path)
    pid = os.getpid()
    assert Path(f"/proc/{pid}/task/{pid}/children").read_text().split() == []


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_large", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
