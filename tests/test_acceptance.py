"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or on
failure). Criteria 5 and 6 share one benchmark run via a module-scoped
fixture; its wall-clock budget covers both.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hubridge
from hubridge.cli import main as cli_main
from hubridge.datamodel import bundled_dataset_path, dataset_from_arrays
from hubridge.experiment import (ExperimentConfig, TIMING_FIELDS, fit_timed,
                                 run_experiment)
from hubridge.hubness import ZeroVarianceError, skewness
from hubridge.knn import Dissimilarity, build_knn_model, classify_batch, neighbor_index_matrix
from hubridge.targets import select_targets
from hubridge.theory import CentralityExperiment, simulate_delta
from hubridge.transform import (SOLVER_EXACT, SOLVER_PAPER, fit_move_labeled)

from _helpers import (exact_skewness, gd_minimize, hetero_gaussian_mixture,
                      oracle_classify, oracle_knn_indices, pairs_from_indicator,
                      write_dense_csv)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {status} - {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def random_ridge_problem(rng, k_targets):
    d = int(rng.integers(2, 21))
    n = int(rng.integers(2 * d + 2, max(2 * d + 3, 61)))
    feats = rng.normal(size=(n, d))
    labels = (np.arange(n) % 3).astype(np.int64)
    ds = dataset_from_arrays(feats, labels)
    jj = select_targets(ds, np.arange(n), k_targets)
    return feats.T.copy(), jj


class TestCriterion1SolverCorrectness:
    def test_exact_vs_gradient_descent_and_paper_residual(self):
        rng = np.random.default_rng(1001)
        t0 = time.perf_counter()
        worst_gd, worst_res = 0.0, 0.0
        lams = [0.0, 0.1, 10.0]
        for trial in range(50):
            x, jj = random_ridge_problem(rng, k_targets=1 + trial % 2)
            lam = lams[trial % 3]
            d = x.shape[0]

            w_exact = fit_move_labeled(x, jj, lam, SOLVER_EXACT).w
            w_gd = gd_minimize(x, pairs_from_indicator(jj), lam, "move-labeled")
            rel = np.linalg.norm(w_exact - w_gd) / np.linalg.norm(w_exact)
            worst_gd = max(worst_gd, rel)

            w_paper = fit_move_labeled(x, jj, lam, SOLVER_PAPER).w
            b = x @ (jj.toarray() @ x.T)
            resid = np.linalg.norm(w_paper @ (x @ x.T + lam * np.eye(d)) - b)
            worst_res = max(worst_res, resid / np.linalg.norm(b))
        elapsed = time.perf_counter() - t0
        ok = worst_gd < 1e-5 and worst_res < 1e-8 and elapsed < 30.0
        _report(1, "solver correctness on 50 random problems", ok,
                f"max gd gap {worst_gd:.2e}, max residual {worst_res:.2e}, "
                f"{elapsed:.1f}s")


class TestCriterion2IdentityAndLimits:
    def test_identity_limit_and_monotonicity(self):
        rng = np.random.default_rng(1002)
        ok = True
        details = []

        x = rng.normal(size=(8, 30))
        for solver in (SOLVER_PAPER, SOLVER_EXACT):
            w = fit_move_labeled(x, np.eye(30), 0.0, solver).w
            gap = np.abs(w - np.eye(8)).max()
            ok &= gap < 1e-8
        details.append(f"identity gap {gap:.2e}")

        x, jj = random_ridge_problem(np.random.default_rng(7), 1)
        norm_huge = np.linalg.norm(fit_move_labeled(x, jj, 1e12).w)
        ok &= norm_huge < 1e-4
        details.append(f"|W(1e12)| {norm_huge:.2e}")

        grid = (0.0, 0.01, 0.1, 1.0, 10.0, 100.0)
        monotone = True
        for _ in range(20):
            x, jj = random_ridge_problem(rng, 1)
            norms = [np.linalg.norm(fit_move_labeled(x, jj, lam).w) for lam in grid]
            monotone &= all(b <= a * (1 + 1e-10) for a, b in zip(norms, norms[1:]))
        ok &= monotone
        details.append(f"monotone on 20 problems: {monotone}")
        _report(2, "identity and regularization limits", ok, "; ".join(details))


class TestCriterion3KnnOracle:
    def test_all_kinds_match_full_sort_oracle(self):
        rng = np.random.default_rng(1003)
        kinds = ["euclidean", "transformed-labeled", "transformed-query",
                 "both-sides"]
        builders = {"euclidean": lambda w: Dissimilarity(),
                    "transformed-labeled": lambda w: Dissimilarity(labeled_map=w),
                    "transformed-query": lambda w: Dissimilarity(query_map=w),
                    "both-sides": lambda w: Dissimilarity(w, w)}
        mismatches = 0
        for trial in range(30):
            n = int(rng.integers(20, 501))
            d = int(rng.integers(2, 51))
            k = int(rng.integers(1, 8))
            pts = rng.normal(size=(n, d))
            pts[1] = pts[0]  # duplicated labeled points force ties
            pts[2] = pts[0]
            labels = rng.integers(0, 4, n)
            w = rng.normal(size=(d, d))
            kind = kinds[trial % 4]
            model = build_knn_model(pts, labels, k, builders[kind](w))
            queries = rng.normal(size=(5, d))
            queries[0] = pts[0]  # query tied with its duplicates
            matrix = None if kind == "euclidean" else w
            got_idx = neighbor_index_matrix(model, queries)
            got_labels = classify_batch(model, queries)
            for q, idx, label in zip(queries, got_idx, got_labels):
                if idx.tolist() != oracle_knn_indices(q, pts, k, kind, matrix):
                    mismatches += 1
                if label != oracle_classify(q, pts, labels, k, kind, matrix):
                    mismatches += 1
        _report(3, "k-NN matches the brute-force oracle exactly",
                mismatches == 0, f"{mismatches} mismatches over 30 datasets")


class TestCriterion4Proposition1:
    def test_monte_carlo_within_three_se(self):
        t0 = time.perf_counter()
        hits, cells = 0, 0
        lines = []
        for d in (50, 300):
            for s in (0.5, 1.0):
                for gamma in (0.0, 1.0, 2.0):
                    exp = CentralityExperiment(d=d, s=s, gamma=gamma,
                                               n_queries=100_000,
                                               seed=4000 + cells)
                    r = simulate_delta(exp)
                    inside = abs(r.delta_hat - r.delta_theory) <= 3 * r.std_error
                    hits += inside
                    cells += 1
                    lines.append(f"d={d} s={s} g={gamma}: "
                                 f"{abs(r.delta_hat - r.delta_theory) / r.std_error:.2f} se")
        elapsed = time.perf_counter() - t0
        ok = hits >= 11 and elapsed < 60.0
        _report(4, "spatial-centrality delta matches theory", ok,
                f"{hits}/12 cells within 3 SE, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def synthetic_benchmark(tmp_path_factory):
    """Shared 300-dim benchmark run for criteria 5 and 6."""
    tmp = tmp_path_factory.mktemp("bench")
    x, y = hetero_gaussian_mixture()
    data_p = tmp / "synthetic.csv"
    write_dense_csv(data_p, x, y)
    cfg = ExperimentConfig(dataset_path=str(data_p), n_splits=4,
                           seeds=(1, 2, 3, 4))
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    return report, elapsed


class TestCriterion5HubnessOrdering:
    def test_move_labeled_below_euclidean_below_move_query(self, synthetic_benchmark):
        report, elapsed = synthetic_benchmark
        by = {m: {r.split_seed: r for r in report.rows if r.method == m}
              for m in ("euclidean", "move-labeled", "move-query")}
        good = sum(
            1 for seed in (1, 2, 3, 4)
            if by["move-labeled"][seed].n10_skewness
            < by["euclidean"][seed].n10_skewness
            < by["move-query"][seed].n10_skewness)
        ok = good >= 3 and elapsed < 300.0
        _report(5, "N10 skewness ordering on the synthetic benchmark", ok,
                f"strict ordering on {good}/4 splits, run took {elapsed:.0f}s")


class TestCriterion6AccuracyNonDegradation:
    def test_accuracy_relations(self, synthetic_benchmark):
        report, elapsed = synthetic_benchmark
        agg = {a.method: a for a in report.aggregates}
        ml = agg["move-labeled"].mean_accuracy
        eu = agg["euclidean"].mean_accuracy
        mq = agg["move-query"].mean_accuracy
        ok = (ml >= eu - 0.005) and (mq <= eu) and elapsed < 300.0
        _report(6, "accuracy non-degradation on the synthetic benchmark", ok,
                f"move-labeled {ml:.4f} vs euclidean {eu:.4f} vs "
                f"move-query {mq:.4f}")


class TestCriterion7IrisSpotCheck:
    def test_iris_accuracy_bands(self):
        cfg = ExperimentConfig(dataset_path=str(bundled_dataset_path("iris")),
                               n_splits=4, seeds=(1, 2, 3, 4),
                               methods=("euclidean", "move-labeled"))
        report = run_experiment(cfg)
        agg = {a.method: a for a in report.aggregates}
        eu = agg["euclidean"].mean_accuracy
        ml = agg["move-labeled"].mean_accuracy
        ok = 0.94 <= eu <= 1.0 and 0.93 <= ml <= 1.0
        _report(7, "iris accuracy bands", ok,
                f"euclidean {eu:.4f} in [0.94, 1], move-labeled {ml:.4f} in [0.93, 1]")


class TestCriterion8Speed:
    def test_large_fit_under_ten_seconds(self):
        rng = np.random.default_rng(1008)
        n, d, n_classes = 10_000, 300, 10
        means = rng.normal(0, 0.5, (n_classes, d))
        labels = (np.arange(n) % n_classes).astype(np.int64)
        feats = rng.normal(0, 1.0, (n, d)) + means[labels]
        ds = dataset_from_arrays(feats, labels)
        _, _, seconds = fit_timed(ds, "move-labeled", 0.1, 1, SOLVER_PAPER)
        ok = seconds < 10.0
        _report(8, "closed-form fit speed at n=10000, d=300", ok,
                f"{seconds:.2f}s")


class TestCriterion9SkewnessFormula:
    def test_formula_against_exact_arithmetic(self):
        rng = np.random.default_rng(1009)
        worst = 0.0
        checked = 0
        while checked < 100:
            counts = rng.integers(0, 50, size=int(rng.integers(2, 60)))
            if counts.max() == counts.min():
                continue
            worst = max(worst, abs(skewness(counts) - exact_skewness(counts)))
            checked += 1
        symmetric_zero = abs(skewness([0, 1, 2, 3, 4])) < 1e-12
        try:
            skewness([7, 7, 7])
            constant_errors = False
        except ZeroVarianceError:
            constant_errors = True
        ok = worst < 1e-10 and symmetric_zero and constant_errors
        _report(9, "skewness matches exact arithmetic", ok,
                f"max gap {worst:.2e}, symmetric zero {symmetric_zero}, "
                f"constant errors {constant_errors}")


class TestCriterion10Reproducibility:
    @staticmethod
    def _strip_timing(doc: dict) -> dict:
        for row in doc.get("rows", []):
            for f in TIMING_FIELDS:
                row.pop(f, None)
        for agg in doc.get("aggregates", []):
            for f in TIMING_FIELDS:
                agg.pop(f, None)
        return doc

    def test_bench_byte_identical_modulo_timing(self, tmp_path):
        rng = np.random.default_rng(1010)
        x = rng.normal(size=(150, 8))
        y = (np.arange(150) % 3).astype(np.int64)
        means = rng.normal(0, 1.5, (3, 8))
        x += means[y]
        data_p = tmp_path / "mix.csv"
        write_dense_csv(data_p, x, y)
        cfg = {"version": 1, "dataset": str(data_p), "seeds": [1, 2],
               "n_splits": 2, "lambda_grid": [0.1, 1.0], "k_grid": [1, 3],
               "cv_folds": 3}
        cfg_p = tmp_path / "exp.json"
        cfg_p.write_text(json.dumps(cfg))

        outputs = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            rc = cli_main(["bench", "--config", str(cfg_p), "--out", str(out_dir)])
            assert rc == 0
            doc = json.loads((out_dir / "report.json").read_text())
            doc["config"]["out_dir"] = None
            outputs.append(json.dumps(self._strip_timing(doc), sort_keys=True,
                                      indent=2).encode())
        ok = outputs[0] == outputs[1]
        _report(10, "bench reports byte-identical modulo timing", ok,
                f"{len(outputs[0])} bytes compared")

    def test_bench_across_blas_thread_counts(self, tmp_path):
        # the contract in the experiment docstring: OpenBLAS sums in another order at
        # another thread count, so the fitted W, and with it solver_gap, may move in
        # its last bits; every other non-timing field may not move at all. d = 100 is
        # large enough for OpenBLAS to split its products: with numpy's OpenBLAS on a
        # 2-CPU x86-64 host, split 1's gap differs in its last two digits
        x, y = hetero_gaussian_mixture(n=300, d=100, n_classes=3, seed=1011)
        data_p = tmp_path / "mix.csv"
        write_dense_csv(data_p, x, y)
        cfg_p = tmp_path / "exp.json"
        cfg_p.write_text(json.dumps({"version": 1, "dataset": str(data_p), "seeds": [1, 2],
                                     "lambda_grid": [0.1, 1.0], "k_grid": [1, 3],
                                     "cv_folds": 3}))
        outputs, gaps = [], []
        for threads in ("1", "2"):  # the most a 2-CPU host runs at once
            env = dict(os.environ, PYTHONPATH=str(Path(hubridge.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            out_dir = tmp_path / threads
            subprocess.run([sys.executable, "-m", "hubridge.cli", "bench", "--config",
                            str(cfg_p), "--out", str(out_dir)], env=env, check=True,
                           capture_output=True, timeout=300)
            doc = json.loads((out_dir / "report.json").read_text())
            doc["config"]["out_dir"] = None
            gaps.append([row.pop("solver_gap") for row in doc["rows"]])
            outputs.append(json.dumps(self._strip_timing(doc), sort_keys=True, indent=2))
        assert outputs[0] == outputs[1]
        assert [g is None for g in gaps[0]] == [g is None for g in gaps[1]]
        ok = all(a is None or abs(a - b) <= 1e-12 * abs(a) for a, b in zip(*gaps))
        _report(10, "bench reports identical at 1 and 2 BLAS threads, solver_gap to 1e-12",
                ok, f"solver_gap {gaps[0]} against {gaps[1]}")
