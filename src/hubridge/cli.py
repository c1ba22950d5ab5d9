"""Command-line harness.

Subcommands:
  fit         train a transform on a feature file and write it, with the
              fitted preprocessing and the label names, as one JSON model file
  predict     classify a query file against the training file with a saved
              model; the preprocessing comes from the model file
  hubness     skewness report for one random split, per dissimilarity
  cv          grid search over lambda and k on a feature file
  centrality  spatial-centrality simulation (single cell or sweep table)
  bench       full experiment protocol driven by a JSON config
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import experiment
from .datamodel import (FORMATS, Dataset, Preprocessor, load_dataset,
                        split as make_split, subset)
from .experiment import (ExperimentConfig, ModelArtifact, fit_method, preprocess,
                         run_experiment, solver_gap)
from .hubness import hubness_report, report_csv
from .knn import classify_batch, knn_from_transform
from .modelselect import METHODS, CvConfig, check_methods, grid_search
from .theory import CentralityExperiment, simulate_delta
from .transform import MOVE_LABELED, MOVE_QUERY, SOLVER_PAPER, SOLVERS


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(",") if t)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t)


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", required=True, help="feature file to load")
    p.add_argument("--format", default="dense-csv", choices=FORMATS)


def _add_preproc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-center", dest="center", action="store_false",
                   help="skip mean-centering (fitted on the training side)")
    p.add_argument("--zscore", action="store_true",
                   help="standardize columns (fitted on the training side)")
    p.add_argument("--pca-dim", type=int, default=None,
                   help="project to this many principal components")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hubridge",
        description="Ridge-regression dissimilarity learning for k-NN, "
                    "with hubness diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="train a transform and save it with its "
                       "preprocessing as one JSON model file")
    _add_dataset_args(p)
    _add_preproc_args(p)
    p.add_argument("--method", default=MOVE_LABELED, choices=(MOVE_LABELED, MOVE_QUERY))
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--k-targets", type=int, default=1)
    p.add_argument("--solver", default=SOLVER_PAPER, choices=SOLVERS)
    p.add_argument("--out", required=True, help="path for the model JSON")

    p = sub.add_parser("predict", help="classify a query file with a saved model "
                       "(its preprocessing is read from the model file)")
    _add_dataset_args(p)
    p.add_argument("--model", required=True, help="model JSON written by `fit`")
    p.add_argument("--queries", required=True, help="query feature file (same format)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", default=None, help="write predictions CSV here")

    p = sub.add_parser("hubness", help="N_k skewness per dissimilarity on one split")
    _add_dataset_args(p)
    _add_preproc_args(p)
    p.add_argument("--methods", type=lambda s: tuple(s.split(",")),
                   default=METHODS, help="comma list among " + ",".join(METHODS))
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--k-targets", type=int, default=1)
    p.add_argument("--solver", default=SOLVER_PAPER, choices=SOLVERS)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--train-fraction", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the CSV report here")
    p.add_argument("--json-out", default=None, help="write the JSON report here")

    p = sub.add_parser("cv", help="cross-validated grid search over lambda and k")
    _add_dataset_args(p)
    _add_preproc_args(p)
    p.add_argument("--direction", default=MOVE_LABELED, choices=METHODS)
    p.add_argument("--lambda-grid", type=_float_list,
                   default=experiment.DEFAULT_LAMBDA_GRID)
    p.add_argument("--k-grid", type=_int_list, default=experiment.DEFAULT_K_GRID)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--k-targets", type=int, default=1)
    p.add_argument("--solver", default=SOLVER_PAPER, choices=SOLVERS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the CvResult JSON here")

    p = sub.add_parser("centrality", help="simulate the spatial-centrality bias")
    p.add_argument("--d", type=_int_list, default=(300,))
    p.add_argument("--s", type=_float_list, default=(1.0,))
    p.add_argument("--gamma", type=_float_list, default=(1.0,))
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON/CSV output here")

    p = sub.add_parser("bench", help="run the full experiment protocol")
    p.add_argument("--config", required=True, help="ExperimentConfig JSON file")
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument("--splits", type=int, default=None, help="override n_splits")
    p.add_argument("--seed", type=int, default=None,
                   help="override seeds with seed, seed+1, ...")
    p.add_argument("--train-fraction", type=float, default=None)
    p.add_argument("--methods", type=lambda s: tuple(s.split(",")), default=None)

    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    ds = load_dataset(args.dataset, args.format)
    prep = Preprocessor.fit(ds.features, center=args.center, zscore=args.zscore,
                            pca_dim=args.pca_dim)
    pre = Dataset(prep.apply(ds.features), ds.labels, ds.class_count, ds.name,
                  ds.label_names)
    tm, jj, seconds = fit_method(pre, args.method, args.lam, args.k_targets,
                                 args.solver)
    gap = solver_gap(pre, tm, jj)
    ModelArtifact(prep, tm, ds.label_names).save(args.out)
    summary = {"direction": tm.direction, "lambda": tm.lam, "solver": tm.solver,
               "d": tm.d, "n": pre.n, "training_seconds": seconds,
               "model_path": str(args.out)}
    if gap is not None:
        summary["solver_gap"] = gap
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_predict(args) -> int:
    art = ModelArtifact.load(args.model)
    train = load_dataset(args.dataset, args.format)
    if train.label_names != art.label_names:
        raise ValueError(
            f"training file label names {list(train.label_names)} differ from the "
            f"model's label_names {list(art.label_names)}")
    queries = load_dataset(args.queries, args.format)
    x_train = art.preprocessor.apply(train.features, "training features")
    x_queries = art.preprocessor.apply(queries.features, "query features")

    km = knn_from_transform(art.transform, x_train, train.labels, args.k)
    preds = classify_batch(km, x_queries)

    # Map query label tokens through the training file's token order.
    token_to_id = {tok: i for i, tok in enumerate(train.label_names)}
    try:
        truth = np.array([token_to_id[queries.label_names[y]]
                          for y in queries.labels], dtype=np.int64)
    except KeyError as e:
        raise ValueError(f"query file contains unknown label {e.args[0]!r}") from None

    lines = ["query_index,predicted_label,true_label"]
    for i, (p_, t_) in enumerate(zip(preds, truth)):
        lines.append(f"{i},{train.label_names[p_]},{train.label_names[t_]}")
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        print(csv_text, end="")
    summary = {"accuracy": float(np.mean(preds == truth)), "k": args.k,
               "dissimilarity": art.transform.direction, "n_queries": queries.n}
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_hubness(args) -> int:
    methods = check_methods(args.methods, "--methods")  # before any loading or fitting
    ds = load_dataset(args.dataset, args.format)
    sp = make_split(ds, args.train_fraction, args.seed)
    pre = preprocess(ds, sp.train_indices, center=args.center,
                     zscore=args.zscore, pca_dim=args.pca_dim)
    train_ds = subset(pre, sp.train_indices)
    models = []
    for method in methods:
        tm, _, _ = fit_method(train_ds, method, args.lam, args.k_targets, args.solver)
        models.append((method, knn_from_transform(tm, train_ds.features,
                                                  train_ds.labels, 1)))

    rows = hubness_report(pre, sp, models, k=args.k)
    csv_text = report_csv(rows)
    if args.out:
        Path(args.out).write_text(csv_text)
    print(csv_text, end="")
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps([r.to_json_dict() for r in rows], indent=2, sort_keys=True))
    return 0


def _cmd_cv(args) -> int:
    ds = load_dataset(args.dataset, args.format)
    pre = preprocess(ds, None, center=args.center, zscore=args.zscore,
                     pca_dim=args.pca_dim)
    cfg = CvConfig(args.lambda_grid, args.k_grid, args.folds, args.seed, args.k_targets,
                   args.solver)
    result = grid_search(pre, np.arange(pre.n), cfg, [args.direction]).result(0)
    text = json.dumps(result.to_json_dict(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return 0


def _cmd_centrality(args) -> int:
    cells = [(d, s, g) for d in args.d for s in args.s for g in args.gamma]
    results = []
    for i, (d, s, g) in enumerate(cells):
        exp = CentralityExperiment(d=d, s=s, gamma=g, n_queries=args.n,
                                   seed=args.seed + i)
        r = simulate_delta(exp)
        results.append({"d": d, "s": s, "gamma": g, "n_queries": args.n,
                        "delta_hat": r.delta_hat, "delta_theory": r.delta_theory,
                        "std_error": r.std_error})
    if len(results) == 1:
        text = json.dumps(results[0], indent=2, sort_keys=True)
    else:
        lines = ["d,s,gamma,n_queries,delta_hat,delta_theory,std_error"]
        for r in results:
            lines.append(f"{r['d']},{r['s']!r},{r['gamma']!r},{r['n_queries']},"
                         f"{r['delta_hat']!r},{r['delta_theory']!r},{r['std_error']!r}")
        text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_bench(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    updates = {}
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.train_fraction is not None:
        updates["train_fraction"] = args.train_fraction
    if args.methods is not None:
        updates["methods"] = args.methods
    if args.splits is not None:
        updates["n_splits"] = args.splits
        base = args.seed if args.seed is not None else cfg.seeds[0]
        updates["seeds"] = tuple(base + i for i in range(args.splits))
    elif args.seed is not None:
        updates["seeds"] = tuple(args.seed + i for i in range(cfg.n_splits))
    if updates:
        from dataclasses import replace
        cfg = replace(cfg, **updates)
    report = run_experiment(cfg)
    print(report.render_table(), end="")
    if cfg.out_dir:
        print(f"report written to {Path(cfg.out_dir) / 'report.json'}")
    return 0


_COMMANDS = {"fit": _cmd_fit, "predict": _cmd_predict, "hubness": _cmd_hubness,
             "cv": _cmd_cv, "centrality": _cmd_centrality, "bench": _cmd_bench}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as e:
        print(f"error: file not found: {e.filename or e}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
