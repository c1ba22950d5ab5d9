"""Command-line harness.

Subcommands:
  fit         train a transform on a feature file and write it, with the
              fitted preprocessing, the label names and a digest of the
              training set, as one JSON model file
  predict     classify a query file against the training file with a saved
              model; the preprocessing comes from the model file, and a
              training file other than the one fitted on is rejected
  hubness     N_k skewness, max and mean per method on one random split
  cv          grid search over lambda and k on a feature file
  centrality  spatial-centrality simulation (single cell or sweep table)
  bench       full experiment protocol driven by a JSON config
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import experiment
from ._arrays import FRACTION, NON_NEGATIVE
from .datamodel import FORMATS, Preprocessor, load_dataset, split as make_split, subset
from .experiment import (ExperimentConfig, ModelArtifact, fit_timed, preprocess,
                         run_experiment, training_record)
from .hubness import nk_counts, skewness
from .knn import classify_batch, knn_from_transform
from .modelselect import (EUCLIDEAN_METHOD, METHODS, CvConfig, CvResult, check_methods,
                          fold_neighbors, grid_search)
from .theory import CentralityExperiment, simulate_delta
from .transform import MOVE_LABELED, MOVE_QUERY, SOLVER_PAPER, SOLVERS, solver_disagreement


def _non_empty(values: tuple, text: str) -> tuple:
    if not values:
        raise argparse.ArgumentTypeError(f"must be a non-empty comma list, got {text!r}")
    return values


def _float_list(text: str) -> tuple[float, ...]:
    return _non_empty(tuple(float(t) for t in text.split(",") if t), text)


def _int_list(text: str) -> tuple[int, ...]:
    return _non_empty(tuple(int(t) for t in text.split(",") if t), text)


def _checked(cast, rule):
    """An argparse type: ``cast(text)``, which must pass the (test, text) ``rule``."""
    def parse(text: str):
        if not rule[0](cast(text)):
            raise argparse.ArgumentTypeError(f"must be {rule[1]}, got {text!r}")
        return cast(text)
    parse.__name__ = cast.__name__  # argparse names it when the cast fails
    return parse


def _at_least(low, cast):
    return _checked(cast, (lambda value: value >= low, f">= {low}"))


_FRACTION = _checked(float, FRACTION)
_LAMBDA = _checked(float, NON_NEGATIVE)


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", required=True, help="feature file to load")
    p.add_argument("--format", default="dense-csv", choices=FORMATS)


def _add_preproc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-center", dest="center", action="store_false",
                   help="skip mean-centering (fitted on the training side); "
                   "--pca-dim centers regardless; cv re-centers every fold on its fit "
                   "rows, so this flag does not change its result")
    p.add_argument("--zscore", action="store_true",
                   help="standardize columns (fitted on the training side)")
    p.add_argument("--pca-dim", type=_at_least(1, int), default=None,
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
    p.add_argument("--lambda", dest="lam", type=_LAMBDA, default=0.1)
    p.add_argument("--k-targets", type=_at_least(1, int), default=1)
    p.add_argument("--solver", default=SOLVER_PAPER, choices=SOLVERS)
    p.add_argument("--out", required=True, help="path for the model JSON")

    p = sub.add_parser("predict", help="classify a query file with a saved model "
                       "(its preprocessing is read from the model file)")
    _add_dataset_args(p)
    p.add_argument("--model", required=True, help="model JSON written by `fit`")
    p.add_argument("--queries", required=True, help="query feature file (same format)")
    p.add_argument("--k", type=_at_least(1, int), default=1)
    p.add_argument("--out", default=None, help="write predictions CSV here")

    p = sub.add_parser("hubness", help="N_k skewness per dissimilarity on one split")
    _add_dataset_args(p)
    _add_preproc_args(p)
    p.add_argument("--methods", type=lambda s: tuple(s.split(",")),
                   default=METHODS, help="comma list among " + ",".join(METHODS))
    p.add_argument("--lambda", dest="lam", type=_LAMBDA, default=0.1)
    p.add_argument("--k-targets", type=_at_least(1, int), default=1)
    p.add_argument("--solver", default=SOLVER_PAPER, choices=SOLVERS)
    p.add_argument("--k", type=_at_least(1, int), default=10)
    p.add_argument("--train-fraction", type=_FRACTION, default=0.7)
    p.add_argument("--seed", type=_at_least(0, int), default=0)
    p.add_argument("--out", default=None, help="write the CSV report here")
    p.add_argument("--json-out", default=None, help="write the JSON report here")

    p = sub.add_parser("cv", help="cross-validated grid search over lambda and k")
    _add_dataset_args(p)
    _add_preproc_args(p)
    p.add_argument("--direction", default=MOVE_LABELED, choices=METHODS)
    p.add_argument("--lambda-grid", type=_float_list,
                   default=experiment.DEFAULT_LAMBDA_GRID)
    p.add_argument("--k-grid", type=_int_list, default=experiment.DEFAULT_K_GRID)
    p.add_argument("--folds", type=_at_least(2, int), default=5)
    p.add_argument("--k-targets", type=_at_least(1, int), default=1)
    p.add_argument("--solver", default=SOLVER_PAPER, choices=SOLVERS)
    p.add_argument("--seed", type=_at_least(0, int), default=0)
    p.add_argument("--out", default=None, help="write the CvResult JSON here")

    p = sub.add_parser("centrality", help="simulate the spatial-centrality bias")
    p.add_argument("--d", type=_int_list, default=(300,))
    p.add_argument("--s", type=_float_list, default=(1.0,))
    p.add_argument("--gamma", type=_float_list, default=(1.0,))
    p.add_argument("--n", type=_at_least(1, int), default=100_000)
    p.add_argument("--seed", type=_at_least(0, int), default=0)
    p.add_argument("--out", default=None, help="write the JSON/CSV output here")

    p = sub.add_parser("bench", help="run the full experiment protocol")
    p.add_argument("--config", required=True, help="ExperimentConfig JSON file")
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument("--splits", type=_at_least(1, int), default=None, help="override n_splits")
    p.add_argument("--seed", type=_at_least(0, int), default=None,
                   help="override seeds with seed, seed+1, ...")
    p.add_argument("--train-fraction", type=_FRACTION, default=None)
    p.add_argument("--methods", type=lambda s: tuple(s.split(",")), default=None)

    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _csv(rows: list[dict]) -> str:
    """CSV text of ``rows``: the first row's keys, then each row's values through ``str``."""
    return "\n".join([",".join(rows[0])] + [",".join(map(str, r.values())) for r in rows]) + "\n"


def _emit(text: str, out) -> None:
    """Write ``text`` to ``out`` when given, and print it."""
    if out:
        Path(out).write_text(text)
    print(text, end="" if text.endswith("\n") else "\n")


def _cmd_fit(args) -> int:
    ds = load_dataset(args.dataset, args.format)
    prep = Preprocessor.fit(ds.features, center=args.center, zscore=args.zscore,
                            pca_dim=args.pca_dim)
    pre = replace(ds, features=prep.apply(ds.features))
    tm, jj, seconds = fit_timed(pre, args.method, args.lam, args.k_targets, args.solver)
    ModelArtifact(prep, tm, ds.label_names, training_record(ds)).save(args.out)
    summary = {"direction": tm.direction, "lambda": tm.lam, "solver": tm.solver,
               "d": tm.d, "n": pre.n, "training_seconds": seconds,
               "model_path": str(args.out)}
    if tm.direction == MOVE_LABELED:
        summary["solver_gap"] = solver_disagreement(pre.features.T, jj, tm)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_predict(args) -> int:
    art = ModelArtifact.load(args.model)
    train = load_dataset(args.dataset, args.format)
    art.preprocessor.check_dimension(train.d, "training features")
    art.check_training(train)
    if args.k > train.n:
        raise ValueError(f"--k must be at most the {train.n} training rows, got {args.k}")
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

    csv_text = _csv([{"query_index": i, "predicted_label": train.label_names[p_],
                      "true_label": train.label_names[t_]}
                     for i, (p_, t_) in enumerate(zip(preds, truth))])
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
    if args.k > sp.train_indices.size:  # before any preprocessing or fit
        raise ValueError(f"--k must be at most the {sp.train_indices.size} training rows, "
                         f"got {args.k}")
    pre = preprocess(ds, sp.train_indices, center=args.center,
                     zscore=args.zscore, pca_dim=args.pca_dim)
    train, queries = subset(pre, sp.train_indices), pre.features[sp.test_indices]
    plain = functools.partial(knn_from_transform, None, train.features, train.labels, args.k)
    rows = []
    for method in methods:
        tm = (None if method == EUCLIDEAN_METHOD
              else fit_timed(train, method, args.lam, args.k_targets, args.solver)[0])
        counts = nk_counts(fold_neighbors(tm, plain, train.features, train.labels, queries,
                                          args.k), train.n)
        rows.append({"method": method, "k": args.k, "skewness": skewness(counts),
                     "max_count": int(counts.max()), "mean_count": float(counts.mean())})
    _emit(_csv(rows), args.out)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(rows, indent=2, sort_keys=True))
    return 0


def _cmd_cv(args) -> int:
    cfg = CvConfig(args.lambda_grid, args.k_grid, args.folds, args.seed, args.k_targets,
                   args.solver)  # before any loading
    ds = load_dataset(args.dataset, args.format)
    pre = preprocess(ds, None, center=args.center, zscore=args.zscore,
                     pca_dim=args.pca_dim)
    result = grid_search(pre, np.arange(pre.n), cfg, [args.direction]).result(0)
    _emit(json.dumps(CvResult.JSON.encode(result), indent=2, sort_keys=True), args.out)
    return 0


def _cmd_centrality(args) -> int:
    cells = [(d, s, g) for d in args.d for s in args.s for g in args.gamma]
    try:  # every cell before the first draw; d, s and gamma errors begin with the flag's name
        exps = [CentralityExperiment(d=d, s=s, gamma=g, n_queries=args.n, seed=args.seed + i)
                for i, (d, s, g) in enumerate(cells)]
    except ValueError as e:
        raise ValueError(f"--{e}") from None
    results = []
    for exp in exps:
        r = simulate_delta(exp)
        results.append({"d": exp.d, "s": exp.s, "gamma": exp.gamma, "n_queries": args.n,
                        "delta_hat": r.delta_hat, "delta_theory": r.delta_theory,
                        "std_error": r.std_error})
    _emit(json.dumps(results[0], indent=2, sort_keys=True) if len(results) == 1
          else _csv(results), args.out)
    return 0


def _cmd_bench(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    n_splits = cfg.n_splits if args.splits is None else args.splits
    seeds = cfg.seeds
    if args.splits is not None or args.seed is not None:
        base = cfg.seeds[0] if args.seed is None else args.seed
        seeds = tuple(range(base, base + n_splits))
    given = {"out_dir": args.out, "train_fraction": args.train_fraction, "methods": args.methods}
    cfg = replace(cfg, n_splits=n_splits, seeds=seeds,
                  **{key: value for key, value in given.items() if value is not None})
    report = run_experiment(cfg)
    print(report.render_table(), end="")
    if cfg.out_dir:
        print(f"report written to {Path(cfg.out_dir) / 'report.json'}")
    return 0


def _check_outputs(args) -> None:
    """Reject an ``--out`` or ``--json-out`` whose directory does not exist, before any work."""
    for flag, path in (("--out", args.out), ("--json-out", getattr(args, "json_out", None))):
        if path is not None and not Path(path).parent.is_dir():
            raise ValueError(f"output {flag} {path}: directory {Path(path).parent} does not exist")


_COMMANDS = {"fit": _cmd_fit, "predict": _cmd_predict, "hubness": _cmd_hubness,
             "cv": _cmd_cv, "centrality": _cmd_centrality, "bench": _cmd_bench}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command != "bench":  # bench creates its --out directory
            _check_outputs(args)
        return _COMMANDS[args.command](args)
    except FileNotFoundError as e:
        print(f"error: file not found: {e.filename or e}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    except OSError as e:  # a directory, a file it may not read, a full disk
        print(f"error: {e.filename}: {e.strerror}" if e.filename else f"error: {e}",
              file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
