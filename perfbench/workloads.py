"""The benchmark's workloads, their input generators, runners and correctness checks.

Each workload makes its inputs from the seed (``prepare``, which writes them
in a child process so that the generators' memory never counts towards
``peak_rss_mb``), builds what the first timed call needs (``setup``, timed
as ``setup_s``), repeats one timed operation (``op``) and then checks the
outputs (``check``). The benchmark calls hubridge only through module
attributes (``experiment.fit_timed``, not a local binding) so that a traced
run sees every call.

* cv_protocol - ROADMAP W1: the whole CV protocol on the acceptance data.
* fit_large   - ROADMAP W2: one large move-labeled fit (criterion 8 data).
* query_dense - ROADMAP W3: 64-query batches against a fitted model.
* query_ties  - W3 on binary bag-of-words data whose k-th neighbor ties.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hubridge import datamodel, experiment, knn
from hubridge.transform import MOVE_LABELED, SOLVER_PAPER

import oracle
from spans import Tracer, unit_of

SETUP_REPEATS = 5  # set-ups timed per untraced run; a workload may set its own
SETUPS_FIRST = 1  # of those, how many run before the first operation
REFERENCE_PATH = Path(__file__).resolve().parent / "cv_reference.json"
MAKE_INPUTS = Path(__file__).resolve().parent / "make_inputs.py"


# ---------------------------------------------------------------------------
# Input generators (seeded; the program only ever sees their output)
# ---------------------------------------------------------------------------

def hetero_gaussian_mixture(n: int, d: int, n_classes: int, seed: int,
                            sep: float = 0.3, std_range=(0.6, 1.6)):
    """Gaussian classes with spread-out variances; seed 100 is the acceptance data."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, sep, size=(n_classes, d))
    stds = rng.uniform(std_range[0], std_range[1], size=n_classes)
    per = n // n_classes
    x = np.vstack([rng.normal(0.0, stds[c], size=(per, d)) + means[c]
                   for c in range(n_classes)])
    y = np.repeat(np.arange(n_classes, dtype=np.int64), per)
    perm = rng.permutation(y.size)
    return x[perm], y[perm]


def class_mixture(n: int, n_extra: int, d: int, n_classes: int, seed: int, sep: float):
    """Unit-variance classes around N(0, sep) means: n rows, then n_extra more.

    The first n rows are the acceptance criterion-8 data when seed is 1008
    and sep is 0.5.
    """
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, sep, (n_classes, d))
    y = (np.arange(n) % n_classes).astype(np.int64)
    x = rng.normal(0.0, 1.0, (n, d)) + means[y]
    y_extra = (np.arange(n_extra) % n_classes).astype(np.int64)
    x_extra = rng.normal(0.0, 1.0, (n_extra, d)) + means[y_extra]
    return x, y, x_extra, y_extra


def binary_bag_of_words(n: int, d: int, n_classes: int, seed: int,
                        topic_words: int = 30, p_topic: float = 0.2, p_base: float = 0.03):
    """0/1 word-presence rows; each class favours its own random set of words."""
    rng = np.random.default_rng(seed)
    probs = np.full((n_classes, d), p_base)
    for c in range(n_classes):
        probs[c, rng.choice(d, topic_words, replace=False)] = p_topic
    y = rng.integers(0, n_classes, size=n)
    x = (rng.random((n, d)) < probs[y]).astype(np.float64)
    return x, y


def write_dense_csv(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row, lab in zip(x, y):
            fh.write(",".join(repr(float(v)) for v in row) + f",c{int(lab)}\n")


def write_sparse_pairs(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row, lab in zip(x, y):
            pairs = " ".join(f"{j + 1}:{int(row[j])}" for j in np.flatnonzero(row))
            fh.write(f"c{int(lab)} {pairs}\n")


def save_arrays(workdir: Path, name: str, x: np.ndarray, y: np.ndarray) -> None:
    np.save(workdir / f"{name}_x.npy", x)
    np.save(workdir / f"{name}_y.npy", y)


def load_arrays(workdir: Path, name: str) -> tuple[np.ndarray, np.ndarray]:
    return np.load(workdir / f"{name}_x.npy"), np.load(workdir / f"{name}_y.npy")


def write_inputs_in_child(workload, seed: int, workdir: Path) -> None:
    """Run ``workload.write_inputs(seed, workdir)`` in a child process and wait for it to end.

    ``subprocess.run`` kills and reaps the child if this process is
    interrupted, and starts no helper process of its own.
    """
    spec = {"workload": workload.name, "fields": dataclasses.asdict(workload),
            "seed": seed, "workdir": str(workdir)}
    subprocess.run([sys.executable, str(MAKE_INPUTS), json.dumps(spec)], check=True)


# ---------------------------------------------------------------------------
# Outcome of the checks
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    """Correctness checks (name, passed) plus quality figures to print, name -> (value, unit).

    Accuracy and skewness follow the seed's data (cv_protocol's move-labeled
    accuracy spans 0.42-0.72 over seeds 0-9), so they are printed, not
    bounded; the checks hold the program to exact results instead.
    """

    checks: list[tuple[str, bool]]
    printed: dict[str, tuple[float, str]] = field(default_factory=dict)


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = int(np.ceil(p / 100.0 * len(ordered)))
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


# ---------------------------------------------------------------------------
# cv_protocol
# ---------------------------------------------------------------------------

@dataclass
class CvProtocol:
    name = "cv_protocol"
    # One protocol run outlasts --seconds, so set-ups cannot be spread among
    # the runs: half come before it and half after, ~50 s apart.
    setup_repeats = 8
    setups_first = 4
    n: int = 3000
    d: int = 300
    n_classes: int = 10
    splits: int = 4
    folds: int = 5
    lambda_grid: tuple[float, ...] = experiment.DEFAULT_LAMBDA_GRID
    k_grid: tuple[int, ...] = experiment.DEFAULT_K_GRID

    def trace_ops(self, seconds: int) -> int:
        return 1

    def fingerprint(self) -> dict:
        return {"n": self.n, "d": self.d, "n_classes": self.n_classes,
                "splits": self.splits, "folds": self.folds,
                "lambda_grid": list(self.lambda_grid), "k_grid": list(self.k_grid)}

    def write_inputs(self, seed: int, workdir: Path) -> None:
        x, y = hetero_gaussian_mixture(self.n, self.d, self.n_classes, 100 + seed)
        write_dense_csv(workdir / "cv_protocol.csv", x, y)

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.path = workdir / "cv_protocol.csv"
        write_inputs_in_child(self, seed, workdir)
        self.config = experiment.ExperimentConfig(
            dataset_path=str(self.path), n_splits=self.splits,
            seeds=tuple(range(1, self.splits + 1)), lambda_grid=self.lambda_grid,
            k_grid=self.k_grid, cv_folds=self.folds)

    def setup(self):
        return datamodel.load_dataset(self.path, datamodel.DENSE_CSV)

    def op(self, dataset, i: int):
        return experiment.run_experiment(self.config, dataset)

    def check(self, dataset, outputs) -> Verdict:
        reports = [out for _, out in outputs]
        fields = [report_fields(r) for r in reports]
        checks = [("repeat_identical", f == fields[0]) for f in fields[1:]]
        checks.append(("report_shape", len(reports[0].rows) == 3 * self.splits))
        ref = load_reference(self.fingerprint()).get(str(self.seed))
        if ref is not None:
            checks.append(("committed_reference", fields_match(ref, fields[0])))
        row = next(r for r in reports[0].rows if r.method == MOVE_LABELED)
        checks.append(("oracle_move_labeled_row", oracle_row_matches(dataset, self.config, row)))
        agg = {a.method: a for a in reports[0].aggregates}
        printed = {"accuracy": (agg[MOVE_LABELED].mean_accuracy, "share"),
                   "n10_skew": (agg[MOVE_LABELED].mean_skewness, "skew")}
        for method, a in agg.items():
            printed[f"{method}.accuracy"] = (a.mean_accuracy, "share")
            printed[f"{method}.n10_skew"] = (a.mean_skewness, "skew")
        return Verdict(checks, printed)


def report_fields(report) -> dict:
    """The report's rows and aggregates without timing fields (criterion 10's view)."""
    doc = report.to_json_dict()
    out = {}
    for part in ("rows", "aggregates"):
        out[part] = [{k: v for k, v in item.items() if k not in experiment.TIMING_FIELDS}
                     for item in doc[part]]
    return out


def fields_match(ref, got, rel: float = 1e-9) -> bool:
    """Every field of ``ref`` is present in ``got`` with an equal value (floats to rel)."""
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(
            k in got and fields_match(v, got[k], rel) for k, v in ref.items())
    if isinstance(ref, list):
        return isinstance(got, list) and len(ref) == len(got) and all(
            fields_match(a, b, rel) for a, b in zip(ref, got))
    if isinstance(ref, float) and isinstance(got, (int, float)):
        return abs(ref - got) <= rel * max(abs(ref), 1.0)
    return ref == got


def load_reference(fingerprint: dict) -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    doc = json.loads(REFERENCE_PATH.read_text())
    return doc["seeds"] if doc["workload"] == fingerprint else {}


def oracle_row_matches(dataset, config, row) -> bool:
    """Recompute one move-labeled report row with the independent oracle."""
    sp = datamodel.split(dataset, config.train_fraction, row.split_seed)
    x, y = dataset.features, dataset.labels
    mu = x[sp.train_indices].mean(axis=0)
    x_tr, y_tr = x[sp.train_indices] - mu, y[sp.train_indices]
    x_te, y_te = x[sp.test_indices] - mu, y[sp.test_indices]
    targets = oracle.same_class_targets(x_tr, y_tr, config.k_targets)
    w = oracle.move_labeled_w(x_tr, oracle.indicator(targets, len(y_tr)), row.lam)
    order = oracle.knn_order(x_te, x_tr @ w.T, max(row.k, config.hubness_k))
    accuracy = float(np.mean(oracle.vote(y_tr[order[:, :row.k]]) == y_te))
    skew = oracle.skewness(np.bincount(order[:, :config.hubness_k].ravel(), minlength=len(y_tr)))
    return (abs(accuracy - row.accuracy) < 1e-12
            and abs(skew - row.n10_skewness) <= 1e-9 * max(1.0, abs(skew)))


# ---------------------------------------------------------------------------
# fit_large
# ---------------------------------------------------------------------------

@dataclass
class FitLarge:
    name = "fit_large"
    setup_repeats = SETUP_REPEATS
    setups_first = SETUPS_FIRST
    n: int = 10_000
    d: int = 300
    n_classes: int = 10
    lam: float = 0.1

    def trace_ops(self, seconds: int) -> int:
        return max(1, seconds)

    def write_inputs(self, seed: int, workdir: Path) -> None:
        x, y, _, _ = class_mixture(self.n, 0, self.d, self.n_classes, 1008 + seed, sep=0.5)
        save_arrays(workdir, self.name, x, y)

    def prepare(self, seed: int, workdir: Path) -> None:
        write_inputs_in_child(self, seed, workdir)
        self.x, self.y = load_arrays(workdir, self.name)

    def setup(self):
        ds = datamodel.dataset_from_arrays(self.x, self.y)
        self.op(ds, -1)  # first-call warm-up
        return ds

    def op(self, ds, i: int):
        tm, jj, _ = experiment.fit_timed(ds, MOVE_LABELED, self.lam, 1, SOLVER_PAPER)
        return tm, jj

    def check(self, ds, outputs) -> Verdict:
        tm, jj = outputs[0][1]
        residual = oracle.normal_equation_residual(ds.features, jj, tm.w, self.lam)
        rows, cols = jj.nonzero()
        targets_ok = (np.array_equal(np.sort(rows), np.arange(ds.n)) and
                      not (rows == cols).any() and
                      np.array_equal(ds.labels[rows], ds.labels[cols]))
        w_norm = np.linalg.norm(tm.w)
        checks = [("normal_equation_residual", residual < 1e-8),
                  ("one_same_class_target_each", bool(targets_ok))]
        checks += [("repeat_identical", np.linalg.norm(t.w - tm.w) <= 1e-12 * w_norm)
                   for _, (t, _) in outputs[1:]]
        return Verdict(checks, {"residual": (residual, "ratio")})


# ---------------------------------------------------------------------------
# query_dense and query_ties
# ---------------------------------------------------------------------------

@dataclass
class QueryState:
    model: knn.KnnModel
    pool: np.ndarray
    truth: np.ndarray


@dataclass
class QueryWorkload:
    """64-query ``classify_batch`` calls cycling over a fixed query pool."""

    setup_repeats = SETUP_REPEATS
    setups_first = SETUPS_FIRST
    n_labeled: int = 10_000
    n_queries: int = 2048
    d: int = 300
    n_classes: int = 10
    k: int = 10
    batch: int = 64
    oracle_rows: int = 128
    batches_per_trace_second: int = 25

    def trace_ops(self, seconds: int) -> int:
        return max(1, self.batches_per_trace_second * seconds)

    def op(self, state: QueryState, i: int):
        lo = (i * self.batch) % self.n_queries
        return knn.classify_batch(state.model, state.pool[lo:lo + self.batch])

    def warm_up(self, state: QueryState) -> QueryState:
        self.op(state, 0)
        return state

    def check(self, state: QueryState, outputs) -> Verdict:
        per_cycle = self.n_queries // self.batch
        first = {}
        for i, preds in outputs:
            first.setdefault(i % per_cycle, preds)
        checks = [("repeat_identical", np.array_equal(preds, first[i % per_cycle]))
                  for i, preds in outputs if first[i % per_cycle] is not preds]
        covered = sorted(first)
        rows = np.concatenate([np.arange(b * self.batch, (b + 1) * self.batch) for b in covered])
        preds = np.concatenate([first[b] for b in covered])
        sample = np.unique(np.linspace(0, rows.size - 1, min(self.oracle_rows, rows.size)).astype(int))
        order = oracle.knn_order(state.pool[rows[sample]], state.model.labeled_points, self.k)
        want = oracle.vote(state.model.labels[order])
        got_order = knn.neighbor_index_matrix(state.model, state.pool[rows[sample]])
        checks += [("oracle_prediction", bool(ok)) for ok in preds[sample] == want]
        checks += [("oracle_neighbors", bool(ok)) for ok in (got_order == order).all(axis=1)]
        return Verdict(checks, {"accuracy": (float(np.mean(preds == state.truth[rows])), "share")})


@dataclass
class QueryDense(QueryWorkload):
    name = "query_dense"
    lam: float = 0.1

    def write_inputs(self, seed: int, workdir: Path) -> None:
        # Closer classes than fit_large's, so accuracy stays informative (~0.89).
        x, y, q, q_y = class_mixture(self.n_labeled, self.n_queries, self.d,
                                     self.n_classes, 3000 + seed, sep=0.2)
        save_arrays(workdir, self.name, np.vstack([x, q]), np.concatenate([y, q_y]))

    def prepare(self, seed: int, workdir: Path) -> None:
        write_inputs_in_child(self, seed, workdir)
        self.x, self.y = load_arrays(workdir, self.name)

    def setup(self) -> QueryState:
        ds = datamodel.dataset_from_arrays(self.x, self.y)
        labeled = np.arange(self.n_labeled)
        pre = experiment.preprocess(ds, labeled)
        train = datamodel.subset(pre, labeled)
        tm, _, _ = experiment.fit_timed(train, MOVE_LABELED, self.lam, 1, SOLVER_PAPER)
        model = knn.knn_from_transform(tm, train.features, train.labels, self.k)
        return self.warm_up(QueryState(model, pre.features[self.n_labeled:],
                                       pre.labels[self.n_labeled:]))


@dataclass
class QueryTies(QueryWorkload):
    name = "query_ties"
    setup_repeats = 9  # a short set-up, mostly parsing: 9 take less time than 5 elsewhere
    setups_first = SETUPS_FIRST

    def write_inputs(self, seed: int, workdir: Path) -> None:
        x, y = binary_bag_of_words(self.n_labeled + self.n_queries, self.d,
                                   self.n_classes, 5000 + seed)
        write_sparse_pairs(workdir / "query_ties.txt", x, y)

    def prepare(self, seed: int, workdir: Path) -> None:
        self.path = workdir / "query_ties.txt"
        write_inputs_in_child(self, seed, workdir)

    def setup(self) -> QueryState:
        ds = datamodel.load_dataset(self.path, datamodel.SPARSE_PAIRS)
        nl = self.n_labeled
        model = knn.build_knn_model(ds.features[:nl], ds.labels[:nl], self.k,
                                    knn.Dissimilarity.euclidean())
        return self.warm_up(QueryState(model, ds.features[nl:], ds.labels[nl:]))


WORKLOADS = {w.name: w for w in (CvProtocol, FitLarge, QueryDense, QueryTies)}


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def _op(workload, state, i: int, times: list, outputs: list) -> int:
    """Run and time operation ``i``; returns 1 if it raised, else 0."""
    t0 = time.perf_counter()
    try:
        out = workload.op(state, i)
    except Exception:  # counted as a failed operation; the run goes on
        traceback.print_exc(file=sys.stderr)
        return 1
    times.append(time.perf_counter() - t0)
    outputs.append((i, out))
    return 0


def _timed_setup(workload, setup_s: list):
    gc.collect()
    t0 = time.perf_counter()
    state = workload.setup()
    setup_s.append(time.perf_counter() - t0)
    gc.collect()
    return state


def _tally(verdict: Verdict, n_ops: int, errors: int) -> tuple[int, int]:
    failed_checks = [name for name, ok in verdict.checks if not ok]
    for name in sorted(set(failed_checks)):
        print(f"check failed: {name} x{failed_checks.count(name)}", file=sys.stderr)
    return n_ops + errors + len(verdict.checks), errors + len(failed_checks)


def run_untraced(workload, seed: int, seconds: int, workdir: Path) -> dict:
    """End-to-end metrics: operations for ``seconds`` of operation time, set-ups among them.

    The first ``workload.setups_first`` set-ups run before the first
    operation. After that, set-up ``j`` of ``r = workload.setup_repeats``
    runs once the operations have taken ``j / r`` of ``seconds``, and those
    still due run after the last operation. So set-up and operation samples
    cover the same stretch of the run, and a few slow seconds of the host do
    not decide either median.
    At least one operation runs.
    """
    workload.prepare(seed, workdir)
    setup_s, times, outputs = [], [], []
    state = None
    for _ in range(workload.setups_first):
        state = None  # release the previous set-up before building the next
        state = _timed_setup(workload, setup_s)
    errors = i = 0
    op_clock = 0.0
    repeats = workload.setup_repeats
    while i == 0 or op_clock < seconds:
        if len(setup_s) < repeats and op_clock >= len(setup_s) * seconds / repeats:
            state = None  # release the previous set-up before building the next
            state = _timed_setup(workload, setup_s)
        t0 = time.perf_counter()
        errors += _op(workload, state, i, times, outputs)
        op_clock += time.perf_counter() - t0
        i += 1
    while len(setup_s) < repeats:
        state = None
        state = _timed_setup(workload, setup_s)
    if not outputs:
        raise RuntimeError(f"every {workload.name} operation failed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the oracle runs
    verdict = workload.check(state, outputs)
    attempted, failed = _tally(verdict, len(times), errors)
    p50 = statistics.median(times)
    tail = high_percentile(times)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    text = {"ops": (len(times), "count"), "setups": (len(setup_s), "count"), "error_rate": (failed / attempted, "share"),
            **verdict.printed}
    if isinstance(workload, QueryWorkload):
        text.update({"queries_per_s": (workload.batch * len(times) / sum(times), "1/s"),
                     "batch_p50_ms": (p50 * 1e3, "ms")})
        if tail is not None:
            text[f"batch_p{tail[0]:g}_ms"] = (tail[1] * 1e3, "ms")
    elif isinstance(workload, FitLarge):
        text["fit_p50_s"] = (p50, "s")
    else:
        text["protocol_s"] = (p50, "s")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "text": text}


def run_traced(workload, seed: int, seconds: int, workdir: Path) -> dict:
    """Per-layer metrics from a fixed amount of work, run untraced and then traced.

    Both passes do one set-up plus ``trace_ops(seconds)`` operations, so
    per-layer totals compare across commits; a warm-up set-up comes first so
    that neither pass pays first-call costs alone. trace.overhead_s is the
    traced pass's wall time minus the untraced one's.
    """
    workload.prepare(seed, workdir)
    count = workload.trace_ops(seconds)

    def one_pass():
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup()
        outputs = []
        errors = sum(_op(workload, state, i, [], outputs) for i in range(count))
        if not outputs:
            raise RuntimeError(f"every {workload.name} operation failed")
        return time.perf_counter() - t0, state, outputs, errors

    workload.setup()
    untraced_s = one_pass()[0]
    tracer = Tracer()
    with tracer.installed():
        traced_s, state, outputs, errors = one_pass()
    verdict = workload.check(state, outputs)
    attempted, failed = _tally(verdict, len(outputs), errors)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: (float(v), unit_of(k)) for k, v in metrics.items()},
            "text": {"ops": (count, "count"), "traced_s": (traced_s, "s"),
                     "untraced_s": (untraced_s, "s"),
                     "error_rate": (failed / attempted, "share")}}
