"""Shared test oracles and synthetic data generators.

Everything here is deliberately independent of the library's computation
paths: distances are per-pair differences, votes are explicit loops, the
ridge oracle minimizes the written objective with a generic optimizer, and
the file parsers read one row at a time.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import scipy.optimize

from hubridge.datamodel import DatasetFormatError


# ---------------------------------------------------------------------------
# Brute-force k-NN oracle
# ---------------------------------------------------------------------------

def oracle_sq_dist(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    return float((diff * diff).sum())


def oracle_dissimilarity_row(query, labeled, kind, matrix=None) -> np.ndarray:
    """Per-pair dissimilarities computed the slow, obvious way."""
    q = np.asarray(query, dtype=np.float64)
    out = np.empty(labeled.shape[0])
    for i, z in enumerate(labeled):
        if kind == "euclidean":
            out[i] = oracle_sq_dist(q, z)
        elif kind == "transformed-labeled":
            out[i] = oracle_sq_dist(q, matrix @ z)
        elif kind == "transformed-query":
            out[i] = oracle_sq_dist(matrix @ q, z)
        elif kind == "both-sides":
            out[i] = oracle_sq_dist(matrix @ q, matrix @ z)
        else:
            raise ValueError(kind)
    return out


def oracle_knn_indices(query, labeled, k, kind="euclidean", matrix=None) -> list[int]:
    """Full sort of all dissimilarities; ties broken by lower index."""
    d = oracle_dissimilarity_row(query, labeled, kind, matrix)
    order = sorted(range(len(d)), key=lambda i: (d[i], i))
    return order[:k]


def brute_force_targets(features, labels, k_targets):
    """Oracle: exhaustive same-class scan with (distance, index) sorting.

    Returns each object's chosen targets as a sorted index tuple, the row
    pattern of J.
    """
    out = []
    for i in range(len(features)):
        cands = [(oracle_sq_dist(features[i], features[j]), j)
                 for j in range(len(features))
                 if j != i and labels[j] == labels[i]]
        cands.sort()
        out.append(tuple(sorted(j for _, j in cands[:k_targets])))
    return out


def target_sets(jj):
    """Each row's target columns, ascending, from J."""
    assert jj.has_canonical_format and (jj.data == 1).all()
    return [tuple(int(c) for c in jj.indices[jj.indptr[i]:jj.indptr[i + 1]])
            for i in range(jj.shape[0])]


def oracle_vote(neighbor_labels: list[int]) -> int:
    """Majority vote; ties go to the nearest neighbor among the tied labels."""
    counts: dict[int, int] = {}
    for lab in neighbor_labels:
        counts[lab] = counts.get(lab, 0) + 1
    top = max(counts.values())
    tied = {lab for lab, c in counts.items() if c == top}
    for lab in neighbor_labels:
        if lab in tied:
            return lab
    raise AssertionError("unreachable")


def oracle_classify(query, labeled, labels, k, kind="euclidean", matrix=None) -> int:
    idx = oracle_knn_indices(query, labeled, k, kind, matrix)
    return oracle_vote([int(labels[i]) for i in idx])


# ---------------------------------------------------------------------------
# Ridge objective oracle (generic optimizer on the written objective)
# ---------------------------------------------------------------------------

def gd_minimize(x: np.ndarray, pairs: list[tuple[int, int]], lam: float,
                direction: str) -> np.ndarray:
    """Minimize the pairwise ridge objective numerically.

    direction 'move-labeled': sum over pairs (i, j) of ||x_i - W x_j||^2;
    direction 'move-query':   sum of ||W x_i - x_j||^2; both + lam ||W||_F^2.
    """
    d = x.shape[0]
    if direction == "move-labeled":
        a = x[:, [j for _, j in pairs]]  # regressors (mapped side)
        b = x[:, [i for i, _ in pairs]]  # responses
    elif direction == "move-query":
        a = x[:, [i for i, _ in pairs]]
        b = x[:, [j for _, j in pairs]]
    else:
        raise ValueError(direction)

    def fun_grad(wvec):
        w = wvec.reshape(d, d)
        resid = b - w @ a
        f = float((resid ** 2).sum() + lam * (w ** 2).sum())
        g = -2.0 * (resid @ a.T) + 2.0 * lam * w
        return f, g.ravel()

    res = scipy.optimize.minimize(
        fun_grad, np.zeros(d * d), jac=True, method="L-BFGS-B",
        options={"maxiter": 20000, "maxfun": 50000, "gtol": 1e-12, "ftol": 1e-16})
    return res.x.reshape(d, d)


def pairs_from_indicator(j) -> list[tuple[int, int]]:
    rows, cols = np.asarray(j.todense() if hasattr(j, "todense") else j).nonzero()
    return list(zip(rows.tolist(), cols.tolist()))


def regression_objective(x, j, w: np.ndarray, lam: float, direction: str) -> float:
    """Value of the fitted objective: sum of squared pair residuals + lam ||W||_F^2."""
    x = np.asarray(x, dtype=np.float64)
    rows, cols = (list(p) for p in zip(*pairs_from_indicator(j)))
    if direction == "move-labeled":
        resid = x[:, rows] - w @ x[:, cols]
    elif direction == "move-query":
        resid = w @ x[:, rows] - x[:, cols]
    else:
        raise ValueError(direction)
    return float((resid ** 2).sum() + lam * (w ** 2).sum())


def transform_points(model, points) -> np.ndarray:
    """Map each row x through the model's W: x -> W x."""
    p = np.asarray(points, dtype=np.float64)
    if p.shape[1] != model.d:
        raise ValueError(f"points have dimension {p.shape[1]}, W expects {model.d}")
    return p @ model.w.T


# ---------------------------------------------------------------------------
# Exact-arithmetic skewness oracle
# ---------------------------------------------------------------------------

def exact_skewness(counts) -> float:
    """Population skewness with rational central moments, floated at the end."""
    vals = [Fraction(int(c)) for c in counts]
    n = len(vals)
    mean = sum(vals) / n
    m2 = sum((v - mean) ** 2 for v in vals) / n
    m3 = sum((v - mean) ** 3 for v in vals) / n
    if m2 == 0:
        raise ZeroDivisionError("zero variance")
    return float(m3) / float(m2) ** 1.5


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

def gaussian_mixture(n: int, d: int, n_classes: int, sep: float, seed: int,
                     within_sd: float = 1.0):
    """Balanced spherical Gaussian mixture with random class means."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, sep, size=(n_classes, d))
    per = n // n_classes
    counts = [per + (1 if c < n % n_classes else 0) for c in range(n_classes)]
    feats, labels = [], []
    for c, m in enumerate(counts):
        feats.append(rng.normal(0.0, within_sd, size=(m, d)) + means[c])
        labels.append(np.full(m, c, dtype=np.int64))
    x = np.vstack(feats)
    y = np.concatenate(labels)
    perm = rng.permutation(n)
    return x[perm], y[perm]


def hetero_gaussian_mixture(n=3000, d=300, n_classes=10, sep=0.3,
                            std_range=(0.6, 1.6), seed=100):
    """Gaussian mixture with per-class variances spread over a range.

    The variance heterogeneity makes hubness bite: tight central classes
    hog neighbor lists, so the labeled-side transform helps and the
    query-side transform hurts, mirroring the high-dimensional benchmarks.
    """
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, sep, size=(n_classes, d))
    stds = rng.uniform(std_range[0], std_range[1], size=n_classes)
    per = n // n_classes
    feats, labels = [], []
    for c in range(n_classes):
        feats.append(rng.normal(0.0, stds[c], size=(per, d)) + means[c])
        labels.append(np.full(per, c, dtype=np.int64))
    x = np.vstack(feats)
    y = np.concatenate(labels)
    perm = rng.permutation(len(y))
    return x[perm], y[perm]


def write_dense_csv(path, features, labels) -> None:
    with open(path, "w") as fh:
        for row, lab in zip(features, labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",c{int(lab)}\n")


# ---------------------------------------------------------------------------
# Reference parsers, one row and one token at a time: the dense-csv row parse
# and the sparse-pairs block parse must give their features, labels and
# DatasetFormatError messages on every file
# ---------------------------------------------------------------------------

def _finite_or_raise(value: float, row: int, col: int) -> float:
    if not np.isfinite(value):
        raise DatasetFormatError(
            f"row {row}, column {col}: non-finite value {value!r}")
    return value


def parse_dense_csv(lines):
    """Features and label tokens of dense-csv (line number, text) pairs, one row at a time."""
    rows, tokens = [], []
    width = None
    for lineno, line in lines:
        fields = line.split(",")
        if len(fields) < 2:
            raise DatasetFormatError(
                f"row {lineno}: expected 'v1,...,vd,label', got {len(fields)} field(s)")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise DatasetFormatError(
                f"row {lineno}: expected {width} fields, got {len(fields)}")
        label = fields[-1].strip()
        if not label:
            raise DatasetFormatError(f"row {lineno}: empty label")
        values = []
        for col, tok in enumerate(fields[:-1], start=1):
            try:
                v = float(tok)
            except ValueError:
                raise DatasetFormatError(
                    f"row {lineno}, column {col}: cannot parse {tok.strip()!r} as a number") from None
            values.append(_finite_or_raise(v, lineno, col))
        rows.append(values)
        tokens.append(label)
    return np.array(rows, dtype=np.float64), tokens


def parse_sparse_pairs(lines):
    """Features and label tokens of sparse-pairs (line number, text) pairs, one row at a time."""
    entries, tokens = [], []
    d = 0
    for lineno, line in lines:
        fields = line.split()
        if ":" in fields[0]:
            raise DatasetFormatError(f"row {lineno}: missing label before 'idx:val' pairs")
        tokens.append(fields[0])
        row = {}
        for col, tok in enumerate(fields[1:], start=1):
            part = tok.split(":")
            if len(part) != 2:
                raise DatasetFormatError(
                    f"row {lineno}, pair {col}: expected 'idx:val', got {tok!r}")
            try:
                idx = int(part[0])
                v = float(part[1])
            except ValueError:
                raise DatasetFormatError(
                    f"row {lineno}, pair {col}: cannot parse {tok!r}") from None
            if idx < 1:
                raise DatasetFormatError(
                    f"row {lineno}, pair {col}: index {idx} is not 1-based")
            if idx in row:
                raise DatasetFormatError(
                    f"row {lineno}, pair {col}: duplicate index {idx}")
            row[idx] = _finite_or_raise(v, lineno, col)
            d = max(d, idx)
        entries.append(row)
    if d == 0:
        raise DatasetFormatError("no feature indices found in sparse-pairs file")
    features = np.zeros((len(entries), d), dtype=np.float64)
    for i, row in enumerate(entries):
        for idx, v in row.items():
            features[i, idx - 1] = v
    return features, tokens


# ---------------------------------------------------------------------------
# Reference train-slot allocation: round-robin passes, one slot per class each
# ---------------------------------------------------------------------------

def reference_train_counts(class_sizes: np.ndarray, fraction: float, total: int) -> np.ndarray:
    """Largest-remainder allocation of `total` train slots, at least 1 per class."""
    ideal = fraction * class_sizes
    counts = np.clip(np.floor(ideal).astype(np.int64), 1, class_sizes)
    remainder = ideal - np.floor(ideal)
    while counts.sum() < total:
        room = counts < class_sizes
        order = np.lexsort((np.arange(len(counts)), -remainder))
        grew = False
        for c in order:
            if room[c]:
                counts[c] += 1
                grew = True
                if counts.sum() == total:
                    break
        if not grew:
            raise ValueError("cannot allocate train slots")
    while counts.sum() > total:
        shrinkable = counts > 1
        order = np.lexsort((np.arange(len(counts)), remainder))
        shrank = False
        for c in order:
            if shrinkable[c]:
                counts[c] -= 1
                shrank = True
                if counts.sum() == total:
                    break
        if not shrank:
            raise ValueError("train size is smaller than the number of classes; cannot stratify")
    return counts


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def traced_peak(call, *args) -> int:
    """The tracemalloc peak, in bytes, of ``call(*args)`` above what was allocated before."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
