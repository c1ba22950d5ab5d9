"""Dataset representation, file ingestion, preprocessing and train/test splitting.

Feature files are UTF-8 text in two shapes: ``dense-csv`` (one object per
line, ``v1,v2,...,vd,label``) and ``sparse-pairs`` (``label idx:val idx:val
...`` with 1-based indices, densified on load). Labels are remapped to
contiguous integer ids in first-appearance order; the original tokens are
kept on the dataset for reporting. A dense-csv label may not be empty, and a
sparse-pairs label may not contain ``:`` (such a line starts with a pair and
has no label).

A file is never held whole: ``_data_lines`` reads it in blocks of whole lines
of at least 16 KiB, each cut after a line feed, decodes and splits one block at
a time, and yields each block's data rows as one list. A dense-csv file is
parsed row by row: one ``np.fromiter`` call reads a row's values through Python
``float`` into a row buffer that doubles when full and is cut to the row count
at the end, so the load holds at most about twice the matrix; only a row that
fails to parse or holds a non-finite value has its tokens walked to name the
column. A sparse-pairs file is parsed one read block at a time (a few thousand
tokens), as a whole file's token strings take several times the memory of the
matrix they fill; each block's numbers go through ``float`` (``int`` for
indices) in one ``np.fromiter`` call, and indices (1-based, none twice in a
row) and finiteness are checked once for the whole file. When a block or that
check fails, or a bad byte is met, a checker reads the file again from its
first row and returns the ``DatasetFormatError`` naming the first bad row and
pair. Both formats report faults in file order, a bad UTF-8 byte among them: a
format fault in row 2 is raised before a bad byte in row 5.

A fitted ``Preprocessor`` goes to and from JSON through its ``JSON`` record,
in the one codec (``_codec``).
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from ._arrays import (FRACTION, as_array, as_choice, as_count, as_ids, as_real, as_reals,
                      as_tuple, frozen)
from ._codec import INT, Record, array, nullable

DENSE_CSV = "dense-csv"
SPARSE_PAIRS = "sparse-pairs"
FORMATS = (DENSE_CSV, SPARSE_PAIRS)


class DatasetFormatError(ValueError):
    """A feature file could not be parsed under its declared format."""


class PreprocessError(ValueError):
    """A preprocessing step is undefined for the given data (e.g. constant column)."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    """Immutable labeled point set.

    features : (n, d) real matrix, rows are objects, stored as float64.
    labels : (n,) integer ids in [0, class_count); every class occurs.
    label_names : original label token per class id, a sequence of distinct str stored
        as a tuple; ``class_count`` is their number.
    """

    features: np.ndarray
    labels: np.ndarray
    label_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "label_names", as_tuple(self.label_names, "label_names",
                                                         as_choice, unique="name"))
        f = as_reals(self.features, "features")
        if not f.size:
            raise ValueError("features must be a non-empty 2-D matrix")
        y = as_ids(self.labels, "labels", self.class_count, (f.shape[0],))
        present = np.bincount(y, minlength=self.class_count)
        if (present == 0).any():
            missing = int(np.flatnonzero(present == 0)[0])
            raise ValueError(f"class id {missing} has no members")
        object.__setattr__(self, "features", frozen(f))
        object.__setattr__(self, "labels", frozen(y))

    @property
    def class_count(self) -> int:
        return len(self.label_names)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.class_count)


def dataset_from_arrays(features, labels, label_names: tuple[str, ...] | None = None) -> Dataset:
    """Build a Dataset from in-memory arrays with dense integer labels."""
    # Dataset freezes what it stores: a copy of an ndarray, a new array of anything else
    f = features.copy() if isinstance(features, np.ndarray) else features
    y = as_array(labels, "labels", 1).copy()
    if y.size == 0:
        raise ValueError("labels must be non-empty")
    if label_names is None:  # n rows hold at most n classes, which bounds the names made
        label_names = tuple(map(str, range(int(as_ids(y, "labels", y.size).max()) + 1)))
    return Dataset(f, y, label_names)


def subset(dataset: Dataset, indices) -> Dataset:
    """Row subset as a new Dataset. Every class must survive the selection."""
    idx = as_ids(indices, "indices", dataset.n, distinct=True)
    # an index array gathers fresh copies, which the new Dataset freezes
    return Dataset(dataset.features[idx], dataset.labels[idx], dataset.label_names)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

# bytes ``_data_lines`` reads at once; they bound the token strings a sparse-pairs
# parse holds: about 3,000 in a block of 0/1 bag-of-words pairs. Its file buffer holds
# four reads, as ``readlines`` takes a line longer than the buffer in many small copies.
_READ_BYTES = 1 << 14


def _data_lines(path: Path):
    """Yield the data lines of a UTF-8 file as one non-empty list of (row number, stripped
    text) per read block: ``readlines`` returns whole lines, each cut after its b"\\n",
    until they hold _READ_BYTES bytes or the file ends.

    Rows are numbered as ``str.splitlines`` numbers the whole text, and blank and ``#``
    lines are skipped. No multibyte character holds the byte b"\\n" and no ``\\r\\n`` pair
    spans a cut after one, so each block decodes and splits as it does in the whole
    text. A bad byte raises the error naming its row once every row before it is yielded.
    """
    row = 0
    with open(path, "rb", buffering=4 * _READ_BYTES) as file:
        while block := b"".join(file.readlines(_READ_BYTES)):
            try:
                lines, bad = block.decode("utf-8").splitlines(), None
            except UnicodeDecodeError as exc:
                # a character put in place of the bad byte lands on the row splitlines() gives it
                lines, bad = (block[:exc.start].decode("utf-8") + "x").splitlines()[:-1], exc.reason
            rows = [(i, text) for i, line in enumerate(lines, start=row + 1)
                    if (text := line.strip()) and not text.startswith("#")]
            row += len(lines)
            if rows:
                yield rows
            if bad:
                raise DatasetFormatError(f"row {row + 1}: not valid UTF-8 ({bad})")


def _dense_csv_rows(lines):
    """Features and label tokens of dense-csv (row number, line) pairs, parsed one row at a
    time into a buffer that grows to 2 c + 1 rows when its c rows are full and is cut to
    the rows read at the end (``ndarray.resize`` reallocates in place where it can)."""
    features, tokens, width = np.empty((0, 0)), [], None
    for i, (lineno, line) in enumerate(lines):
        fields = line.split(",")
        if len(fields) < 2:
            raise DatasetFormatError(
                f"row {lineno}: expected 'v1,...,vd,label', got {len(fields)} field(s)")
        width = width or len(fields)
        if len(fields) != width:
            raise DatasetFormatError(f"row {lineno}: expected {width} fields, got {len(fields)}")
        tokens.append(fields.pop().strip())
        if not tokens[-1]:
            raise DatasetFormatError(f"row {lineno}: empty label")
        if i == len(features):  # no view of the buffer outlives the statement that made it
            features.resize((2 * i + 1, width - 1), refcheck=False)
        try:
            features[i] = np.fromiter(map(float, fields), np.float64, width - 1)
        except ValueError:
            pass
        else:
            if np.isfinite(features[i]).all():
                continue
        # the row is bad: name its first unparsable or non-finite column
        for col, tok in enumerate(fields, start=1):
            where = f"row {lineno}, column {col}"
            try:
                v = float(tok)
            except ValueError:
                raise DatasetFormatError(
                    f"{where}: cannot parse {tok.strip()!r} as a number") from None
            if not np.isfinite(v):
                raise DatasetFormatError(f"{where}: non-finite value {v!r}")
    features.resize((len(tokens), width - 1), refcheck=False)
    return features, tokens


def _sparse_pairs_fault(path: Path) -> DatasetFormatError:
    """The error naming the first bad row and pair of a rejected sparse-pairs file, read
    again from its first row (a bad byte before any bad pair raises its own error).

    A file with no bad pair was rejected because its dense matrix cannot be
    allocated; the error names the first pair holding the largest index.
    """
    d, at, n = 0, None, 0
    for n, (lineno, line) in enumerate(chain.from_iterable(_data_lines(path)), start=1):
        fields = line.split()
        if ":" in fields[0]:
            return DatasetFormatError(f"row {lineno}: missing label before 'idx:val' pairs")
        seen = set()
        for col, tok in enumerate(fields[1:], start=1):
            part = tok.split(":")
            if len(part) != 2:
                return DatasetFormatError(
                    f"row {lineno}, pair {col}: expected 'idx:val', got {tok!r}")
            try:
                idx, v = int(part[0]), float(part[1])
            except ValueError:
                return DatasetFormatError(f"row {lineno}, pair {col}: cannot parse {tok!r}")
            if idx < 1:
                return DatasetFormatError(f"row {lineno}, pair {col}: index {idx} is not 1-based")
            if idx in seen:
                return DatasetFormatError(f"row {lineno}, pair {col}: duplicate index {idx}")
            if not np.isfinite(v):
                return DatasetFormatError(f"row {lineno}, column {col}: non-finite value {v!r}")
            seen.add(idx)
            if idx > d:
                d, at = idx, (lineno, col)
    return DatasetFormatError(f"row {at[0]}, pair {at[1]}: index {d} is too large; a dense "
                              f"{n} x {d} matrix does not fit in memory")


def _sparse_pairs_blocks(blocks, path: Path):
    """Features and label tokens of sparse-pairs blocks of (row number, line) pairs, each
    parsed whole; any fault has the file at ``path`` walked again to name the first bad row."""
    rows, idx, vals, tokens = [], [], [], []
    try:
        for block in blocks:
            fields = [line.split() for _, line in block]
            labels = [f.pop(0) for f in fields]
            pairs = list(chain.from_iterable(fields))
            # a block of labels alone has no parts ("".split(":") would give one)
            parts = ":".join(pairs).split(":") if pairs else []
            # one ':' in every pair: at least one in each, and as many in all as there are pairs
            if (any(":" in label for label in labels) or len(parts) != 2 * len(pairs)
                    or not all(":" in pair for pair in pairs)):
                raise ValueError("a label holds ':' or a pair does not hold one")
            idx.append(np.fromiter(map(int, parts[0::2]), np.int64, len(pairs)))
            vals.append(np.fromiter(map(float, parts[1::2]), np.float64, len(pairs)))
            rows.append(np.repeat(np.arange(len(tokens), len(tokens) + len(fields)),
                                  list(map(len, fields))))
            tokens += labels
    except (ValueError, OverflowError):  # a bad byte's DatasetFormatError is a ValueError too
        raise _sparse_pairs_fault(path) from None
    rows, idx, vals = (np.concatenate(a) for a in (rows, idx, vals))
    if not idx.size:
        raise DatasetFormatError("no feature indices found in sparse-pairs file")
    d = int(idx.max())
    try:
        features = np.zeros((len(tokens), d))
    except (ValueError, MemoryError):
        raise _sparse_pairs_fault(path) from None
    # for 1-based indices, row * d + idx - 1 is one-to-one on (row, idx) and
    # below the size of the matrix just allocated, so it does not wrap around
    flat = np.sort(rows * d + (idx - 1))
    if idx.min() < 1 or not np.isfinite(vals).all() or (flat[1:] == flat[:-1]).any():
        raise _sparse_pairs_fault(path)
    features[rows, idx - 1] = vals
    return features, tokens


def load_dataset(path, fmt: str) -> Dataset:
    """Load a UTF-8 feature file; labels are remapped to dense ids in first-appearance order."""
    as_choice(fmt, "fmt", FORMATS)
    path = Path(path)
    with closing(_data_lines(path)) as blocks:
        first = next(blocks, None)
        if first is None:
            raise DatasetFormatError(f"{path}: file contains no data rows")
        blocks = chain([first], blocks)
        features, tokens = (_dense_csv_rows(chain.from_iterable(blocks)) if fmt == DENSE_CSV
                            else _sparse_pairs_blocks(blocks, path))

    names = tuple(dict.fromkeys(tokens))
    id_of = {name: i for i, name in enumerate(names)}
    labels = np.fromiter(map(id_of.__getitem__, tokens), np.int64, len(tokens))
    return Dataset(features, labels, names)


def bundled_dataset_path(name: str) -> Path:
    """Path to a dataset file shipped with the package (e.g. ``iris``)."""
    from importlib.resources import files
    p = files("hubridge").joinpath("data", f"{name}.csv")
    return Path(str(p))


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

def column_mean_sd(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and sample standard deviation; rejects constant columns."""
    mean = features.mean(axis=0)
    if features.shape[0] < 2:
        raise PreprocessError("z-scoring needs at least 2 rows")
    sd = features.std(axis=0, ddof=1)
    bad = np.flatnonzero(sd == 0.0)
    if bad.size:
        raise PreprocessError(
            f"column {int(bad[0])} is constant; z-score is undefined")
    return mean, sd


@dataclass(frozen=True)
class Preprocessor:
    """Fitted feature preprocessing: z-score, then center, then project.

    Each step is optional. ``zscore_mean``/``zscore_sd`` standardize the
    columns, ``center_mean`` is then subtracted, and the rows are multiplied
    last by ``components``, a (d_in, r) matrix of orthonormal principal axes.
    A PCA fit always sets ``center_mean``, since its axes are those of the
    centered training rows. ``d_in`` is the feature dimension the statistics
    were fitted on; applying the preprocessor to any other dimension is an error.
    """

    d_in: int
    zscore_mean: np.ndarray | None = None
    zscore_sd: np.ndarray | None = None
    center_mean: np.ndarray | None = None
    components: np.ndarray | None = None

    def __post_init__(self):
        d = as_count(self.d_in, "d_in", 1)
        if (self.zscore_mean is None) != (self.zscore_sd is None):
            raise ValueError("zscore_mean and zscore_sd must be given together")
        for name in ("zscore_mean", "zscore_sd", "center_mean", "components"):
            if getattr(self, name) is None:
                continue
            rank = 2 if name == "components" else 1
            v = as_reals(getattr(self, name), name, rank)
            if v.shape[0] != d or not v.size:
                raise ValueError(f"{name} must have length d_in = {d}" if rank == 1 else
                                 f"components must be d_in x r with d_in = {d}, r >= 1")
            object.__setattr__(self, name, frozen(v))
        sd = self.zscore_sd
        if sd is not None and not (sd > 0).all():
            bad = int(np.argmin(sd > 0))
            raise ValueError(f"zscore_sd must be positive; column {bad} is {float(sd[bad])}")
        if self.components is not None and self.center_mean is None:
            raise ValueError("components need a center_mean: the principal axes are "
                             "those of the centered training rows")

    @property
    def d_out(self) -> int:
        return self.d_in if self.components is None else self.components.shape[1]

    @classmethod
    def fit(cls, features, *, center: bool = True, zscore: bool = False,
            pca_dim: int | None = None) -> "Preprocessor":
        """Fit every enabled step on ``features``, each on the previous step's output.

        ``pca_dim`` keeps that many principal axes, from one thin SVD of the
        centered rows, ordered by non-increasing explained variance, each with
        its largest-magnitude entry positive. Centered rows have rank at most
        n - 1, so ``pca_dim`` must lie in [1, min(n - 1, d)].
        """
        x = as_reals(features, "features")
        n, d = x.shape
        zscore_mean = zscore_sd = center_mean = components = None
        if zscore:
            zscore_mean, zscore_sd = column_mean_sd(x)
            x = (x - zscore_mean) / zscore_sd
        if center or pca_dim is not None:
            center_mean = x.mean(axis=0)
        if pca_dim is not None:
            pca_dim = as_count(pca_dim, "pca_dim", -np.inf)  # the range, named just below
            if not 1 <= pca_dim <= min(n - 1, d):
                raise ValueError(f"pca_dim must be in [1, min(n - 1, d)] = "
                                 f"[1, {min(n - 1, d)}], got {pca_dim}")
            _, _, vt = np.linalg.svd(x - center_mean, full_matrices=False)
            components = vt[:pca_dim].T.copy()
            anchor = np.abs(components).argmax(axis=0)
            components *= np.where(components[anchor, np.arange(pca_dim)] < 0, -1.0, 1.0)
        return cls(d, zscore_mean, zscore_sd, center_mean, components)

    def check_dimension(self, d: int, name: str) -> None:
        if d != self.d_in:
            raise ValueError(f"{name} have dimension {d}; the preprocessor's d_in is {self.d_in}")

    def apply(self, features, name: str = "features") -> np.ndarray:
        """The fitted steps applied to an (n, d_in) matrix, as a C-contiguous matrix."""
        x = as_reals(features, name)
        self.check_dimension(x.shape[1], name)
        if self.zscore_mean is not None:
            x = (x - self.zscore_mean) / self.zscore_sd
        if self.center_mean is not None:
            x = x - self.center_mean
        if self.components is not None:
            x = x @ self.components
        return x

    JSON = Record("preprocessor", (
        ("d_in", "d_in", INT), ("zscore_mean", "zscore_mean", nullable(array(1))),
        ("zscore_sd", "zscore_sd", nullable(array(1))),
        ("center_mean", "center_mean", nullable(array(1))),
        ("components", "components", nullable(array(2)))))


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Split:
    """Disjoint train/test partition of distinct row indices, stored as int64, with the
    seed that generated it."""

    train_indices: np.ndarray
    test_indices: np.ndarray
    seed: int

    def __post_init__(self):
        for name in ("train_indices", "test_indices"):
            object.__setattr__(self, name, frozen(as_ids(getattr(self, name), name, distinct=True)))
        if np.intersect1d(self.train_indices, self.test_indices).size:
            raise ValueError("train and test indices overlap")
        object.__setattr__(self, "seed", as_count(self.seed, "seed", 0))


def _allocate_train_counts(class_sizes: np.ndarray, fraction: float, total: int) -> np.ndarray:
    """Largest-remainder allocation of `total` train slots, at least 1 per class.

    Under ``split``'s checks each floor has room for one more slot and the floors
    fall short of ``total`` by at most the class count, so one step tops them up.
    Floors raised to 1 can overshoot; each trim pass then takes a slot from every
    class above 1, smallest remainder first.
    """
    ideal = fraction * class_sizes
    counts = np.maximum(np.floor(ideal).astype(np.int64), 1)
    remainder = ideal - np.floor(ideal)
    index = np.arange(len(counts))
    counts[np.lexsort((index, -remainder))[:max(total - counts.sum(), 0)]] += 1
    order = np.lexsort((index, remainder))
    while (excess := counts.sum() - total) > 0:
        counts[order[counts[order] > 1][:excess]] -= 1
    return counts


def split(dataset: Dataset, train_fraction: float, seed: int) -> Split:
    """Stratified random train/test split, reproducible from the seed."""
    seed = as_count(seed, "seed", 0)
    train_fraction = as_real(train_fraction, "train_fraction", FRACTION)
    sizes = dataset.class_sizes()
    small = np.flatnonzero(sizes < 2)
    if small.size:
        c = int(small[0])
        raise ValueError(
            f"class {dataset.label_names[c]!r} has {int(sizes[c])} member(s); need >= 2")
    n = dataset.n
    total = int(round(train_fraction * n))
    if total == n:
        raise ValueError(f"train_fraction {train_fraction} leaves no test rows out of {n}")
    if total < dataset.class_count:
        raise ValueError(
            f"train partition of size {total} cannot contain all "
            f"{dataset.class_count} classes")
    counts = _allocate_train_counts(sizes, train_fraction, total)

    rng = np.random.default_rng(seed)
    train_parts = []
    for c in range(dataset.class_count):
        members = np.flatnonzero(dataset.labels == c)
        perm = rng.permutation(members)
        train_parts.append(perm[: counts[c]])
    train = np.sort(np.concatenate(train_parts))
    return Split(train, np.setdiff1d(np.arange(n), train), seed)
