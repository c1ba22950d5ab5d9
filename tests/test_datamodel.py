import json
import re
from contextlib import contextmanager, nullcontext
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hubridge import datamodel
from hubridge.datamodel import (Dataset, DatasetFormatError, PreprocessError,
                                Preprocessor, bundled_dataset_path, dataset_from_arrays,
                                load_dataset, split, subset)

from _helpers import (parse_dense_csv, parse_sparse_pairs, reference_train_counts,
                      traced_peak, write_dense_csv)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


@contextmanager
def per_row_parse():
    """Make load_dataset parse with the per-row reference parsers in place of its own."""
    with mock.patch.object(datamodel, "_dense_csv_rows", parse_dense_csv), \
            mock.patch.object(datamodel, "_sparse_pairs_blocks",
                              lambda blocks, path: parse_sparse_pairs(chain.from_iterable(blocks))):
        yield


def load_outcome(path, fmt):
    """Everything load_dataset returns, as bytes, or the type and message it raised."""
    try:
        ds = load_dataset(path, fmt)
    except ValueError as exc:
        return type(exc), str(exc)
    return ds.features.shape, ds.features.tobytes(), ds.labels.tobytes(), ds.label_names


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

class TestLoadDense:
    def test_single_row(self, tmp_path):
        ds = load_dataset(write(tmp_path, "1.0,2.0,label0\n"), "dense-csv")
        assert ds.n == 1 and ds.d == 2 and ds.class_count == 1
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0]])

    def test_label_first_appearance_order(self, tmp_path):
        # oracle: manual map a->0, b->1 in the order they appear
        text = "0,a\n1,b\n2,a\n3,b\n4,b\n"
        ds = load_dataset(write(tmp_path, text), "dense-csv")
        np.testing.assert_array_equal(ds.labels, [0, 1, 0, 1, 1])
        assert ds.class_count == 2
        assert ds.label_names == ("a", "b")

    def test_header_and_blank_lines_skipped(self, tmp_path):
        text = "# x,y,label\n1,2,a\n\n3,4,b\n"
        ds = load_dataset(write(tmp_path, text), "dense-csv")
        assert ds.n == 2

    def test_iris_shape(self):
        ds = load_dataset(bundled_dataset_path("iris"), "dense-csv")
        assert (ds.n, ds.d, ds.class_count) == (150, 4, 3)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="no data rows"):
            load_dataset(write(tmp_path, "# only a header\n"), "dense-csv")

    def test_inconsistent_columns(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="row 2"):
            load_dataset(write(tmp_path, "1,2,a\n1,2,3,a\n"), "dense-csv")

    def test_bad_number_has_location(self, tmp_path):
        with pytest.raises(DatasetFormatError, match=r"row 1, column 2"):
            load_dataset(write(tmp_path, "1,zzz,a\n2,3,a\n"), "dense-csv")

    def test_non_finite_rejected_with_location(self, tmp_path):
        with pytest.raises(DatasetFormatError, match=r"row 2, column 1"):
            load_dataset(write(tmp_path, "1,2,a\nnan,3,a\n"), "dense-csv")

    @pytest.mark.parametrize("data, row", [
        (b"\xff,1,a\n", 1),
        (b"1,2,a\n3,\xff,b\n", 2),
        (b"# x,y\r\n1,2,a\n\n\xe9,4,b\n", 4),
        (b"1,2,a\r3,4,b\x80\n", 2),
    ], ids=["first-row", "mid-row", "after-blank-and-comment", "after-carriage-return"])
    def test_non_utf8_byte_names_row(self, tmp_path, data, row):
        # UnicodeDecodeError would name a byte offset, not the row
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        with pytest.raises(DatasetFormatError, match=f"^row {row}: not valid UTF-8 "):
            load_dataset(path, "dense-csv")

    def test_load_twice_identical(self, tmp_path):
        p = write(tmp_path, "1.5,2.5,a\n3.5,4.5,b\n")
        a, b = load_dataset(p, "dense-csv"), load_dataset(p, "dense-csv")
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()


class TestLoadSparse:
    def test_densify(self, tmp_path):
        text = "a 1:1.5 3:2.5\nb 2:-1.0\n"
        ds = load_dataset(write(tmp_path, text, "data.txt"), "sparse-pairs")
        np.testing.assert_array_equal(ds.features, [[1.5, 0.0, 2.5], [0.0, -1.0, 0.0]])
        assert ds.label_names == ("a", "b")

    def test_bad_pair(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="pair 1"):
            load_dataset(write(tmp_path, "a 1-2\n"), "sparse-pairs")

    def test_zero_based_index_rejected(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="not 1-based"):
            load_dataset(write(tmp_path, "a 0:1.0\n"), "sparse-pairs")

    def test_duplicate_index_rejected(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="duplicate index"):
            load_dataset(write(tmp_path, "a 2:1.0 2:3.0\n"), "sparse-pairs")

    @pytest.mark.parametrize("index", [2 ** 62, 10 ** 20], ids=["2^62", "10^20"])
    def test_too_large_index_named(self, tmp_path, index):
        # numpy's allocation errors ("array is too big", "Maximum allowed
        # dimension exceeded", MemoryError) name no row
        path = write(tmp_path, f"a 1:1\nb 2:1 {index}:1\n", "data.txt")
        with pytest.raises(DatasetFormatError,
                           match=f"^row 2, pair 2: index {index} is too large; a dense "
                                 f"2 x {index} matrix does not fit in memory$"):
            load_dataset(path, "sparse-pairs")


@pytest.mark.parametrize("per_row", [False, True], ids=["blocks", "per-row"])
class TestLabelRules:
    def test_empty_dense_label_named(self, tmp_path, per_row):
        path = write(tmp_path, "1,2,a\n3,4,\n")
        with per_row_parse() if per_row else nullcontext():
            with pytest.raises(DatasetFormatError, match="row 2: empty label"):
                load_dataset(path, "dense-csv")

    def test_sparse_line_without_label_named(self, tmp_path, per_row):
        path = write(tmp_path, "a 1:1 2:3\n1:2 2:5\n", "data.txt")
        with per_row_parse() if per_row else nullcontext():
            with pytest.raises(DatasetFormatError,
                               match="row 2: missing label before 'idx:val' pairs"):
                load_dataset(path, "sparse-pairs")


# Python float and int accept some of these spellings and reject others; the
# loader's parse must draw the same line as the reference parser on each.
good_numbers = st.one_of(st.sampled_from(["1_000", "+2", "-0.0", " 1.5 "]),
                         st.floats(-1e3, 1e3).map(repr), st.integers(-9, 9).map(str))
bad_numbers = st.sampled_from(["1e400", "nan", "inf", "Infinity", "0x1p3", "", "x"])
good_indices = st.sampled_from(["1", "2", "3", "4", "5", "6", "1_0", "+1"])
bad_pairs = st.sampled_from(["0:1", "-1:1", ":1", "1:", "1:2:3", "4", "1:nan", "2:1e400"])


def rarely(draw, good, bad, clean):
    """A draw from ``good``; in a file that is not ``clean``, from ``bad`` one time in eight."""
    return draw(good) if clean or draw(st.integers(1, 8)) != 5 else draw(bad)


@st.composite
def dense_csv_texts(draw):
    width, clean = draw(st.integers(1, 3)), draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        count = rarely(draw, st.just(width), st.sampled_from([0, width - 1, width + 1]), clean)
        values = [rarely(draw, good_numbers, bad_numbers, clean) for _ in range(count)]
        label = rarely(draw, st.sampled_from(["a", " b ", "b", "1:2"]), st.just(""), clean)
        lines.append(",".join(values + [label]))
        if draw(st.integers(1, 8)) == 5:
            lines.append(draw(st.sampled_from(["", "# comment"])))
    return "\n".join(lines) + "\n"


@st.composite
def sparse_pairs_texts(draw):
    value = good_numbers.filter(lambda t: t == t.strip())
    lines, clean = [], draw(st.booleans())
    for _ in range(draw(st.integers(1, 6))):
        label = rarely(draw, st.sampled_from(["a", "b", "c"]), st.sampled_from(["1:2", "x:"]),
                       clean)
        indices = draw(st.lists(good_indices, max_size=3, unique=True))
        pairs = [rarely(draw, value.map(lambda v: f"{i}:{v}"), bad_pairs, clean)
                 for i in indices]
        lines.append(" ".join([label] + pairs))
    return "\n".join(lines) + "\n"


class TestBlockParse:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(dense_csv_texts().map(lambda t: (t, "dense-csv")),
                     sparse_pairs_texts().map(lambda t: (t, "sparse-pairs"))),
           # a read of 1 byte takes one row per block, one of 2^14 the whole file
           st.one_of(st.integers(1, 64), st.just(1 << 14)))
    @example(("a 4 1:2:3\n", "sparse-pairs"), 1 << 14)  # pairs whose ':' count only in total
    @example(("1,a\n2,b\n", "dense-csv"), 1)
    @example(("a 1:1\nb 2:1\n", "sparse-pairs"), 1)
    @example(("a +1:1_000 1:1_000\n1:2\n", "sparse-pairs"), 1)  # a fault in an earlier block
    @example(("a\nb 1:1\n", "sparse-pairs"), 1)  # a block of labels alone
    @example(("a\nb\n", "sparse-pairs"), 1 << 14)  # no block holds a pair
    # a bad row outranks a too-large index
    @example((f"a {2 ** 62}:1\nb 0:1\n", "sparse-pairs"), 1 << 14)
    @example((f"a {10 ** 20}:1\nb 1:1 1:2\n", "sparse-pairs"), 1)
    # dense-csv names the first bad row, then the first bad column in it
    @example(("nan,a\nx,b\n", "dense-csv"), 1 << 14)  # a non-finite row before an unparsable one
    @example(("nan,1,a\n2,b\n", "dense-csv"), 1 << 14)  # before a short row
    @example(("nan,a\n1,\n", "dense-csv"), 1 << 14)  # before an empty label
    @example(("1,inf,x,a\n", "dense-csv"), 1 << 14)  # a non-finite column before an unparsable one
    def test_agrees_with_per_row_parser(self, tmp_path_factory, file, read_bytes):
        text, fmt = file
        path = write(tmp_path_factory.getbasetemp(), text, "agree.txt")
        with mock.patch.object(datamodel, "_READ_BYTES", read_bytes):
            fast = load_outcome(path, fmt)
        with per_row_parse():
            slow = load_outcome(path, fmt)
        assert fast == slow

    def test_peak_memory_within_per_row_parser(self, tmp_path, rng):
        path = tmp_path / "wide.csv"
        write_dense_csv(path, rng.normal(size=(2000, 100)), np.arange(2000) % 5)

        with per_row_parse():
            per_row = traced_peak(load_dataset, path, "dense-csv")
        assert traced_peak(load_dataset, path, "dense-csv") <= per_row


# every separator str.splitlines() cuts at, and line bodies that are blank, blank-looking,
# comments or hold multibyte characters (2, 3 and 4 bytes in UTF-8)
SEPARATORS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
              "\u2029"]
BODIES = ["1,2,a", " b 1:1 ", "\u00e9,\u20ac", "\U0001d11e x", "#c", "# 1,2,a", "", "  ", "\t",
          "a#"]


@st.composite
def line_files(draw):
    """UTF-8 bytes of lines cut by any separator, with or without a final one, and in
    half of the files one bad byte sequence put in at any byte offset."""
    parts = []
    for _ in range(draw(st.integers(0, 10))):
        parts += [draw(st.sampled_from(BODIES)), draw(st.sampled_from(SEPARATORS))]
    data = ("".join(parts) + draw(st.sampled_from(BODIES))).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xe2\x82", b"\xc3"]))
        data = data[:at] + bad + data[at:]
    return data


def whole_text_lines(data: bytes):
    """(row, stripped line) of each data line of the whole decoded text, numbered by
    splitlines(), up to the row of the first bad byte, and that byte's error or None."""
    try:
        lines, error = data.decode("utf-8").splitlines(), None
    except UnicodeDecodeError as exc:
        text = data[:exc.start].decode("utf-8")
        bad = len((text + "x").splitlines())
        lines, error = text.splitlines()[:bad - 1], f"row {bad}: not valid UTF-8 ({exc.reason})"
    rows = [(i, ln.strip()) for i, ln in enumerate(lines, start=1)]
    return [(i, ln) for i, ln in rows if ln and not ln.startswith("#")], error


def streamed_lines(path, read_bytes: int):
    """The rows ``_data_lines`` yields, reading ``read_bytes`` at a time, and its error or
    None; every block it yields must hold a row."""
    got = []
    with mock.patch.object(datamodel, "_READ_BYTES", read_bytes):
        try:
            for block in datamodel._data_lines(path):
                assert block
                got.extend(block)
        except DatasetFormatError as exc:
            return got, str(exc)
    return got, None


class TestStreamedReader:
    """The file is read in blocks cut after a b"\\n"; rows, skipped lines and bad bytes
    must come out as a whole-text decode and splitlines() give them."""

    @settings(max_examples=400, deadline=None)
    @given(line_files(), st.integers(1, 9))
    @example("a\r\nb\r\nc".encode(), 2)  # a read ends between \r and \n
    @example("\u20ac\n\U0001d11e\n".encode(), 1)  # every multibyte character spans reads
    @example(b"1,2\n\xff\n", 4)  # a bad byte just past a cut
    @example(b"1,2\r\n3\xe2\x82", 3)  # a truncated character at the end of the file
    @example("a\x85b\u2028c\u2029d\x1ce\x1df\x1eg\vh\fi\r".encode(), 5)
    def test_rows_as_splitlines_numbers_them(self, tmp_path_factory, data, read_bytes):
        path = tmp_path_factory.getbasetemp() / "lines.txt"
        path.write_bytes(data)
        assert streamed_lines(path, read_bytes) == whole_text_lines(data)

    @pytest.mark.parametrize("read_bytes", [1, 3, 1 << 16])
    def test_line_longer_than_a_read(self, tmp_path, read_bytes):
        path = tmp_path / "long.csv"
        path.write_bytes(b"# head\n" + b"1," * 5000 + b"a\r\n\n2,b")
        assert streamed_lines(path, read_bytes) == ([(2, "1," * 5000 + "a"), (4, "2,b")], None)


class TestFileOrder:
    """Faults are reported in file order, a bad UTF-8 byte among them."""

    @pytest.mark.parametrize("read_bytes", [4, 1 << 16], ids=["apart", "one-block"])
    @pytest.mark.parametrize("fmt, data, message", [
        ("dense-csv", b"1,2,a\n1,x,b\n3,4,c\n5,6,d\n7,\xff,e\n",
         "row 2, column 2: cannot parse 'x' as a number"),
        # a 0 index is found only by the whole-file check, after the last block
        ("sparse-pairs", b"a 1:1\nb 0:1\nc 1:1\nd 1:1\ne 1:\xff\n",
         "row 2, pair 1: index 0 is not 1-based"),
        ("sparse-pairs", b"a 1:1\nb 2:1 2:1\nc 1:1\nd 1:1\ne 1:\xff\n",
         "row 2, pair 2: duplicate index 2"),
        ("dense-csv", b"1,2,a\n3,\xff,b\n3,4,c\n5,6,d\n7,x,e\n",
         "row 2: not valid UTF-8 (invalid start byte)"),
        ("sparse-pairs", b"a 1:1\nb 1:\xff\nc 1:1\nd 1:1\ne 0:1\n",
         "row 2: not valid UTF-8 (invalid start byte)"),
    ], ids=["dense-format-first", "sparse-index-first", "sparse-duplicate-first",
            "dense-byte-first", "sparse-byte-first"])
    def test_first_fault_in_the_file_wins(self, tmp_path, read_bytes, fmt, data, message):
        path = tmp_path / "data.txt"
        path.write_bytes(data)
        with mock.patch.object(datamodel, "_READ_BYTES", read_bytes), \
                pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}$"):
            load_dataset(path, fmt)

    @pytest.mark.parametrize("last, message", [
        ("c 1:1 1:2", "duplicate index 1"), ("c 1:1 2:nan", "non-finite value nan"),
        ("1:1 2:1", "missing label before 'idx:val' pairs"), ("c 1:1 2-1", "expected 'idx:val'"),
    ], ids=["duplicate", "non-finite", "no-label", "no-colon"])
    def test_sparse_fault_in_the_last_row_of_a_long_file(self, tmp_path, last, message):
        rows = [f"c{i % 3} 1:1 {i % 7 + 2}:0.5" for i in range(12000)]
        path = write(tmp_path, "# idx:val pairs\n" + "\n".join(rows + [last]) + "\n", "data.txt")
        assert path.stat().st_size > 2 * datamodel._READ_BYTES
        with pytest.raises(DatasetFormatError, match=f"^row 12002[:,] .*{re.escape(message)}"):
            load_dataset(path, "sparse-pairs")


class TestBoundedMemory:
    def test_dense_load_peak_within_two_and_a_half_matrices(self, tmp_path, rng):
        # 2048 rows fill a buffer of 2047 and grow it to 4095, its worst case
        n = 2048
        path = tmp_path / "wide.csv"
        write_dense_csv(path, rng.normal(size=(n, 120)), np.arange(n) % 7)
        peak = traced_peak(load_dataset, path, "dense-csv")
        assert peak <= 2.5 * n * 120 * 8 + (1 << 20)  # the loaded matrix is n x 120 float64

    def test_sparse_load_peak_within_matrix_triples_and_blocks(self, tmp_path, rng):
        # the (row, index, value) triples are held at most twice (the blocks' arrays and
        # their concatenation), or once beside a sort key and its sorted copy: 64 bytes a
        # pair; the token strings of this whole 0.5 MB file would take about 18 MB more
        n, per = 2000, 50
        rows = [" ".join([f"c{i % 5}"] + [f"{j + 1}:1" for j in np.sort(
                    rng.choice(100, per, replace=False))]) for i in range(n)]
        path = write(tmp_path, "\n".join(rows) + "\n", "bag.txt")
        peak = traced_peak(load_dataset, path, "sparse-pairs")
        features = load_dataset(path, "sparse-pairs").features
        assert peak <= features.nbytes + 64 * n * per + (1 << 20)

    def test_dense_buffer_cut_to_the_rows(self, tmp_path, rng):
        path = tmp_path / "rows.csv"
        write_dense_csv(path, rng.normal(size=(5, 3)), np.arange(5) % 2)
        features = load_dataset(path, "dense-csv").features
        assert features.shape == (5, 3) and features.base is None


class TestDatasetInvariants:
    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="class id 1"):
            Dataset(np.ones((2, 2)), np.array([0, 2]), ("a", "b", "c"))

    def test_class_count_is_the_number_of_label_names(self):
        # class_count was a constructor field: 2.5 reached numpy's bincount as a bare TypeError
        ds = Dataset(np.ones((3, 2)), np.array([0, 1, 1]), ("a", "b"))
        assert ds.class_count == 2 and "class_count" not in Dataset.__dataclass_fields__

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            dataset_from_arrays([[np.inf, 1.0]], [0])

    def test_fractional_labels_and_rows_rejected(self):
        # both used to be truncated toward zero: labels [0, 1, 0, 1, 0, 1], row 1
        with pytest.raises(ValueError, match=r"labels\[0\] = 0.9 is not an integer"):
            dataset_from_arrays(np.eye(6), [0.9, 1.2, 0, 1, 0, 1])
        ds = dataset_from_arrays([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1])
        with pytest.raises(ValueError, match=r"indices\[1\] = 1.7 is not an integer"):
            subset(ds, [0, 1.7, 2, 3])

    def test_subset_keeps_classes(self):
        ds = dataset_from_arrays([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1])
        sub = subset(ds, [0, 1])
        assert sub.n == 2 and sub.class_count == 2

    def test_subset_copies_its_rows_once(self, rng):
        ds = dataset_from_arrays(rng.normal(size=(2500, 300)), np.arange(2500) % 4)
        rows = rng.permutation(2500)[:2000]
        peak = traced_peak(subset, ds, rows)
        sub = subset(ds, rows)
        np.testing.assert_array_equal(sub.features, ds.features[rows])
        np.testing.assert_array_equal(sub.labels, ds.labels[rows])
        assert peak < 1.5 * (sub.features.nbytes + sub.labels.nbytes)

    @pytest.mark.parametrize("rows, message", [
        ([-1, 0, 1], r"indices\[0\] = -1 is out of range \[0, 4\)"),
        ([0, 1, 4], r"indices\[2\] = 4 is out of range \[0, 4\)"),
        ([0, 1, 0], r"indices\[2\] = 0 repeats an earlier entry"),
    ], ids=["negative", "out-of-range", "repeated"])
    def test_subset_rejects_bad_rows(self, rows, message):
        # a negative row would wrap around to the end of the dataset
        ds = dataset_from_arrays([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1])
        with pytest.raises(ValueError, match=message):
            subset(ds, rows)


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

class TestCenter:
    def test_two_point_symmetry(self):
        prep = Preprocessor.fit([[1.0], [3.0]])
        np.testing.assert_allclose(prep.apply([[1.0], [3.0]]), [[-1.0], [1.0]])
        np.testing.assert_allclose(prep.center_mean, [2.0])

    def test_mean_reproduces_original(self, rng):
        x = rng.normal(5.0, 2.0, (20, 6))
        prep = Preprocessor.fit(x)
        np.testing.assert_allclose(prep.apply(x) + prep.center_mean, x, rtol=0, atol=1e-12)

    def test_column_means_vanish(self, rng):
        # oracle: direct column-mean computation
        x = rng.normal(3.0, 4.0, (20, 6))
        out = Preprocessor.fit(x).apply(x)
        scale = np.abs(x).max()
        assert np.abs(out.mean(axis=0)).max() < 1e-10 * scale

    def test_idempotent(self, rng):
        x = rng.normal(0.0, 1.0, (15, 3))
        once = Preprocessor.fit(x).apply(x)
        again = Preprocessor.fit(once)
        np.testing.assert_allclose(again.apply(once), once, atol=1e-10)
        assert np.abs(again.center_mean).max() < 1e-10


def fit_zscore(x):
    return Preprocessor.fit(x, center=False, zscore=True)


class TestZscore:
    def test_two_values(self):
        out = fit_zscore([[0.0], [2.0]]).apply([[0.0], [2.0]])
        s = np.std([0.0, 2.0], ddof=1)
        np.testing.assert_allclose(out, [[-1.0 / s], [1.0 / s]])
        assert np.isclose(out.std(ddof=1), 1.0)

    def test_wine_shaped(self, rng):
        x = rng.normal(2.0, 3.0, (178, 13))
        out = fit_zscore(x).apply(x)
        np.testing.assert_allclose(out.std(axis=0, ddof=1), 1.0, atol=1e-8)

    def test_moments(self, rng):
        # oracle: direct moment computation
        x = rng.normal(-1.0, 7.0, (30, 4))
        out = fit_zscore(x).apply(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.std(axis=0, ddof=1), 1.0, atol=1e-8)

    def test_affine_invariance(self, rng):
        x = rng.normal(0.0, 1.0, (25, 3))
        a = np.array([2.0, 0.5, 7.0])
        b = np.array([-3.0, 10.0, 0.25])
        z1 = fit_zscore(x).apply(x)
        z2 = fit_zscore(x * a + b).apply(x * a + b)
        np.testing.assert_allclose(z1, z2, atol=1e-8)

    def test_constant_column_named(self):
        with pytest.raises(PreprocessError, match="column 1"):
            fit_zscore([[1.0, 5.0], [2.0, 5.0]])


def fit_pca(x, r, center=True):
    return Preprocessor.fit(x, center=center, pca_dim=r)


class TestPca:
    def test_exact_subspace_recovery(self, rng):
        basis = np.linalg.qr(rng.normal(size=(5, 2)))[0]
        coords = rng.normal(size=(40, 2))
        x = coords @ basis.T + rng.normal(size=5)  # rank-2 + offset
        ds = dataset_from_arrays(x, [0] * 40)
        prep = fit_pca(ds.features, 2)
        proj = prep.apply(x)
        recon = proj @ prep.components.T + prep.center_mean
        assert np.abs(recon - x).max() < 1e-8

    def test_correlated_gaussian_axis(self, rng):
        # oracle: eigendecomposition of the 2x2 sample covariance
        cov = np.array([[1.0, 0.99], [0.99, 1.0]])
        x = rng.multivariate_normal([0, 0], cov, size=400)
        ds = dataset_from_arrays(x, [0] * 400)
        prep = fit_pca(ds.features, 1)
        evals, evecs = np.linalg.eigh(np.cov(x.T))
        principal = evecs[:, np.argmax(evals)]
        cosine = abs(float(prep.components[:, 0] @ principal))
        assert cosine > np.cos(np.deg2rad(1.0))

    def test_document_shaped(self, rng):
        x = rng.normal(size=(320, 29992))
        ds = dataset_from_arrays(x, [0] * 320)
        prep = fit_pca(ds.features, 300)
        assert prep.apply(x[:3]).shape == (3, 300)

    def test_orthonormal_components(self, rng):
        ds = dataset_from_arrays(rng.normal(size=(30, 8)), [0] * 30)
        prep = fit_pca(ds.features, 5)
        gram = prep.components.T @ prep.components
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)

    def test_explained_variance_non_increasing(self, rng):
        x = rng.normal(size=(50, 6)) * np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.1])
        ds = dataset_from_arrays(x, [0] * 50)
        prep = fit_pca(ds.features, 6)
        proj = prep.apply(x)
        variances = proj.var(axis=0)
        assert (np.diff(variances) <= 1e-12).all()
        assert (variances >= 0).all()

    def test_sign_convention(self, rng):
        ds = dataset_from_arrays(rng.normal(size=(30, 4)), [0] * 30)
        prep = fit_pca(ds.features, 4)
        anchors = np.abs(prep.components).argmax(axis=0)
        assert (prep.components[anchors, np.arange(4)] > 0).all()

    def test_apply_mean_is_zero(self, rng):
        ds = dataset_from_arrays(rng.normal(size=(10, 3)), [0] * 10)
        prep = fit_pca(ds.features, 2)
        np.testing.assert_allclose(prep.apply(prep.center_mean[None, :]), 0.0, atol=1e-12)

    def test_centers_without_center_flag(self, rng):
        # the axes are those of the centered rows, so PCA centers regardless
        x = rng.normal(3.0, 1.0, size=(10, 3))
        prep = fit_pca(x, 2, center=False)
        np.testing.assert_array_equal(prep.center_mean, x.mean(axis=0))
        np.testing.assert_allclose(prep.apply(x).mean(axis=0), 0.0, atol=1e-12)

    def test_components_need_a_center_mean(self):
        # a PCA fit always centers; a model file with a null center_mean used to
        # project uncentered rows
        with pytest.raises(ValueError, match="components need a center_mean"):
            Preprocessor(3, components=np.eye(3))

    def test_apply_identity_components(self):
        prep = Preprocessor(3, center_mean=np.zeros(3), components=np.eye(3))
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(prep.apply(x), x)

    def test_apply_matches_explicit_dot(self, rng):
        ds = dataset_from_arrays(rng.normal(size=(12, 5)), [0] * 12)
        prep = fit_pca(ds.features, 3)
        p = rng.normal(size=5)
        # oracle: explicit dot products
        want = np.array([(p - prep.center_mean) @ prep.components[:, c] for c in range(3)])
        np.testing.assert_allclose(prep.apply(p[None, :])[0], want, atol=1e-10)

    def test_r_too_large(self, rng):
        ds = dataset_from_arrays(rng.normal(size=(4, 6)), [0] * 4)
        with pytest.raises(ValueError, match=r"pca_dim must be in \[1, min\(n - 1, d\)\] "
                                             r"= \[1, 3\], got 5"):
            fit_pca(ds.features, 5)

    @pytest.mark.parametrize("n, d", [(4, 6), (5, 5)], ids=["n<d", "n=d"])
    def test_r_equal_to_n_rejected(self, rng, n, d):
        # centered rows have rank <= n - 1, so an n-th axis would be a
        # null-space direction chosen by rounding
        x = rng.normal(size=(n, d))
        with pytest.raises(ValueError, match=f"pca_dim must be in .* = \\[1, {n - 1}\\], "
                                             f"got {n}"):
            fit_pca(x, n)
        assert fit_pca(x, n - 1).d_out == n - 1

    @pytest.mark.parametrize("r", [0, -1])
    def test_r_below_one_names_pca_dim(self, rng, r):
        with pytest.raises(ValueError, match=f"pca_dim must be in .*, got {r}"):
            fit_pca(rng.normal(size=(6, 4)), r)

    @pytest.mark.parametrize("r", [2.5, 2.0, True], ids=["2.5", "2.0", "True"])
    def test_non_integer_names_pca_dim(self, rng, r):
        # 2.5 passes the range check and would fail in the SVD slice; True would fit one axis
        with pytest.raises(ValueError, match=f"^pca_dim must be an integer, got {r}$"):
            fit_pca(rng.normal(size=(6, 4)), r)

    def test_numpy_integer_accepted(self, rng):
        x = rng.normal(size=(6, 4))
        assert fit_pca(x, np.int64(2)).components.tobytes() == fit_pca(x, 2).components.tobytes()

    def test_json_round_trip(self, rng):
        prep = fit_pca(rng.normal(size=(10, 4)), 2)
        doc = json.loads(json.dumps(Preprocessor.JSON.encode(prep)))
        loaded = Preprocessor.JSON.decode(doc)
        np.testing.assert_array_equal(loaded.components, prep.components)
        np.testing.assert_array_equal(loaded.center_mean, prep.center_mean)
        assert set(doc) == {"d_in", "zscore_mean", "zscore_sd", "center_mean", "components"}
        assert loaded.d_out == 2 and len(doc["components"]) == 4


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def two_class_dataset(n_per_class, d=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2 * n_per_class, d))
    y = np.tile([0, 1], n_per_class)
    return dataset_from_arrays(x, y)


class TestSplit:
    def test_sizes_and_stratification(self):
        ds = two_class_dataset(5)
        sp = split(ds, 0.7, seed=1)
        assert sp.train_indices.size == 7 and sp.test_indices.size == 3
        assert set(ds.labels[sp.train_indices]) == {0, 1}

    def test_deterministic(self):
        ds = two_class_dataset(20)
        a, b = split(ds, 0.7, seed=1), split(ds, 0.7, seed=1)
        np.testing.assert_array_equal(a.train_indices, b.train_indices)
        np.testing.assert_array_equal(a.test_indices, b.test_indices)

    def test_seeds_differ(self):
        ds = two_class_dataset(20)
        a, b = split(ds, 0.7, seed=1), split(ds, 0.7, seed=2)
        assert not np.array_equal(a.train_indices, b.train_indices)

    def test_partition(self):
        ds = two_class_dataset(13)
        sp = split(ds, 0.6, seed=5)
        both = np.concatenate([sp.train_indices, sp.test_indices])
        np.testing.assert_array_equal(np.sort(both), np.arange(ds.n))

    def test_train_frequency_over_seeds(self, rng):
        # oracle: empirical frequency count over 100 seeds; the +-10 point
        # band is a ~2.2 sigma event per index, so the seed block is frozen
        x = rng.normal(size=(150, 3))
        y = np.tile([0, 1, 2], 50)
        ds = dataset_from_arrays(x, y)
        hits = np.zeros(150)
        for seed in range(42300, 42400):
            hits[split(ds, 0.7, seed).train_indices] += 1
        freq = hits / 100
        assert (np.abs(freq - 0.7) <= 0.10 + 1e-9).all()

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stratification_every_seed(self, seed):
        ds = two_class_dataset(6)
        sp = split(ds, 0.5, seed)
        assert set(ds.labels[sp.train_indices]) == {0, 1}
        both = np.concatenate([sp.train_indices, sp.test_indices])
        assert np.array_equal(np.sort(both), np.arange(ds.n))

    def test_fraction_out_of_range(self):
        ds = two_class_dataset(5)
        with pytest.raises(ValueError, match="train_fraction"):
            split(ds, 1.0, seed=0)

    def test_empty_test_partition_rejected(self):
        # 0.99 * 40 rounds to 40: every row would train and none would test
        ds = two_class_dataset(20)
        with pytest.raises(ValueError, match="train_fraction 0.99 leaves no test rows out of 40"):
            split(ds, 0.99, seed=0)

    def test_small_class_rejected(self):
        ds = dataset_from_arrays([[0.0], [1.0], [2.0]], [0, 0, 1])
        with pytest.raises(ValueError, match="need >= 2"):
            split(ds, 0.7, seed=0)

    @given(small=st.lists(st.integers(2, 3), max_size=60),
           large=st.lists(st.integers(4, 400), max_size=4), cut=st.integers(0, 60),
           fraction=st.floats(0.005, 0.995))
    @example(small=[3, 2, 3, 3, 2, 2], large=[289, 105, 83], cut=2,
             fraction=0.07745817166705632).via("floors raised to 1 overshoot; two trim passes")
    @settings(max_examples=300, deadline=None)
    def test_train_counts_match_round_robin(self, small, large, cut, fraction):
        # many 2-3 member classes beside a few large ones, where raising floors to 1
        # overshoots the total; the domain is the one split calls the allocation in
        sizes = np.array(small[:cut] + large + small[cut:], dtype=np.int64)
        total = int(round(fraction * sizes.sum()))
        assume(1 <= sizes.size <= total < sizes.sum())
        counts = datamodel._allocate_train_counts(sizes, fraction, total)
        np.testing.assert_array_equal(counts, reference_train_counts(sizes, fraction, total))
        assert counts.sum() == total and (counts >= 1).all() and (counts <= sizes).all()
