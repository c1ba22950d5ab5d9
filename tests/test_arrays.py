import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hubridge import _arrays
from hubridge._arrays import (as_ids, ordered_bits, pairwise_sq_dists, query_chunks,
                              smallest_k_band, sq_dist_operand)


def full_sort_oracle(values: np.ndarray, k: int) -> np.ndarray:
    """Sort each whole row by (value, index) and keep the first k."""
    index = np.arange(values.shape[1])
    out = np.empty((values.shape[0], k), dtype=np.int64)
    for r, row in enumerate(values):
        out[r] = np.lexsort((index, row))[:k]
    return out


def smallest_k(values: np.ndarray, k: int) -> np.ndarray:
    """Each row's first k band columns at zero slack: its k smallest by (value, index)."""
    _, cols, _, starts = smallest_k_band(values, k, np.zeros(values.shape[0]))
    return cols[starts[:, None] + np.arange(k)]


@st.composite
def blocks(draw):
    """(values, k): float32 tie-heavy integer rows, optionally offset by 1e6,
    with +inf, in one of several memory layouts."""
    m = draw(st.integers(min_value=0, max_value=6))
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=n))
    entry = st.one_of(st.integers(min_value=0, max_value=3).map(float),
                      st.just(np.inf),
                      st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    cells = draw(st.lists(entry, min_size=m * n, max_size=m * n))
    offset = draw(st.sampled_from([0.0, 1e6]))
    values = (np.array(cells).reshape(m, n) + offset).astype(np.float32)
    return draw(st.sampled_from(LAYOUTS))(values), k


def strided(values: np.ndarray) -> np.ndarray:
    """Every other column of a wider array, the gaps filled with smaller values."""
    wide = np.full((values.shape[0], 2 * values.shape[1]), -np.inf, dtype=values.dtype)
    wide[:, ::2] = values
    return wide[:, ::2]


# views holding the same logical values in other memory layouts: the top-k
# reads flat row-major indices, so each must give the C-ordered result
LAYOUTS = (
    lambda v: v,
    lambda v: np.ascontiguousarray(v.T).T,  # transposed view, Fortran order
    strided,
    lambda v: np.ascontiguousarray(v[::-1, ::-1])[::-1, ::-1],  # negative strides
)


class TestSmallestK:
    @given(blocks())
    @settings(max_examples=300, deadline=None)
    def test_matches_full_sort_oracle(self, block):
        values, k = block
        got = smallest_k(values, k)
        values = np.ascontiguousarray(values)
        assert got.shape == (values.shape[0], k)
        np.testing.assert_array_equal(got, full_sort_oracle(values, k))

    @given(blocks())
    @settings(max_examples=200, deadline=None)
    def test_first_minimum_matches_full_sort_oracle(self, block):
        values, _ = block
        np.testing.assert_array_equal(smallest_k(values, 1),
                                      full_sort_oracle(np.ascontiguousarray(values), 1))

    @pytest.mark.parametrize("values", [
        np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]], dtype=np.float32),  # -0.0 == 0.0: lower index
        np.array([[np.inf, np.inf, np.inf], [np.inf, 2.0, 2.0]], dtype=np.float32),
        np.zeros((0, 4), dtype=np.float32),
    ], ids=["signed-zeros", "all-inf-row", "no-rows"])
    def test_first_minimum_edge_cases(self, values):
        got = smallest_k(values, 1)
        assert got.shape == (values.shape[0], 1)
        np.testing.assert_array_equal(got, full_sort_oracle(values, 1))

    def test_first_minimum_takes_no_partition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("k = 1 must not partition")

        monkeypatch.setattr(np, "partition", refuse)
        values = np.array([[3.0, 1.0, 1.0, 0.5]], dtype=np.float32)
        np.testing.assert_array_equal(smallest_k(values, 1), [[3]])

    def test_tie_straddling_kth_place_keeps_lower_indices(self):
        values = np.array([[2.0, 1.0, 0.0, 1.0, 1.0, 1.0]], dtype=np.float32)
        np.testing.assert_array_equal(smallest_k(values, 3), [[2, 1, 3]])

    def test_equals_stable_argsort_on_continuous_rows(self, rng):
        values = rng.normal(size=(40, 300)).astype(np.float32)
        np.testing.assert_array_equal(
            smallest_k(values, 10), np.argsort(values, axis=1, kind="stable")[:, :10])

    @pytest.mark.parametrize("wide", [False, True], ids=["n-below-8k", "n-above-8k"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_group_bound_matches_stable_argsort(self, wide, data):
        # below 8k the k-th value is bounded from k groups, above it from n // 8;
        # small integers make most rows tie at the k-th place
        k = data.draw(st.integers(min_value=1, max_value=10))
        n = data.draw(st.integers(min_value=8 * k, max_value=40 * k) if wide
                      else st.integers(min_value=k, max_value=8 * k - 1))
        m = data.draw(st.integers(min_value=0, max_value=5))
        high = data.draw(st.integers(min_value=1, max_value=6))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        values = np.random.default_rng(seed).integers(0, high, size=(m, n)).astype(np.float32)
        np.testing.assert_array_equal(
            smallest_k(values, k), np.argsort(values, axis=1, kind="stable")[:, :k])

    @pytest.mark.parametrize("n", [80, 85], ids=["grouped", "tail-columns-in-no-group"])
    def test_k_nearest_in_one_group_loosen_the_bound_only(self, n):
        # g = 10 groups of columns j mod 10: the three smallest entries all sit
        # in group 0, so the 3rd-smallest group minimum is far above the 3rd
        # value; at n = 85 columns 80-84 belong to no group and hold ties
        k = 3
        values = np.tile(np.arange(n, dtype=np.float32) + 100.0, (2, 1))
        values[0, [0, 10, 20]] = [3.0, 1.0, 2.0]
        values[1, [30, 0, 70]] = 5.0
        if n == 85:
            values[1, [84, 81]] = 5.0
        rows, _, _, starts = smallest_k_band(values, k, np.zeros(2))
        assert np.diff(np.append(starts, rows.size)).min() > k  # the bound is loose
        np.testing.assert_array_equal(smallest_k(values, k), full_sort_oracle(values, k))
        np.testing.assert_array_equal(smallest_k(values, k)[0], [10, 20, 0])

    def test_band_slack_widens_each_row_by_its_own_amount(self):
        values = np.array([[3.0, 0.0, 1.0, 1.5, 0.5], [2.0, 2.0, 0.0, 9.0, 4.0]],
                          dtype=np.float32)
        rows, cols, kept, starts = smallest_k_band(values, 2, np.array([1.0, 2.0]))
        # row 0: 2nd value 0.5, bound 1.5; row 1: 2nd value 2.0, bound 4.0
        np.testing.assert_array_equal(rows, [0, 0, 0, 0, 1, 1, 1, 1])
        np.testing.assert_array_equal(cols, [1, 4, 2, 3, 2, 0, 1, 4])
        np.testing.assert_array_equal(kept, [0.0, 0.5, 1.0, 1.5, 0.0, 2.0, 2.0, 4.0])
        assert kept.dtype == np.float32
        np.testing.assert_array_equal(starts, [0, 4])


@st.composite
def band_blocks(draw):
    """(values, k, slack): float32 blocks of tie-heavy or continuous rows
    holding -0.0 and +0.0, +inf entries and whole +inf rows, n from 1 to 700
    (most n leave a tail at one level of groups or both), k up to the
    level-1 group count n // 8 or up to n, and zero or per-row slack."""
    m = draw(st.integers(min_value=0, max_value=5))
    n = draw(st.integers(min_value=1, max_value=700))
    k = draw(st.one_of(st.integers(min_value=1, max_value=max(1, n // 8)),
                       st.integers(min_value=1, max_value=n)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    if draw(st.booleans()):
        values = rng.integers(-1, draw(st.integers(min_value=1, max_value=6)), size=(m, n))
        values = values * rng.choice([-1.0, 1.0], size=(m, n))  # -0.0 where 0 meets -1
    else:
        values = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-3, 4)
    values[rng.random((m, n)) < draw(st.sampled_from([0.0, 0.05, 0.9]))] = np.inf
    values[rng.random(m) < 0.2] = np.inf
    slack = draw(st.sampled_from([np.zeros(m), rng.uniform(0.0, 2.0, size=m)]))
    return values.astype(np.float32), k, slack


def assert_band_is_a_sorted_prefix(values: np.ndarray, k: int, band) -> None:
    """Each row's band is a prefix of its stable full sort by (value, column),
    at least k long, that ends where the value rises: every entry up to a bound."""
    rows, cols, kept, starts = band
    np.testing.assert_array_equal(starts, np.searchsorted(rows, np.arange(values.shape[0])))
    order = np.argsort(values, axis=1, kind="stable")
    ends = np.append(starts[1:], rows.size)
    for r, (lo, hi) in enumerate(zip(starts, ends)):
        width = hi - lo
        assert width >= k
        assert (rows[lo:hi] == r).all()
        np.testing.assert_array_equal(cols[lo:hi], order[r, :width])
        np.testing.assert_array_equal(kept[lo:hi], values[r, cols[lo:hi]])
        if width < values.shape[1]:
            assert values[r, order[r, width]] > values[r, order[r, width - 1]]
    assert kept.dtype == values.dtype


class TestTwoLevelBand:
    @given(band_blocks())
    @settings(max_examples=300, deadline=None)
    def test_band_matches_stable_full_sort(self, block):
        values, k, slack = block
        band = smallest_k_band(values, k, slack)
        assert_band_is_a_sorted_prefix(values, k, band)
        if not slack.any():
            np.testing.assert_array_equal(smallest_k(values, k), full_sort_oracle(values, k))

    @pytest.mark.parametrize("dtype", [np.float32])  # the band's one dtype
    @pytest.mark.parametrize("n", [1000, 1013], ids=["grouped", "tail-columns"])
    def test_k_nearest_in_one_level2_group_widen_the_band_only(self, dtype, n):
        # g = n // 8 level-1 groups (126 at n = 1013, with a 5-column tail) and
        # g2 = 15 level-2 groups: columns 0, 15 and 30 fall in distinct level-1
        # groups of level-2 group 0, so T, the 3rd-smallest level-2 minimum, is
        # above the 3rd value, where the 3rd-smallest level-1 minimum was not
        k = 3
        values = np.tile(np.arange(n, 0, -1, dtype=dtype) + 100, (2, 1))
        values[:, [30, 0, 15]] = [1.0, 2.0, 3.0]
        values[1, 1010 if n == 1013 else 999] = 1.0  # a tie in the tail, or in the last group
        band = smallest_k_band(values, k, np.zeros(2))
        assert_band_is_a_sorted_prefix(values, k, band)
        assert np.diff(np.append(band[3], band[0].size)).min() > k  # the bound is loose
        np.testing.assert_array_equal(smallest_k(values, k), full_sort_oracle(values, k))
        np.testing.assert_array_equal(smallest_k(values, k)[0], [30, 0, 15])

    @pytest.mark.parametrize("dtype", [np.float32])  # the band's one dtype
    def test_ties_straddling_kth_place_keep_lower_columns(self, dtype):
        # ties at 1.0 across groups, level-2 groups and the tail (n = 1005 leaves
        # columns 1000-1004 in no group), -0.0 and +0.0 tied below them
        n, k = 1005, 5
        values = np.full((1, n), 7.0, dtype=dtype)
        values[0, [1003, 997, 3, 500, 126, 250]] = 1.0
        values[0, [700, 2]] = [0.0, -0.0]
        band = smallest_k_band(values, k, np.zeros(1))
        assert_band_is_a_sorted_prefix(values, k, band)
        np.testing.assert_array_equal(smallest_k(values, k), [[2, 700, 3, 126, 250]])

    def test_block_read_whole_only_by_the_group_minima(self, rng, monkeypatch):
        # no compare of the whole block: every index scan is of the group
        # minima or of gathered candidate groups, far smaller than the block
        values = rng.normal(size=(40, 4000)).astype(np.float32)
        sizes = []
        real = np.flatnonzero

        def spy(a):
            sizes.append(np.size(a))
            return real(a)

        monkeypatch.setattr(np, "flatnonzero", spy)
        got = smallest_k(values, 10)
        np.testing.assert_array_equal(got, np.argsort(values, axis=1, kind="stable")[:, :10])
        assert sizes and max(sizes) <= values.size // 8


class TestAsIntVector:
    """``as_ids`` reads ids as int64: whole numbers of any dtype are kept, and every other
    entry is named as given (its range and repeat checks are in ``test_ids.py``)."""

    @pytest.mark.parametrize("values", [[0, 3, 2], np.array([2, 1], object),
                                        np.array([4], np.uint8), [1.0, 7.0, 2.0 ** 62],
                                        [2.0 ** 63 - 1024]])
    def test_whole_numbers_kept(self, values):
        got = as_ids(values, "labels")
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.asarray(values, dtype=np.float64))

    @pytest.mark.parametrize("values, message", [
        ([0, 1, 0.9, 1.2], "labels[2] = 0.9"),
        ([1.0, np.nan], "labels[1] = nan"),
        ([-np.inf], "labels[0] = -inf"),
        ([3.0, 1e30], "labels[1] = 1e+30"),
        ([2.0 ** 63], "labels[0] = 9.223372036854776e+18"),
        (np.array([0, 1.5], object), "labels[1] = 1.5"),
    ], ids=["fraction", "nan", "inf", "1e30", "2^63", "object-fraction"])
    def test_other_values_named_not_truncated(self, values, message):
        with pytest.raises(ValueError, match=re.escape(message + " is not an integer")):
            as_ids(values, "labels")

    def test_unsigned_past_int64_named_not_wrapped(self):
        # 2^63 as uint64 used to wrap to -2^63 and be reported under that value
        assert as_ids(np.array([2 ** 63 - 1], np.uint64), "indices")[0] == 2 ** 63 - 1
        with pytest.raises(ValueError, match=re.escape(
                "indices[1] = 9223372036854775808 is not an integer in int64's range")):
            as_ids(np.array([3, 2 ** 63], dtype=np.uint64), "indices", 10, distinct=True)

    def test_object_int_kept_exactly(self):
        # 2^62 + 1 among object entries was compared with its float, 2^62, and named
        assert as_ids(np.array([2 ** 62 + 1, 3.0], object), "labels").tolist() == [2 ** 62 + 1, 3]

    @pytest.mark.parametrize("big", [-2 ** 63 - 1, 2 ** 64, -2 ** 70],
                             ids=["-2^63-1", "2^64", "-2^70"])
    def test_python_int_past_int64_named_exactly(self, big):
        # a list holding such an int is an object array: -2^63 - 1 used to escape as an
        # OverflowError and 2^64 to be named as the rounded float 1.8446744073709552e+19
        assert as_ids([5, 0, 2 ** 63 - 1], "labels").tolist() == [5, 0, 2 ** 63 - 1]
        with pytest.raises(ValueError, match=re.escape(
                f"labels[1] = {big} is not an integer in int64's range")):
            as_ids([7, big], "labels")


class TestOrderedBits:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_order_matches_values(self, dtype):
        info = np.finfo(dtype)
        v = np.array([-np.inf, -info.max, -1.5, -info.tiny, -info.smallest_subnormal, -0.0,
                      0.0, info.smallest_subnormal, info.tiny, 1.0, 1.5, info.max, np.inf],
                     dtype=dtype)
        bits = ordered_bits(v)
        assert bits.itemsize == v.itemsize
        np.testing.assert_array_equal(np.sign(np.diff(bits.astype(np.int64))), np.sign(np.diff(v)))
        assert bits[5] == bits[6] == 0  # -0.0 folds to +0.0


class TestPairwiseSqDists:
    def test_operand_layout(self):
        # column j is [p_j | ||p_j||^2 | 1]: the points column-major, then norms, then ones
        p = np.array([[1.0, 2.0], [-3.0, 0.5]])
        operand = sq_dist_operand(p, 0.0, np.float64)
        assert operand.flags.c_contiguous
        np.testing.assert_array_equal(operand, [[1.0, -3.0], [2.0, 0.5], [5.0, 9.25], [1.0, 1.0]])
        shifted = sq_dist_operand(p, np.array([1.0, 0.5]), np.float32)
        assert shifted.dtype == np.float32 and shifted.flags.c_contiguous
        np.testing.assert_array_equal(shifted, [[0.0, -4.0], [1.5, 0.0], [2.25, 16.0], [1.0, 1.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_build_matches_one_pass(self, rng, dtype):
        # 1,000 rows of 300 span several build blocks, the last one partial
        p = rng.normal(size=(1000, 300)) + 1e3
        shift = p.mean(axis=0)
        body = (p - shift).astype(dtype)
        want = np.vstack([body.T, np.einsum("ij,ij->i", body, body), np.ones(1000)])
        got = sq_dist_operand(p, shift, dtype)
        assert got.dtype == dtype and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want.astype(dtype))

    def test_prebuilt_operand_bit_identical(self, rng):
        q = rng.normal(size=(7, 5))
        p = rng.normal(size=(11, 5)) + 1e3
        operand = sq_dist_operand(p, 0.0, np.float64)
        first = pairwise_sq_dists(q, operand)
        assert pairwise_sq_dists(q, operand).tobytes() == first.tobytes()  # reused
        fresh = pairwise_sq_dists(q, sq_dist_operand(p, 0.0, np.float64))
        assert fresh.tobytes() == first.tobytes()

    def test_float32_operands_give_float32_block(self, rng):
        q = rng.normal(size=(7, 5)) + 1e3
        p = rng.normal(size=(11, 5)) + 1e3
        q32, p32 = q.astype(np.float32), p.astype(np.float32)
        got = pairwise_sq_dists(q32, sq_dist_operand(p32, 0.0, np.float32))
        assert got.dtype == np.float32
        # float32's spacing at the squared norms (~5e6) is 0.5
        want = pairwise_sq_dists(q, sq_dist_operand(p, 0.0, np.float64))
        np.testing.assert_allclose(got, want, atol=4.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_identical_rows_give_identical_values(self, rng, dtype):
        q = (rng.normal(size=(7, 5)) + 1e3).astype(dtype)
        p = np.vstack([q[:3], rng.normal(size=(8, 5)) + 1e3, q[:3]])
        got = pairwise_sq_dists(q, sq_dist_operand(p, 0.0, dtype))
        assert got.dtype == dtype
        np.testing.assert_array_equal(got[:, :3], got[:, -3:])


class TestQueryChunks:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5000), st.integers(0, 3 * _arrays._CHUNK_CELLS))
    @example(900, 2100)  # cv_protocol's final lookups: two chunks
    @example(1000, 1000)  # a fit_large self-join: one chunk
    @example(3, _arrays._CHUNK_CELLS + 1)  # a row alone is wider than the cap
    def test_cover_the_queries_within_the_cell_cap(self, n_queries, n_points):
        chunks = list(query_chunks(n_queries, n_points))
        assert [i for lo, hi in chunks for i in range(lo, hi)] == list(range(n_queries))
        assert all(hi > lo for lo, hi in chunks)
        # only a one-row chunk may exceed the cap, and only the last chunk is short
        assert all(hi - lo == 1 or (hi - lo) * n_points <= _arrays._CHUNK_CELLS
                   for lo, hi in chunks)
        assert len({hi - lo for lo, hi in chunks[:-1]}) <= 1
