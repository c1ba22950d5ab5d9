import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hubridge._arrays import pairwise_sq_dists, smallest_k_band, sq_dist_operand


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
    """(values, k): tie-heavy integer rows, optionally offset by 1e6, with +inf,
    in one of several memory layouts."""
    m = draw(st.integers(min_value=0, max_value=6))
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=n))
    entry = st.one_of(st.integers(min_value=0, max_value=3).map(float),
                      st.just(np.inf),
                      st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    cells = draw(st.lists(entry, min_size=m * n, max_size=m * n))
    offset = draw(st.sampled_from([0.0, 1e6]))
    values = np.array(cells, dtype=np.float64).reshape(m, n) + offset
    return draw(st.sampled_from(LAYOUTS))(values), k


def strided(values: np.ndarray) -> np.ndarray:
    """Every other column of a wider array, the gaps filled with smaller values."""
    wide = np.full((values.shape[0], 2 * values.shape[1]), -np.inf)
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
        np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]]),  # -0.0 == 0.0: lower index
        np.array([[np.inf, np.inf, np.inf], [np.inf, 2.0, 2.0]]),
        np.zeros((0, 4)),
    ], ids=["signed-zeros", "all-inf-row", "no-rows"])
    def test_first_minimum_edge_cases(self, values):
        got = smallest_k(values, 1)
        assert got.shape == (values.shape[0], 1)
        np.testing.assert_array_equal(got, full_sort_oracle(values, 1))

    def test_first_minimum_takes_no_partition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("k = 1 must not partition")

        monkeypatch.setattr(np, "partition", refuse)
        np.testing.assert_array_equal(smallest_k(np.array([[3.0, 1.0, 1.0, 0.5]]), 1), [[3]])

    def test_tie_straddling_kth_place_keeps_lower_indices(self):
        values = np.array([[2.0, 1.0, 0.0, 1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(smallest_k(values, 3), [[2, 1, 3]])

    def test_equals_stable_argsort_on_continuous_rows(self, rng):
        values = rng.normal(size=(40, 300))
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
        values = np.random.default_rng(seed).integers(0, high, size=(m, n)).astype(np.float64)
        np.testing.assert_array_equal(
            smallest_k(values, k), np.argsort(values, axis=1, kind="stable")[:, :k])

    @pytest.mark.parametrize("n", [80, 85], ids=["grouped", "tail-columns-in-no-group"])
    def test_k_nearest_in_one_group_loosen_the_bound_only(self, n):
        # g = 10 groups of columns j mod 10: the three smallest entries all sit
        # in group 0, so the 3rd-smallest group minimum is far above the 3rd
        # value; at n = 85 columns 80-84 belong to no group and hold ties
        k = 3
        values = np.tile(np.arange(n, dtype=np.float64) + 100.0, (2, 1))
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
        # or into a view: the transpose of a row-major (n, d + 2) array
        side = np.empty((2, 4), dtype=np.float32)
        sq_dist_operand(p, np.array([1.0, 0.5]), np.float32, side.T)
        np.testing.assert_array_equal(side.T, shifted)

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
