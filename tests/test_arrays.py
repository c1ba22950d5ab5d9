import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hubridge._arrays import pairwise_sq_dists, smallest_k, sq_norms


def full_sort_oracle(values: np.ndarray, k: int) -> np.ndarray:
    """Sort each whole row by (value, index) and keep the first k."""
    index = np.arange(values.shape[1])
    out = np.empty((values.shape[0], k), dtype=np.int64)
    for r, row in enumerate(values):
        out[r] = np.lexsort((index, row))[:k]
    return out


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

    @pytest.mark.parametrize("k", [0, 6])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError, match="k must be"):
            smallest_k(np.zeros((2, 5)), k)


class TestPairwiseSqDists:
    def test_precomputed_norms_bit_identical(self, rng):
        q = rng.normal(size=(7, 5))
        p = rng.normal(size=(11, 5)) + 1e3
        np.testing.assert_array_equal(pairwise_sq_dists(q, p, sq_norms(p)),
                                      pairwise_sq_dists(q, p))

    def test_out_buffer_bit_identical(self, rng):
        p = rng.normal(size=(40, 30))
        buf = np.empty(50 * 50)
        got = pairwise_sq_dists(p, p, out=buf[:40 * 40].reshape(40, 40))
        assert np.shares_memory(got, buf)
        assert got.tobytes() == pairwise_sq_dists(p, p).tobytes()
