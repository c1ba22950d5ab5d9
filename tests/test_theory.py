import math

import numpy as np
import pytest
import scipy.stats

from hubridge.hubness import nk_counts
from hubridge import theory
from hubridge.knn import Dissimilarity, build_knn_model, neighbor_index_matrix
from hubridge.theory import (CentralityExperiment, CentralityResult,
                             PairConstructionError, largest_scale, simulate_delta,
                             squared_norm_std, theoretical_delta)


def hub_tendency_demo(d: int, s_data: float, n_data: int, n_queries: int,
                      seed: int) -> float:
    """Rank correlation between closeness-to-origin and 10-occurrence counts.

    Samples data from N(0, s_data^2 I) and queries from N(0, I); positive
    values mean central points hog the neighbor lists, which is the
    expected regime once d is large.
    """
    if n_data < 20:
        raise ValueError("n_data must be >= 20")
    rng = np.random.default_rng(seed)
    data = rng.normal(0.0, s_data, size=(n_data, d))
    queries = rng.normal(0.0, 1.0, size=(n_queries, d))
    model = build_knn_model(data, np.zeros(n_data, dtype=np.int64), k=10,
                            dissimilarity=Dissimilarity())
    counts = nk_counts(neighbor_index_matrix(model, queries), n_data)
    closeness = -np.linalg.norm(data, axis=1)
    if np.ptp(counts) == 0 or np.ptp(closeness) == 0:
        return 0.0
    return float(scipy.stats.spearmanr(closeness, counts).statistic)


class TestTheoreticalDelta:
    def test_zero_gamma(self):
        for d, s in [(1, 0.5), (10, 1.0), (300, 2.0)]:
            assert theoretical_delta(d, s, 0.0) == 0.0

    def test_direct_evaluations(self):
        assert np.isclose(theoretical_delta(2, 1.0, 1.0), 2.0)
        assert np.isclose(theoretical_delta(300, 0.5, 2.0), 2 * 0.25 * math.sqrt(600))

    def test_linear_in_gamma_and_s_squared(self):
        # exact algebraic identities on a grid
        for d in (1, 7, 64):
            for s in (0.25, 1.0, 3.0):
                for g in (-2.0, 0.5, 4.0):
                    base = theoretical_delta(d, s, g)
                    assert np.isclose(theoretical_delta(d, s, 2 * g), 2 * base)
                    assert np.isclose(theoretical_delta(d, 2 * s, g), 4 * base)

    def test_sqrt_d_scaling(self):
        assert np.isclose(theoretical_delta(100, 1.0, 1.0),
                          math.sqrt(4) * theoretical_delta(25, 1.0, 1.0))

    def test_sigma_identity(self):
        # sigma of ||z||^2 for z ~ N(0, s^2 I): verified by simulation
        rng = np.random.default_rng(11)
        z = rng.normal(0.0, 0.7, size=(200_000, 40))
        sq = (z ** 2).sum(axis=1)
        assert np.isclose(sq.std(), squared_norm_std(40, 0.7), rtol=0.02)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            theoretical_delta(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            theoretical_delta(5, 0.0, 1.0)


class TestSimulateDelta:
    def test_zero_gamma_centered(self):
        r = simulate_delta(CentralityExperiment(d=50, s=1.0, gamma=0.0,
                                                n_queries=50_000, seed=5))
        assert abs(r.delta_hat - 0.0) < 3 * r.std_error

    def test_std_error_matches_two_pass_at_large_s(self):
        # at s = 1e8 the mean difference is ~5e7 times its spread, and
        # (sum d^2 - n mean^2) / (n - 1) read 1.94e7 for the 2.50e7 here
        exp = CentralityExperiment(d=300, s=1e8, gamma=1.0, n_queries=40_000, seed=0)
        rng = np.random.default_rng(exp.seed)
        z1, z2 = theory._conditioned_pair(rng, exp.d, exp.s, exp.gamma)
        diffs = []
        for start in range(0, exp.n_queries, theory._DRAW_CHUNK):
            x = rng.normal(size=(min(theory._DRAW_CHUNK, exp.n_queries - start), exp.d))
            diffs.append(((x - z2) ** 2).sum(axis=1) - ((x - z1) ** 2).sum(axis=1))
        diffs = np.concatenate(diffs)
        r = simulate_delta(exp)
        assert r.std_error == pytest.approx(diffs.std(ddof=1) / math.sqrt(exp.n_queries),
                                            rel=1e-6)
        assert r.delta_hat == pytest.approx(diffs.mean(), rel=1e-12)

    @pytest.mark.parametrize("s", [1e16, 1e18])
    def test_std_error_scales_with_s(self, s):
        # the same seed draws the same pair up to the factor s, and the same
        # queries, so the standard error is s times that at s = 1, near
        # s sqrt(8 d / n); differencing the two ~s^2 d sums per query read
        # 3.54 times that at s = 1e16 and 0.0 at 1e18
        cell = {"d": 300, "gamma": 1.0, "n_queries": 1000, "seed": 0}
        unit = simulate_delta(CentralityExperiment(s=1.0, **cell))
        r = simulate_delta(CentralityExperiment(s=s, **cell))
        assert r.std_error == pytest.approx(s * unit.std_error, rel=1e-9)
        assert r.std_error == pytest.approx(s * math.sqrt(8 * 300 / 1000), rel=0.1)
        assert r.delta_hat == pytest.approx(r.delta_theory, rel=1e-12)

    @pytest.mark.parametrize("field, value", [("s", 1e160), ("s", math.inf), ("s", math.nan),
                                              ("s", 0.0), ("gamma", math.nan),
                                              ("gamma", math.inf)])
    def test_out_of_range_rejected_before_any_draw(self, monkeypatch, field, value):
        def refuse(*args, **kwargs):
            raise AssertionError("a draw was made before the check")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        cell = {"d": 300, "s": 1.0, "gamma": 1.0, "n_queries": 100, "seed": 0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be "):
            CentralityExperiment(**cell)

    @pytest.mark.parametrize("d, gamma, n", [(300, 1.0, 100), (1, 0.0, 2), (1, 50.0, 3),
                                             (1000, -1.0, 20_000), (2, 1e6, 10)])
    def test_largest_accepted_s_stays_finite(self, d, gamma, n):
        s = largest_scale(d, gamma, n)
        with pytest.raises(ValueError, match="^s must be at most .* float64 range"):
            CentralityExperiment(d=d, s=np.nextafter(s, math.inf), gamma=gamma,
                                 n_queries=n, seed=0)
        with np.errstate(over="raise", invalid="raise"):
            r = simulate_delta(CentralityExperiment(d=d, s=s, gamma=gamma, n_queries=n,
                                                    seed=0))
        assert all(map(math.isfinite, (r.delta_hat, r.delta_theory, r.std_error)))
        assert r.delta_hat == pytest.approx(r.delta_theory, rel=1e-6, abs=s * s)

    def test_matches_theory_d300(self):
        exp = CentralityExperiment(d=300, s=1.0, gamma=1.0,
                                   n_queries=100_000, seed=17)
        r = simulate_delta(exp)
        assert np.isclose(r.delta_theory, math.sqrt(600))
        assert abs(r.delta_hat - r.delta_theory) < 3 * r.std_error

    def test_zero_mean_distance_identity(self):
        # E||x - z||^2 = E||x||^2 + ||z||^2 for zero-mean x, fixed z
        rng = np.random.default_rng(3)
        d = 60
        z = rng.normal(size=d)
        x = rng.normal(size=(100_000, d))
        lhs = ((x - z) ** 2).sum(axis=1).mean()
        rhs = (x ** 2).sum(axis=1).mean() + float(z @ z)
        assert np.isclose(lhs, rhs, rtol=5e-3)

    def test_std_error_scales_inverse_sqrt(self):
        small = simulate_delta(CentralityExperiment(d=100, s=1.0, gamma=1.0,
                                                    n_queries=50_000, seed=7))
        big = simulate_delta(CentralityExperiment(d=100, s=1.0, gamma=1.0,
                                                  n_queries=100_000, seed=7))
        ratio = big.std_error / small.std_error
        assert abs(ratio - 1 / math.sqrt(2)) < 0.2 / math.sqrt(2)

    def test_deterministic(self):
        exp = CentralityExperiment(d=20, s=0.5, gamma=2.0, n_queries=10_000, seed=9)
        a, b = simulate_delta(exp), simulate_delta(exp)
        assert a == b

    def test_pathological_gamma_fails_construction(self):
        # d=1: sigma = s^2 sqrt(2); a large negative gamma demands a
        # negative squared norm
        with pytest.raises(PairConstructionError):
            simulate_delta(CentralityExperiment(d=1, s=1.0, gamma=-50.0,
                                                n_queries=10, seed=0))

    def test_result_fields(self):
        r = simulate_delta(CentralityExperiment(d=10, s=1.0, gamma=1.0,
                                                n_queries=100, seed=1))
        assert isinstance(r, CentralityResult)
        assert r.std_error >= 0

    def test_one_query_has_zero_std_error(self):
        # a sample variance needs two draws
        r = simulate_delta(CentralityExperiment(d=10, s=1.0, gamma=1.0, n_queries=1, seed=1))
        assert r.std_error == 0.0 and np.isfinite(r.delta_hat)


class TestHubTendency:
    """The paper's hubness premise: central points gather neighbors once d is large."""

    def test_high_dimension_strong_positive(self):
        rho = hub_tendency_demo(d=300, s_data=1.0, n_data=500,
                                n_queries=2000, seed=0)
        assert rho > 0.3  # threshold calibrated once: observed ~0.98

    def test_low_dimension_weak(self):
        rho = hub_tendency_demo(d=1, s_data=1.0, n_data=2000,
                                n_queries=20000, seed=0)
        assert abs(rho) < 0.15  # observed ~0.002

    def test_deterministic(self):
        a = hub_tendency_demo(d=50, s_data=1.0, n_data=100, n_queries=500, seed=4)
        b = hub_tendency_demo(d=50, s_data=1.0, n_data=100, n_queries=500, seed=4)
        assert a == b

    def test_minimum_data(self):
        with pytest.raises(ValueError, match="n_data"):
            hub_tendency_demo(d=5, s_data=1.0, n_data=10, n_queries=50, seed=0)
