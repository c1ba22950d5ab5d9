"""Monte-Carlo checks of the spatial-centrality bias behind hub formation.

For data z ~ N(0, s^2 I_d), the squared norm has standard deviation
sigma = s^2 sqrt(2d). Fix two data points whose squared norms differ by
gamma * sigma; for any zero-mean query distribution the expected squared
distances to them differ by exactly gamma * s^2 * sqrt(2d). The simulator
constructs such a pair explicitly and estimates the difference from fresh
query draws, so the estimate is unbiased and the standard error is pure
Monte-Carlo noise.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from ._arrays import FINITE, POSITIVE, as_count, as_real

_DRAW_CHUNK = 16384


class PairConstructionError(ValueError):
    """No data point with the required squared norm exists (too negative)."""


@dataclass(frozen=True)
class CentralityExperiment:
    """Configuration for one simulated pair-of-points experiment.

    ``gamma`` is the squared-norm gap in units of sigma. Queries are drawn from N(0, I).
    """

    d: int
    s: float
    gamma: float
    n_queries: int
    seed: int

    def __post_init__(self):
        as_count(self.d, "d", 1)
        as_count(self.n_queries, "n_queries", 1)
        as_count(self.seed, "seed", 0)
        for name, rule in (("gamma", FINITE), ("s", POSITIVE)):  # kept as Python floats
            object.__setattr__(self, name, as_real(getattr(self, name), name, rule))
        limit = largest_scale(self.d, self.gamma, self.n_queries)
        if not self.s <= limit:
            raise ValueError(f"s must be at most {limit!r} at d = {self.d}, gamma = "
                             f"{self.gamma!r} and {self.n_queries} queries, got {self.s!r}: "
                             "the simulation's sums would leave float64 range")


@dataclass(frozen=True)
class CentralityResult:
    """Monte-Carlo estimate vs. the closed-form value."""

    delta_hat: float
    delta_theory: float
    std_error: float


def largest_scale(d: int, gamma: float, n_queries: int) -> float:
    """The largest s a ``CentralityExperiment`` takes.

    The simulation's squared norms and squared distances are about M = s^2
    (d + |gamma| sqrt(2d)), and the largest sum it forms, of the squared
    deviations of their differences over the n_queries draws, about n M^2;
    s is bounded so that n M^2 stays 2^16 below float64's largest value,
    which leaves room for the normal draws' tails.
    """
    spread = d + abs(gamma) * math.sqrt(2.0 * d)
    return (float(np.finfo(np.float64).max) * 2.0 ** -16 / n_queries) ** 0.25 / math.sqrt(spread)


def squared_norm_std(d: int, s: float) -> float:
    """Standard deviation of ||z||^2 for z ~ N(0, s^2 I_d): s^2 sqrt(2d)."""
    return s * s * math.sqrt(2.0 * d)


def theoretical_delta(d: int, s: float, gamma: float) -> float:
    """Expected squared-distance difference gamma * s^2 * sqrt(2d)."""
    as_count(d, "d", 1)
    s, gamma = as_real(s, "s", POSITIVE), as_real(gamma, "gamma", FINITE)
    return gamma * s * s * math.sqrt(2.0 * d)


def _conditioned_pair(rng: np.random.Generator, d: int, s: float,
                      gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample z1 ~ N(0, s^2 I); construct z2 with ||z2||^2 = ||z1||^2 + gamma*sigma."""
    z1 = rng.normal(0.0, s, size=d)
    target = float(z1 @ z1) + gamma * squared_norm_std(d, s)
    if target < 0.0:
        raise PairConstructionError(
            f"required squared norm {target:.6g} is negative (gamma={gamma}, d={d})")
    direction = rng.normal(0.0, 1.0, size=d)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        raise PairConstructionError("degenerate direction draw")
    z2 = direction * (math.sqrt(target) / norm)
    return z1, z2


def simulate_delta(exp: CentralityExperiment) -> CentralityResult:
    """Estimate E||x - z2||^2 - E||x - z1||^2 over n_queries fresh draws of x."""
    rng = np.random.default_rng(exp.seed)
    z1, z2 = _conditioned_pair(rng, exp.d, exp.s, exp.gamma)

    # ||x - z2||^2 - ||x - z1||^2 = (||z2||^2 - ||z1||^2) - 2 x.(z2 - z1): the
    # constant is added once, and only the x-dependent part is summed and
    # spread: differencing the two ~s^2 d sums per query would round that part
    # away for large s.
    # Deviations are summed from a pivot, the first chunk's mean: summed from
    # 0, squares of a mean far above the spread cancel to noise in the variance
    offset = float(z2 @ z2) - float(z1 @ z1)
    slope = -2.0 * (z2 - z1)
    total = total_dev = total_dev_sq = 0.0
    pivot = None
    remaining = exp.n_queries
    while remaining > 0:
        m = min(_DRAW_CHUNK, remaining)
        x = rng.normal(0.0, 1.0, size=(m, exp.d))
        part = x @ slope
        total += float(part.sum())
        pivot = float(part.mean()) if pivot is None else pivot
        dev = part - pivot
        total_dev += float(dev.sum())
        total_dev_sq += float((dev ** 2).sum())
        remaining -= m

    n = exp.n_queries
    mean = offset + total / n
    if n > 1:
        var = max(0.0, (total_dev_sq - total_dev * total_dev / n) / (n - 1))
        std_error = math.sqrt(var / n)
    else:
        std_error = 0.0
    return CentralityResult(delta_hat=mean,
                            delta_theory=theoretical_delta(exp.d, exp.s, exp.gamma),
                            std_error=std_error)

