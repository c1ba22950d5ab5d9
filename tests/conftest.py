import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)


@pytest.fixture
def re_ranked(monkeypatch):
    """The number of entries each exact re-rank of ``hubridge.knn`` takes, as the test runs."""
    from hubridge import knn

    seen = []
    real = knn._direct_sq_dists

    def spy(q, points, rows, cols):
        seen.append(rows.size)
        return real(q, points, rows, cols)

    monkeypatch.setattr(knn, "_direct_sq_dists", spy)
    return seen
