"""The benchmark's tracer must find every function it names in hubridge.

``perfbench/spans.py`` wraps each binding listed in ``LAYERS``; renaming or
moving a traced function would otherwise surface only in the benchmark's own
test suite. This test imports that module as it is and checks that every
listed name resolves to a binding, is wrapped while the tracer is installed,
and is restored on exit.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import hubridge  # noqa: F401  (loads every hubridge module the tracer scans)
from hubridge.datamodel import dataset_from_arrays
from hubridge.experiment import fit_timed

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(owner: str, attr: str):
    """The object ``owner.attr`` names, looked up in the class dict for a method."""
    holder = sys.modules[owner]
    *path, name = attr.split(".")
    for part in path:
        holder = getattr(holder, part)
    assert name in vars(holder), f"{owner}.{attr} does not exist"
    return vars(holder)[name]


def test_every_traced_binding_resolves_and_is_restored():
    spans = load_spans()
    tracer = spans.Tracer()
    bindings = list(tracer._bindings())
    bound = [original for _, _, original, _ in bindings]
    for owner, attr, span, _ in spans.LAYERS:
        original = resolve(owner, attr)
        assert any(b is original for b in bound), f"{owner}.{attr} ({span}) has no binding"

    with tracer.installed():
        for holder, key, original, _ in bindings:
            assert vars(holder)[key] is not original, f"{holder.__name__}.{key} not wrapped"
    for holder, key, original, _ in bindings:
        assert vars(holder)[key] is original, f"{holder.__name__}.{key} not restored"


def test_fit_timed_counts_one_selection_and_one_fit():
    # the benchmark's per-layer counts read fit_timed's (d, n) argument; a
    # change that passed rows instead would move transform.gram_gflop
    rng = np.random.default_rng(0)
    n, d = 60, 7
    ds = dataset_from_arrays(rng.normal(size=(n, d)), np.arange(n) % 3)
    tracer = load_spans().Tracer()
    with tracer.installed():
        fit_timed(ds, "move-labeled", 0.1, 1, "paper")
    metrics = tracer.layer_metrics()
    assert metrics["transform.fit_calls"] == 1
    assert metrics["targets.select_calls"] == 1
    assert metrics["transform.gram_gflop"] == 4.0 * d * d * n / 1e9
