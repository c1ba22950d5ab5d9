"""The benchmark must find every hubridge name it traces or calls.

``perfbench/spans.py`` wraps each binding listed in ``LAYERS``, and
``perfbench/workloads.py`` calls hubridge through module attributes; renaming
or deleting one of those names would otherwise surface only when the
benchmark runs. These tests import the tracer as it is and check that every
listed name resolves to a binding, is wrapped while the tracer is installed,
and is restored on exit, and they scan the workloads' source for every
``module.attr...`` chain rooted at a hubridge import.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np

import hubridge  # noqa: F401  (loads every hubridge module the tracer scans)
from hubridge.datamodel import dataset_from_arrays
from hubridge.experiment import fit_timed

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WORKLOADS_PATH = SPANS_PATH.with_name("workloads.py")


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
    # select_targets builds J through indicator_matrix, so its span is timed
    assert tracer.calls("targets.indicator") == 1
    assert tracer.calls("targets.indicator", "targets.select") == 1
    # target selection's per-class lookups are charged to targets.select,
    # not counted as k-NN queries or k-NN distance blocks
    assert metrics["knn.neighbors_calls"] == 0 == metrics["knn.distance_cells"]
    assert metrics["transform.gram_gflop"] == 4.0 * d * d * n / 1e9


def hubridge_chains(tree: ast.Module) -> set[tuple[str, ...]]:
    """Every outermost attribute chain rooted at a name imported by ``from hubridge import``."""
    roots = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "hubridge"
             for a in node.names}
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    chains = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in roots:
            chains.add((node.id, *reversed(parts)))
    return chains


def test_every_workload_call_resolves():
    tree = ast.parse(WORKLOADS_PATH.read_text())
    chains = hubridge_chains(tree)
    assert {c[0] for c in chains} == {"datamodel", "experiment", "knn"}
    for chain in sorted(chains):
        holder = hubridge
        for part in chain:
            assert hasattr(holder, part), f"hubridge.{'.'.join(chain)} does not exist"
            holder = getattr(holder, part)
    for node in ast.walk(tree):  # names imported directly from a hubridge module
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hubridge."):
            module = importlib.import_module(node.module)
            for a in node.names:
                assert hasattr(module, a.name), f"{node.module}.{a.name} does not exist"
