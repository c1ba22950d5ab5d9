"""The package must not call LAPACK/BLAS through ``scipy.linalg``.

scipy's wheel bundles its own OpenBLAS next to numpy's, and each keeps a
thread pool. When both run in one process their threads contend for the
cores. On a 2-vCPU host with 2 OpenBLAS threads, a d=300 ``cho_factor`` took
1.2 ms alone but a median 3.6 ms (upper quartile 10.8 ms) inside the CV
fits of one move-labeled split, and numpy's own GEMMs slowed with it (the
k-NN distance time of a full cross-validated protocol on 3000 x 300 data
halved once the solve moved to numpy). So every dense linear algebra call
goes through numpy.
``scipy.sparse`` (its own C++ kernels) stays.

The package must not import ``scipy.stats`` either: loading it costs about
48 MB of resident memory in every process, for nothing numpy cannot rank or
count itself.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hubridge

SOURCES = sorted(Path(hubridge.__file__).parent.glob("*.py"))


def _imports_of(path: Path, module: str) -> list[str]:
    """Every import of ``module`` or one of its submodules in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {n}" for n in names
                  if n == module or n.startswith(module + ".")]
    return found


def test_sources_found():
    assert {"transform.py", "modelselect.py"} <= {p.name for p in SOURCES}


def test_no_scipy_linalg_import():
    assert [hit for p in SOURCES for hit in _imports_of(p, "scipy.linalg")] == []


def test_no_scipy_stats_import():
    assert [hit for p in SOURCES for hit in _imports_of(p, "scipy.stats")] == []


def test_cli_loads_without_scipy_stats():
    # scipy.sparse does not pull it in; a module that did would show here
    code = "import sys, hubridge.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(hubridge.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
