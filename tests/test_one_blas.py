"""The package must not call LAPACK/BLAS through ``scipy.linalg``.

scipy's wheel bundles its own OpenBLAS next to numpy's, and each keeps a
thread pool. When both run in one process their threads contend for the
cores. On a 2-vCPU host with 2 OpenBLAS threads, a d=300 ``cho_factor`` took
1.2 ms alone but a median 3.6 ms (upper quartile 10.8 ms) inside the CV
fits of one move-labeled split, and numpy's own GEMMs slowed with it (the
k-NN distance time of a full cross-validated protocol on 3000 x 300 data
halved once the solve moved to numpy). So every dense linear algebra call
goes through numpy.
``scipy.sparse`` (its own C++ kernels) and ``scipy.stats`` stay.
"""

import ast
from pathlib import Path

import hubridge

SOURCES = sorted(Path(hubridge.__file__).parent.glob("*.py"))


def _linalg_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {n}" for n in names
                  if n == "scipy.linalg" or n.startswith("scipy.linalg.")]
    return found


def test_sources_found():
    assert {"transform.py", "modelselect.py"} <= {p.name for p in SOURCES}


def test_no_scipy_linalg_import():
    assert [hit for p in SOURCES for hit in _linalg_imports(p)] == []
