"""Real arrays and sequences have one owner, ``_arrays``: ``as_reals`` checks every real
matrix and vector the package takes, and ``as_tuple`` every sequence. A hand-written
copy of either rule drifts in its wording and misses holes (a list where an ndarray was
assumed, a str entry, an int past float64's range, an empty grid), so:

- outside ``_arrays.py`` no module reads ``.ndim`` or calls ``np.iterable``;
- ``np.isfinite`` appears only in ``datamodel``'s four loader functions, which check
  numbers parsed from text before any array is built;
- ``CvConfig``, ``ExperimentConfig``, ``check_methods`` and ``RidgeSystem.path`` loop
  over no sequence by hand to check it.

The loaders read a file in sized blocks, never whole: ``datamodel`` calls no
``read_bytes`` or ``read_text`` and no ``.read()``, ``.readline()`` or ``.readlines()``
without a size, and reads its blocks with a sized ``.readlines()``.
"""

import ast
from pathlib import Path

import hubridge

SOURCES = sorted(Path(hubridge.__file__).parent.glob("*.py"))
LOADERS = {"_dense_csv_rows", "_sparse_pairs_fault", "_sparse_pairs_blocks"}
# (module, class or None, function) of each checker that hands its sequences to as_tuple
CHECKERS = [("modelselect", "CvConfig", "__post_init__"), ("modelselect", None, "check_methods"),
            ("experiment", "ExperimentConfig", "__post_init__"),
            ("transform", "RidgeSystem", "path")]
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _tree(module: str) -> ast.Module:
    path = Path(hubridge.__file__).parent / f"{module}.py"
    return ast.parse(path.read_text(), str(path))


def _uses(node: ast.AST, name: str) -> set[int]:
    """Line numbers under ``node`` that read ``x.name`` or the bare name ``name``."""
    return {n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and n.attr == name
            or isinstance(n, ast.Name) and n.id == name}


def _function(module: str, cls: str | None, name: str) -> ast.FunctionDef:
    scope = _tree(module)
    if cls is not None:
        scope = next(n for n in scope.body if isinstance(n, ast.ClassDef) and n.name == cls)
    return next(n for n in scope.body if isinstance(n, ast.FunctionDef) and n.name == name)


def test_sources_found():
    assert {"_arrays.py", "datamodel.py", "knn.py"} <= {p.name for p in SOURCES}


def test_no_rank_or_iterable_test_outside_arrays():
    hits = [f"{p.name}:{line} {name}" for p in SOURCES if p.name != "_arrays.py"
            for name in ("ndim", "iterable")
            for line in sorted(_uses(ast.parse(p.read_text(), str(p)), name))]
    assert hits == []


def test_isfinite_only_in_the_loaders():
    hits = []
    for p in SOURCES:
        if p.name == "_arrays.py":
            continue
        tree = ast.parse(p.read_text(), str(p))
        lines = _uses(tree, "isfinite")
        if p.name == "datamodel.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name in LOADERS:
                    lines -= _uses(node, "isfinite")
        hits += [f"{p.name}:{line}" for line in sorted(lines)]
    assert hits == []


def test_loaders_still_check_parsed_numbers():
    # the exemption above names real functions, each of which checks what it parsed
    tree = _tree("datamodel")
    found = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)
             and n.name in LOADERS and _uses(n, "isfinite")}
    assert found == LOADERS


def test_checkers_loop_over_no_sequence():
    hits = []
    for module, cls, name in CHECKERS:
        fn = _function(module, cls, name)
        loops = [n for n in ast.walk(fn) if isinstance(n, LOOPS)]
        if name == "path":  # its one loop solves at each lambda, after as_tuple checked them
            loops = [n for n in loops if not isinstance(n, ast.For)] + [
                n for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id == "enumerate"]
        hits += [f"{module}.{cls or ''}.{name}:{n.lineno}" for n in loops]
    assert hits == []


def test_loaders_read_no_file_whole():
    tree = _tree("datamodel")
    hits = sorted(_uses(tree, "read_bytes") | _uses(tree, "read_text"))
    sized = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call) and n.args}
    hits += sorted(n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                   and n.attr in ("read", "readline", "readlines") and id(n) not in sized)
    assert hits == []
    # the blocks are read with a size
    assert sized & {id(n) for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute) and n.attr == "readlines"}
