"""Source scans that keep the package's shared kernels the only copies."""

import ast
from pathlib import Path

import landscape_lab

PACKAGE = Path(landscape_lab.__file__).parent


def _is_pairwise_broadcast(node: ast.AST) -> bool:
    """True for subscripts shaped [:, None, :] or [..., None, :]."""
    if not isinstance(node, ast.Subscript) or not isinstance(node.slice, ast.Tuple):
        return False
    elts = node.slice.elts
    return (len(elts) == 3
            and (isinstance(elts[0], ast.Slice)
                 or (isinstance(elts[0], ast.Constant) and elts[0].value is Ellipsis))
            and isinstance(elts[1], ast.Constant) and elts[1].value is None
            and isinstance(elts[2], ast.Slice))


def _is_product_broadcast(node: ast.AST) -> bool:
    """True for subscripts shaped [:, :, None] or [..., :, None]: weights
    (rows, n) lifted to multiply points (n, d) into a (rows, n, d) product."""
    if not isinstance(node, ast.Subscript) or not isinstance(node.slice, ast.Tuple):
        return False
    elts = node.slice.elts
    return (len(elts) == 3
            and (isinstance(elts[0], ast.Slice)
                 or (isinstance(elts[0], ast.Constant) and elts[0].value is Ellipsis))
            and isinstance(elts[1], ast.Slice)
            and isinstance(elts[2], ast.Constant) and elts[2].value is None)


def _is_np_exp(node: ast.AST) -> bool:
    """True for a reference to np.exp, called or not."""
    return (isinstance(node, ast.Attribute) and node.attr == "exp"
            and isinstance(node.value, ast.Name) and node.value.id == "np")


def _is_softmax_reference(node: ast.AST) -> bool:
    """True for a name, attribute or import of _softmax."""
    return ((isinstance(node, ast.Name) and node.id == "_softmax")
            or (isinstance(node, ast.Attribute) and node.attr == "_softmax")
            or (isinstance(node, ast.alias) and node.name == "_softmax"))


def _sites(tree: ast.AST, matches=_is_pairwise_broadcast) -> list[tuple[str, int]]:
    """(enclosing function, line) of every node that matches."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if matches(node):
            sites.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


def _package_sites(matches) -> list[tuple[str, str, int]]:
    return [(path.name, func, line)
            for path in sorted(PACKAGE.glob("*.py"))
            for func, line in _sites(
                ast.parse(path.read_text(encoding="utf-8")), matches)]


def test_scan_detects_broadcasts():
    tree = ast.parse("def f(a, b):\n    return a[:, None, :] - b[..., None, :]\n"
                     "def g(w, p):\n    return (w[..., :, None] * p).sum(-2) + w[:, :, None]\n"
                     "x = y[None, :]\nz = w[:, None]\nv = u[:, None, None]\n")
    assert _sites(tree) == [("f", 2), ("f", 2)]
    assert _sites(tree, _is_product_broadcast) == [("g", 4), ("g", 4)]


def test_scan_detects_exp():
    # a planted copy of a standalone softmax, plus a bare reference
    tree = ast.parse("def soft(d, tau):\n    s = -d / tau\n    s = s - s.max()\n"
                     "    w = np.exp(s)\n    return w / w.sum()\n"
                     "f = np.exp\ny = math.exp(1.0) + np.expm1(0.0)\n")
    assert _sites(tree, _is_np_exp) == [("soft", 4), (None, 6)]


def test_only_sqdist_builds_pairwise_differences():
    # sqdist adds one coordinate's squares at a time, so nothing in the
    # package, sqdist included, builds an (..., n, d) difference array
    assert _package_sites(_is_pairwise_broadcast) == []


def test_no_weighted_sum_builds_a_product_array():
    # weighted_sum contracts weights against points without the product
    assert _package_sites(_is_product_broadcast) == []


def test_scan_detects_softmax_references():
    tree = ast.parse("from landscape_lab.landscape import _softmax\n"
                     "def f(s):\n    return landscape._softmax(s), _softmax(s)\n")
    assert [line for _, line in _sites(tree, _is_softmax_reference)] == [1, 3, 3]


def test_only_landscape_references_the_softmax_helper():
    # every softmax weight outside landscape.py, the soft k-NN weights
    # included, is read from an EnergyLandscape, not from the helper
    assert {name for name, _, _ in _package_sites(_is_softmax_reference)} == {
        "landscape.py"}


def test_only_the_softmax_helper_calls_exp():
    # energy, weights and energy_grad share one max-shifted softmax, and
    # the soft k-NN weights are EnergyLandscape.weights at beta = 2 / tau
    allowed = {("landscape.py", "_softmax")}
    offenders = [f"{name}:{line} in {func}"
                 for name, func, line in _package_sites(_is_np_exp)
                 if (name, func) not in allowed]
    assert offenders == []


def _is_argmin(node: ast.AST) -> bool:
    """True for a name, attribute or import of argmin, called or not."""
    return ((isinstance(node, ast.Name) and node.id == "argmin")
            or (isinstance(node, ast.Attribute) and node.attr == "argmin")
            or (isinstance(node, ast.alias) and node.name == "argmin"))


def test_scan_detects_argmin():
    # a planted second nearest-memory routine, beside the other spellings
    tree = ast.parse("def nearest_drawn(d, undrawn):\n    d[undrawn] = np.inf\n"
                     "    return d.argmin(axis=1)\n"
                     "from numpy import argmin\ni = np.argmin(x) + argmin(y)\n"
                     "j = np.argmax(x) + np.argsort(y)[0]\n")
    assert _sites(tree, _is_argmin) == [("nearest_drawn", 3), (None, 4), (None, 5),
                                        (None, 5)]


def test_only_nearest_memory_takes_an_argmin():
    # EnergyLandscape.nearest_memory is the package's one nearest-memory
    # routine: the census, the bootstrap rounds and flow's basin index all
    # classify through it, bootstrap rows with their rounds' log-counts
    allowed = {("landscape.py", "nearest_memory")}
    offenders = [f"{name}:{line} in {func}"
                 for name, func, line in _package_sites(_is_argmin)
                 if (name, func) not in allowed]
    assert offenders == []
    assert {(name, func) for name, func, _ in _package_sites(_is_argmin)} == allowed


def _is_labels_read(node: ast.AST) -> bool:
    """True for a load of an attribute named labels."""
    return (isinstance(node, ast.Attribute) and node.attr == "labels"
            and isinstance(node.ctx, ast.Load))


def test_scan_detects_labels_reads():
    # a planted private class map, beside a store and a bare name
    tree = ast.parse("def f(mem):\n    column = {c: j for j, c in enumerate(mem.classes())}\n"
                     "    return [column[y] for y in mem.labels]\n"
                     "def g(mem, y, labels):\n    mem.labels = y\n    return labels\n")
    assert _sites(tree, _is_labels_read) == [("f", 3)]


def test_only_the_numeric_mean_reads_labels_outside_landscape():
    # MemorySet decides once which labels name a class: every other module
    # reads classes() and class_index, and only knn's weighted label mean
    # reads the labels themselves
    allowed = {("knn.py", "_predict_one")}
    offenders = [f"{name}:{line} in {func}"
                 for name, func, line in _package_sites(_is_labels_read)
                 if name != "landscape.py" and (name, func) not in allowed]
    assert offenders == []


def _imported_names(tree: ast.AST) -> list[tuple[str, int]]:
    """(bound name, line) of every import but __future__'s; `import a.b`
    binds a."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [(a.asname or a.name, node.lineno) for a in node.names]
    return names


def _unread_imports(tree: ast.AST) -> list[tuple[str, int]]:
    """Imports whose name the module never loads."""
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(name, line) for name, line in _imported_names(tree) if name not in loaded]


def test_scan_detects_unread_imports():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
                     "from typing import Callable, Sequence\nfrom m import a as b\n"
                     "def f(x: Sequence) -> None:\n    return np.sum(os.path.sep)\n")
    assert _unread_imports(tree) == [("Callable", 4), ("b", 5)]


def test_every_import_is_read():
    # __init__ imports to re-export; every other module reads what it imports
    offenders = [f"{path.name}:{line} {name}"
                 for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
                 for name, line in _unread_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert offenders == []


def _is_thread_start(node: ast.AST) -> bool:
    """True for a name, attribute or import of a thread or thread pool class."""
    names = {"ThreadPoolExecutor", "Thread", "ProcessPoolExecutor"}
    return ((isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.alias) and node.name in names))


def test_only_ordered_map_starts_threads():
    # flow chunks and diversity tiles share one pool helper
    assert {(name, func) for name, func, _ in _package_sites(_is_thread_start)} == {
        ("dynamics.py", None), ("dynamics.py", "ordered_map")}


def _is_setbufsize(node: ast.AST) -> bool:
    """True for a name, attribute or import of numpy's setbufsize."""
    return ((isinstance(node, ast.Name) and node.id == "setbufsize")
            or (isinstance(node, ast.Attribute) and node.attr == "setbufsize")
            or (isinstance(node, ast.alias) and node.name == "setbufsize"))


def test_scan_detects_setbufsize():
    tree = ast.parse("from numpy import setbufsize\n"
                     "def f():\n    np.setbufsize(256)\n    g = setbufsize\n")
    assert _sites(tree, _is_setbufsize) == [(None, 1), ("f", 3), ("f", 4)]


def test_only_the_scoped_helper_sets_the_ufunc_buffer():
    # the ufunc buffer size is set in one scope that restores it, never
    # process-wide
    assert {(name, func) for name, func, _ in _package_sites(_is_setbufsize)} == {
        ("landscape.py", "_small_ufunc_buffer")}


_REDUCTIONS = {"sum", "max", "min", "argmin", "sort", "einsum", "_memory_sum"}


def _is_reduction_call(node: ast.AST) -> bool:
    """True for a call of a reduction: a method or function named in
    _REDUCTIONS, or add.reduce."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in _REDUCTIONS or (
            func.attr == "reduce" and isinstance(func.value, ast.Attribute)
            and func.value.attr == "add")
    return isinstance(func, ast.Name) and func.id in _REDUCTIONS


def _is_small_buffer_call(node: ast.AST) -> bool:
    """True for a call of _small_ufunc_buffer, by name or attribute."""
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "_small_ufunc_buffer")
        or (isinstance(node.func, ast.Attribute)
            and node.func.attr == "_small_ufunc_buffer"))


def _enters_small_buffer(node: ast.AST) -> bool:
    """True for a with statement that enters _small_ufunc_buffer."""
    return isinstance(node, ast.With) and any(
        _is_small_buffer_call(item.context_expr) for item in node.items)


def _is_scoped_reduction(node: ast.AST) -> bool:
    """True for a with statement that enters _small_ufunc_buffer and calls
    a reduction anywhere in its body, nested functions included."""
    return _enters_small_buffer(node) and any(
        _is_reduction_call(n) for stmt in node.body for n in ast.walk(stmt))


def test_scan_detects_reductions_in_the_small_buffer():
    tree = ast.parse(
        "def f(t, w, p):\n"
        "    with _small_ufunc_buffer(True):\n        t *= t\n"
        "    with _small_ufunc_buffer(True):\n        s = t.sum()\n"
        "    with landscape._small_ufunc_buffer(True), open('x'):\n"
        "        def g():\n            return np.add.reduce(t, axis=0)\n"
        "    with _small_ufunc_buffer(False):\n        np.einsum('n,nd->d', w, p)\n"
        "    with open('x'):\n        t.max()\n"
        "    with _small_ufunc_buffer(True):\n        np.add(t, t, out=t)\n"
        "    with _small_ufunc_buffer(True):\n        u = _memory_sum(t)\n")
    assert _sites(tree, _is_scoped_reduction) == [("f", 4), ("f", 6), ("f", 9), ("f", 15)]


def test_no_reduction_runs_in_the_small_buffer():
    # a reduction's inner loop may be split by the ufunc buffer, so the
    # buffer could change its bits; elementwise ufuncs cannot, and they
    # are all that runs in any _small_ufunc_buffer scope
    assert _package_sites(_is_scoped_reduction) == []
    assert [(name, func) for name, func, _ in _package_sites(_enters_small_buffer)] == [
        ("landscape.py", "sqdist")] * 2
