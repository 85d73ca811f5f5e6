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


def test_only_the_softmax_helper_calls_exp():
    # energy, weights, energy_grad and the soft k-NN weights share one
    # max-shifted softmax; the Gaussian smoothing kernel is not a softmax
    allowed = {("landscape.py", "_softmax"), ("abstraction.py", "_gaussian_kernel")}
    offenders = [f"{name}:{line} in {func}"
                 for name, func, line in _package_sites(_is_np_exp)
                 if (name, func) not in allowed]
    assert offenders == []
