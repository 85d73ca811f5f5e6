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


def _broadcast_sites(tree: ast.AST, matches=_is_pairwise_broadcast) -> list[tuple[str, int]]:
    """(enclosing function, line) of every subscript that matches."""
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
            for func, line in _broadcast_sites(
                ast.parse(path.read_text(encoding="utf-8")), matches)]


def test_scan_detects_broadcasts():
    tree = ast.parse("def f(a, b):\n    return a[:, None, :] - b[..., None, :]\n"
                     "def g(w, p):\n    return (w[..., :, None] * p).sum(-2) + w[:, :, None]\n"
                     "x = y[None, :]\nz = w[:, None]\nv = u[:, None, None]\n")
    assert _broadcast_sites(tree) == [("f", 2), ("f", 2)]
    assert _broadcast_sites(tree, _is_product_broadcast) == [("g", 4), ("g", 4)]


def test_only_sqdist_builds_pairwise_differences():
    offenders = [f"{name}:{line} in {func}"
                 for name, func, line in _package_sites(_is_pairwise_broadcast)
                 if not (name == "landscape.py" and func == "sqdist")]
    assert offenders == []


def test_no_weighted_sum_builds_a_product_array():
    # weighted_sum contracts weights against points without the product
    assert _package_sites(_is_product_broadcast) == []
