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


def _broadcast_sites(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function, line) of every pairwise-difference broadcast."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if _is_pairwise_broadcast(node):
            sites.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


def test_scan_detects_broadcasts():
    tree = ast.parse("def f(a, b):\n    return a[:, None, :] - b[..., None, :]\n"
                     "x = y[None, :]\nz = w[:, None]\n")
    assert _broadcast_sites(tree) == [("f", 2), ("f", 2)]


def test_only_sqdist_builds_pairwise_differences():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func, line in _broadcast_sites(tree):
            if not (path.name == "landscape.py" and func == "sqdist"):
                offenders.append(f"{path.name}:{line} in {func}")
    assert offenders == []
