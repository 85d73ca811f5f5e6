"""Every public name and every name the benchmark's tracer wraps exists.

labbench/tracer.py wraps landscape_lab functions and methods by name when a
traced benchmark run starts; a deleted or renamed one would otherwise
surface only there. Every public name is read by the library, the
benchmark or the acceptance suite, and each defaulted parameter of the
library is passed by some call there. Importing the package loads no scipy
submodule.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import landscape_lab

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "labbench" / "tracer.py"


def _tracer_targets():
    # executed from its source text, so nothing is written next to it
    namespace = {"__name__": "labbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["TARGETS"]


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    for module_name, attr, span, _ in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), span
        else:
            assert callable(getattr(module, attr, None)), span


def test_public_names_exist():
    missing = [name for name in landscape_lab.__all__ if not hasattr(landscape_lab, name)]
    assert missing == []


def _loads(path: Path) -> set[tuple[tuple[Path, str | None], str]]:
    """((path, top-level definition or None), name) of every name and
    attribute the file loads."""
    out = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = (path, getattr(stmt, "name", None))
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add((owner, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add((owner, node.attr))
    return out


def _unread_public_names() -> list[str]:
    """Public names that no library module but __init__, no labbench
    script (labbench/twin is a frozen copy) and no acceptance test reads
    outside the name's own definition. A read inside the definition of
    another unread public name does not count, so a class that only an
    unread function builds is unread too."""
    package = Path(landscape_lab.__file__).parent
    readers = ([p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
               + sorted((ROOT / "labbench").glob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"])
    loads = set().union(*map(_loads, readers))
    home = {name: (Path(inspect.getsourcefile(getattr(landscape_lab, name))), name)
            for name in landscape_lab.__all__}
    unread: set[str] = set()
    while True:
        dead = {home[name] for name in unread}
        read = {name for owner, name in loads if owner != home.get(name) and owner not in dead}
        now = set(landscape_lab.__all__) - read
        if now == unread:
            return sorted(unread)
        unread = now


def test_every_public_name_is_read():
    unread = _unread_public_names()
    assert not unread, f"public names that nothing reads: {', '.join(unread)}"


def _defaulted_parameters(tree: ast.AST) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, position) of each defaulted parameter
    of every function and method in tree. A method's positions do not count
    self, and an __init__ is called by its class's name. Keyword-only
    parameters have no position."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = int(cls is not None and not static)
                name = cls if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                out.extend((name, a.arg, i - skip)
                           for i, a in enumerate(positional) if i >= first)
                out.extend((name, a.arg, None)
                           for a, d in zip(args.kwonlyargs, args.kw_defaults)
                           if d is not None)
                visit(child, None)

    visit(tree, None)
    return out


def _calls(tree: ast.AST) -> dict[str, list[tuple[int, set[str], bool]]]:
    """{callee name: [(positional count, keyword names, spread)]} of every
    call in tree, by the called name or attribute; partial(f, ...) is a
    call of f. spread marks a call with *args or **kwargs."""
    calls = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Name) and func.id == "partial" and args:
            func, args = args[0], args[1:]
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        spread = (any(isinstance(a, ast.Starred) for a in args)
                  or any(k.arg is None for k in node.keywords))
        calls.setdefault(name, []).append((len(args), {k.arg for k in node.keywords},
                                           spread))
    return calls


def _unpassed_parameters(definitions: list[ast.AST], callers: list[ast.AST]) -> list[str]:
    """'name(parameter)' of each defaulted parameter in definitions that no
    call in callers passes, by name or position; a call with *args or
    **kwargs passes every parameter."""
    calls = {}
    for tree in callers:
        for name, sites in _calls(tree).items():
            calls.setdefault(name, []).extend(sites)
    return [f"{name}({param})" for tree in definitions
            for name, param, pos in _defaulted_parameters(tree)
            if not any(spread or param in keywords or (pos is not None and count > pos)
                       for count, keywords, spread in calls.get(name, []))]


def _library_sources() -> tuple[dict[str, str], list[ast.AST]]:
    """{module file name: source} of the library, and the parsed callers
    beyond it: the labbench scripts and the acceptance suite."""
    package = Path(landscape_lab.__file__).parent
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    others = sorted((ROOT / "labbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    return sources, [ast.parse(p.read_text(encoding="utf-8")) for p in others]


def _library_unpassed(sources: dict[str, str], others: list[ast.AST]) -> list[str]:
    definitions = [ast.parse(text) for text in sources.values()]
    return _unpassed_parameters(definitions, definitions + others)


def test_scan_detects_unpassed_parameters():
    tree = ast.parse("class C:\n    def __init__(self, a, b=1):\n        pass\n"
                     "    def m(self, x, y=2, *, z=3):\n        pass\n"
                     "def f(p, q=4, r=5):\n    pass\n"
                     "def g(s=6):\n    pass\n"
                     "def h(t=7):\n    pass\n")
    callers = ast.parse("C(0)\nC(0).m(1, 2)\nf(0, r=1)\npartial(g, 1)()\nh(**kw)\n")
    assert _unpassed_parameters([tree], [callers]) == ["C(b)", "m(z)", "f(q)"]
    # a parameter planted in the library, which no call passes
    sources, others = _library_sources()
    old = "def spectral_norm(h: np.ndarray)"
    assert old in sources["landscape.py"]
    sources["landscape.py"] = sources["landscape.py"].replace(
        old, "def spectral_norm(h: np.ndarray, planted: int = 0)")
    assert _library_unpassed(sources, others) == ["spectral_norm(planted)"]


def test_every_defaulted_parameter_is_passed():
    # a default that no caller overrides is a constant in disguise: every
    # defaulted parameter of the library is passed by some call in the
    # library, a labbench script or the acceptance suite
    unpassed = _library_unpassed(*_library_sources())
    assert not unpassed, f"parameters that no call passes: {', '.join(unpassed)}"


def test_import_loads_no_scipy_submodule():
    # scipy loads its submodules lazily: `import scipy` costs about 15 ms,
    # scipy.ndimage alone about 0.3 s of every CLI run and benchmark process
    code = ("import json, sys\n"
            "import scipy\n"
            "before = set(sys.modules)\n"
            "import landscape_lab, landscape_lab.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    src = str(Path(landscape_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    loaded = json.loads(out)
    assert "landscape_lab.cli" in loaded
    assert [m for m in loaded if m.startswith("scipy.")] == []
