"""Every public name and every name the benchmark's tracer wraps exists.

labbench/tracer.py wraps landscape_lab functions and methods by name when a
traced benchmark run starts; a deleted or renamed one would otherwise
surface only there. Every public name is read by the library, the
benchmark or the acceptance suite. Importing the package loads no scipy
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
