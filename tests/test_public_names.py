"""Every public name and every name the benchmark's tracer wraps exists.

labbench/tracer.py wraps landscape_lab functions and methods by name when a
traced benchmark run starts; a deleted or renamed one would otherwise
surface only there. Importing the package loads no scipy submodule.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import landscape_lab

TRACER = Path(__file__).resolve().parents[1] / "labbench" / "tracer.py"


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
