"""Every public name and every name the benchmark's tracer wraps exists.

labbench/tracer.py wraps landscape_lab functions and methods by name when a
traced benchmark run starts; a deleted or renamed one would otherwise
surface only there.
"""

import importlib
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
