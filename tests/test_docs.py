"""The README's library quick start runs and every demo config loads.

A README call or a demo config that still uses a removed key or an old
call form fails here rather than in a reader's hands.
"""

import argparse
import json
import re
from pathlib import Path

import pytest

from landscape_lab.cli import build_run_config

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("**/*.json")),
                         ids=lambda path: path.relative_to(ROOT / "configs").as_posix())
def test_demo_config_loads(path, monkeypatch):
    monkeypatch.delenv("LANDSCAPE_LAB_SEED", raising=False)
    monkeypatch.delenv("LANDSCAPE_LAB_OUT_DIR", raising=False)
    experiment = json.loads(path.read_text(encoding="utf-8"))["experiment"]
    args = argparse.Namespace(config=str(path), seed=None, out_dir=None,
                              format=None, workers=None)
    assert build_run_config(experiment, args).experiment == experiment
