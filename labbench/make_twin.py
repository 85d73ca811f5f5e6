"""Regenerate labbench/twin/lab_twin, the frozen copy of the program.

    python3 labbench/make_twin.py

Run from the repository root. Copies src/landscape_lab with every
`landscape_lab` name renamed to `lab_twin`, so that one process can import
both. The worker runs each task on the program and on this copy in turn,
and wall_ratio compares the two: a change of host speed during a run moves
both alike. The copy is the program as of the commit that made it, which
is the baseline of wall_ratio; regenerating it moves that baseline, so do
it only in a change that says so and measures the benchmark again.
"""

import re
import shutil
import sys
from pathlib import Path

SRC = Path("src") / "landscape_lab"
DEST = Path(__file__).resolve().parent / "twin" / "lab_twin"


def main() -> int:
    if not SRC.is_dir():
        print(f"{SRC} not found: run from the repository root", file=sys.stderr)
        return 1
    shutil.rmtree(DEST, ignore_errors=True)
    DEST.mkdir(parents=True)
    for path in sorted(SRC.glob("*.py")):
        text = re.sub(r"\blandscape_lab\b", "lab_twin", path.read_text(encoding="utf-8"))
        (DEST / path.name).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
