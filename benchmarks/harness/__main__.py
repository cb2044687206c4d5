"""Entry point: ``python -m benchmarks.harness`` or ``python3 benchmarks/harness``.

Run as a path, Python puts this directory first on ``sys.path``, where
``trace.py`` would shadow the standard library's; swap it for the
repository root and import the package properly.
"""

import sys
from pathlib import Path

if not __package__:
    here = Path(__file__).resolve().parent
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != here]
    sys.path.insert(0, str(here.parents[1]))

from benchmarks.harness.cli import main

if __name__ == "__main__":
    sys.exit(main())
