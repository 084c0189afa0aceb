"""Script entry point: ``python3 benchmarks/e2e/run.py`` from the repository root.

Puts the repository root and ``src/`` on ``sys.path`` (nothing is installed)
and hands over to :func:`benchmarks.e2e.cli.main`.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

if __name__ == "__main__":
    from benchmarks.e2e.cli import main

    sys.exit(main())
