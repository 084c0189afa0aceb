"""``PYTHONPATH=src python -m benchmarks.e2e`` — same as ``benchmarks/e2e/run.py``."""

import sys

from benchmarks.e2e.cli import main

sys.exit(main())
