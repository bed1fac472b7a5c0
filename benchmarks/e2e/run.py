"""Benchmark entry point runnable by path from the repository root.

``python3 benchmarks/e2e/run.py --workload tag_search --seed 3 --seconds 18 --trace 0``
is ``PYTHONPATH=src:. python -m benchmarks.e2e`` with the paths set here.
It exits 2 when the program under test (``src/repro``) is not there.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmarks/e2e: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    # Replace the script directory: its module names must not shadow any others.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.cli import main

    sys.exit(main())
