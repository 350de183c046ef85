"""Locate the evroute sources of the checkout this benchmark sits in.

The benchmark runs from a plain source checkout, so it imports the package
from ``<checkout>/src`` and refuses to run against any other copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def import_evroute():
    """Import ``evroute`` from the checkout; exit with code 2 when it is absent."""
    package = SRC / "evroute"
    if not (package / "__init__.py").is_file():
        sys.stderr.write(f"evbench: no evroute sources at {package}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import evroute

    if Path(evroute.__file__).resolve().parent != package.resolve():
        sys.stderr.write(f"evbench: imported evroute from {evroute.__file__}, not {package}\n")
        sys.exit(2)
    return evroute
