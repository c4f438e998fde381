"""Locate the chorefair sources the benchmark measures.

The benchmark drives the package from outside: it imports ``chorefair``
from the ``src`` directory of the checkout it sits in, so whatever that
checkout holds is what gets measured.  Nothing is installed.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout has no chorefair sources next to the benchmark."""


def ensure_importable() -> None:
    """Put the checkout's ``src`` first on the import path, or refuse."""
    if not (SRC / "chorefair" / "__init__.py").is_file():
        raise ProgramMissing(f"no chorefair package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
