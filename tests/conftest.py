"""Shared test set-up.

The CLI tests start `python -m gf4codes` in subprocesses.  pytest's
`pythonpath` setting reaches only its own process, so `src/` is put on the
front of PYTHONPATH as well, and the subprocesses run the checkout under
test too.  The per-test time limit is in the repository's root conftest.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
