"""Shared test set-up.

The CLI tests start `python -m gf4codes` in subprocesses.  pytest's
`pythonpath` setting reaches only its own process, so `src/` is put on the
front of PYTHONPATH as well, and the subprocesses run the checkout under
test too.

No test may run past TEST_TIME_LIMIT_S seconds: a loop that never ends
then stops the run with every thread's traceback on stderr, instead of
hanging it.  The slowest test takes about 3 s.
"""

import faulthandler
import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

TEST_TIME_LIMIT_S = 60
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # pytest captures fd 2 while a test runs, and a run the limit ends
    # never shows what was captured; a copy taken here, outside any test,
    # still reaches the terminal.
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _time_limit(request):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
