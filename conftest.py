"""Set-up shared by every test directory, `tests/` and `perfbench/`.

No test may run past TEST_TIME_LIMIT_S seconds: a loop that never ends
then stops the run with every thread's traceback on stderr, instead of
hanging it.  The slowest test takes about 3 s.  A conftest applies only
to the tests below its own directory, so this one sits at the root.
"""

import faulthandler
import os

import pytest

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
