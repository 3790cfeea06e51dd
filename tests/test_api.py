"""The package's public names: `__all__` lists only names that exist."""

import subprocess
import sys

import gf4codes


def test_every_public_name_resolves():
    assert len(set(gf4codes.__all__)) == len(gf4codes.__all__)
    assert [name for name in gf4codes.__all__ if not hasattr(gf4codes, name)] == []


def test_star_import_succeeds():
    # A stale __all__ entry makes `import *` raise AttributeError.
    proc = subprocess.run(
        [sys.executable, "-c",
         "from gf4codes import *\n"
         "import gf4codes\n"
         "missing = [n for n in gf4codes.__all__ if n not in globals()]\n"
         "assert not missing, missing"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
