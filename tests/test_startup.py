"""The start-up timer in tools/, run once per case."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "startup.py"


def test_times_every_case_with_and_without_site():
    proc = subprocess.run([sys.executable, str(TOOL), "--runs", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[:5] == ["case", "site", "median", "q1", "q3"]
    cases = ("python -c pass", "import gf4codes", "import cli", "build_parser()", "double",
             "quantum")
    names = []
    for row in rows:
        case_site, median, q1, q3 = row.rsplit(None, 3)
        names.append(tuple(case_site.rsplit(None, 1)))
        # One run: its time is the median and both quartiles.
        assert 0 < float(q1) == float(median) == float(q3)
    assert names == [(case, site) for case in cases for site in ("default", "-S")]
