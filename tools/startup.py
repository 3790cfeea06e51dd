"""Time the start-up of the gf4codes CLI, one layer at a time.

Usage: python tools/startup.py [--runs N]

Each case is a fresh interpreter, timed from start to exit:

  python -c pass    the bare interpreter
  import gf4codes   the library
  import cli        the library and `gf4codes.cli`, argparse included
  build_parser()    the same, then the CLI's parser built once
  double            the README `double` command, emitting into a
                    temporary directory
  quantum           the README `quantum` command on the emitted file

Every case runs once with the default `site` and once with `-S`, which
leaves out site-packages and its start-up hooks.  The cases take turns, one
process each per round, for N rounds, so that a drift in the machine's
speed reaches all of them alike.  The library comes from the `src/` beside
this script's directory, byte-compiled first, and one untimed `double`
writes the file that `quantum` reads.  Prints the median and quartiles of
each case's wall time in ms.
"""

from __future__ import annotations

import argparse
import compileall
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DOUBLE = ("double", "--a", "catalog:c13_6_a", "--b", "catalog:c13_6_b",
          "--x1", "allones", "--x2", "allones", "--emit")


def cases(emitted: str) -> list[tuple[str, list[str]]]:
    """(name, interpreter arguments) of each case."""
    return [("python -c pass", ["-c", "pass"]),
            ("import gf4codes", ["-c", "import gf4codes"]),
            ("import cli", ["-c", "import gf4codes.cli"]),
            ("build_parser()", ["-c", "import gf4codes.cli; gf4codes.cli.build_parser()"]),
            ("double", ["-m", "gf4codes", *DOUBLE, emitted]),
            ("quantum", ["-m", "gf4codes", "quantum", emitted])]


def run(args: list[str], env: dict[str, str]) -> float:
    """Wall time in ms of one interpreter run with `args`; it must exit 0."""
    start = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    elapsed = (time.perf_counter_ns() - start) / 1e6
    if proc.returncode:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return elapsed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=20, help="rounds of every case (default 20)")
    runs = parser.parse_args(argv).runs
    if runs < 1:
        parser.error(f"--runs must be at least 1, got {runs}")
    compileall.compile_dir(SRC, quiet=1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    with tempfile.TemporaryDirectory() as tmp:
        emitted = str(Path(tmp) / "c28.txt")
        run(["-m", "gf4codes", *DOUBLE, emitted], env)
        timed = [(name, site, [*flags, *args]) for name, args in cases(emitted)
                 for site, flags in (("default", []), ("-S", ["-S"]))]
        times: list[list[float]] = [[] for _ in timed]
        for _ in range(runs):
            for (_, _, args), samples in zip(timed, times):
                samples.append(run(args, env))
    print(f"{'case':<16} {'site':<8} {'median':>7} {'q1':>7} {'q3':>7}   ms, runs: {runs}")
    for (name, site, _), samples in zip(timed, times):
        q1, median, q3 = statistics.quantiles(samples, n=4) if runs > 1 else samples * 3
        print(f"{name:<16} {site:<8} {median:7.1f} {q1:7.1f} {q3:7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
