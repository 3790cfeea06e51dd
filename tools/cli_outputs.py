"""Run a fixed list of CLI calls in-process and print a digest of each.

Usage: python tools/cli_outputs.py

Two trees whose command-line interfaces behave alike print the same lines,
so comparing this script's output on two checkouts shows whether a change
kept every output byte-identical.  The calls:

  `--help` and `-h`, with no verb and with each verb, and no arguments;
  the `MALFORMED` rows of tests/test_cli.py, read from that file;
  `catalog`, then each catalog entry through `catalog NAME`, `check`,
  `wenum` (plain, `--csv`, `--partitions 3` and `--partitions 10**12`),
  `macwilliams` of its enumerator, `dual-distance`, `quantum` and
  `shorten` at both ends;
  `circulant` of both [13,6] first rows;
  `double` in both modes on every ordered pair of entries, with the odd
  vectors searched and all-ones, then the README pipeline: `double
  --emit`, and `check` and `quantum` of what it wrote.

Each call goes through `gf4codes.cli.main`, from the `src/` beside this
script's directory, with stdin, stdout and stderr redirected, `SystemExit`
caught and COLUMNS=80 for argparse's help, in one temporary working
directory that holds every file a call reads or writes.  Prints one
`sha256 exit argv` line per call, the digest taken over stdout, stderr and
the file named by `--emit`, if any (each call names its own), then a total line: the number of calls
and one digest of all the lines before it.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from collections.abc import Iterator
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_TESTS = ROOT / "tests" / "test_cli.py"
FLAGSHIP = ("double", "--a", "catalog:c13_6_a", "--b", "catalog:c13_6_b",
            "--x1", "allones", "--x2", "allones")
# Files the calls read, beside HUGE_ZERO_CODE as `huge.txt`.
FILES = {"binary.txt": b"\xff\xfe\x00", "bounds.csv": b"28,12,6,6\n12,4,4,4\n"}


def cli_test_constants() -> dict:
    """HUGE_ZERO_CODE, HUGER_ZERO_CODE and MALFORMED from tests/test_cli.py.

    Only those assignments are run, so the test module's imports are not.
    """
    tree = ast.parse(CLI_TESTS.read_text(encoding="utf-8"))
    wanted = {"HUGE_ZERO_CODE", "HUGER_ZERO_CODE", "MALFORMED"}
    body = [node for node in tree.body if isinstance(node, ast.Assign)
            and {getattr(t, "id", None) for t in node.targets} & wanted]
    namespace: dict = {}
    exec(compile(ast.Module(body, []), str(CLI_TESTS), "exec"), namespace)
    return namespace


def calls(malformed: list[tuple]) -> Iterator[tuple[list[str], str | None]]:
    """(argv, stdin) of every call, in order; stdin None reads as empty."""
    from gf4codes import catalog, cli
    from gf4codes.enumerator import format_enumerator, weight_enumerator

    verbs = [verb[0] for verb in cli._VERBS]
    yield [], None
    for flag in ("--help", "-h"):
        yield [flag], None
        for verb in verbs:
            yield [verb, flag], None
    for _, args, stdin, _ in malformed:
        yield [a.replace("{binary}", "binary.txt").replace("{huge}", "huge.txt")
               for a in args], stdin
    yield ["catalog"], None
    names = catalog.names()
    for name in names:
        code = catalog.get(name).code
        spec = f"catalog:{name}"
        yield ["catalog", name], None
        yield ["check", spec], None
        yield ["wenum", spec], None
        yield ["wenum", spec, "--csv"], None
        for parts in (3, 10 ** 12):
            yield ["wenum", spec, "--partitions", str(parts)], None
        yield (["macwilliams", "-", "--n", str(code.n), "--k", str(code.k)],
               format_enumerator(weight_enumerator(code)))
        yield ["dual-distance", spec], None
        yield ["quantum", spec], None
        for at in (0, code.n - 1):
            yield ["shorten", spec, "--at", str(at), "--emit", f"{name}_{at}.txt"], None
    for first in ("0000100210233", "0000113023002"):
        yield ["circulant", "--first-row", first, "--k", "6"], None
    for a in names:
        for b in names:
            for x in (["--x1", "search"], ["--x1", "allones", "--x2", "allones"]):
                for mode in ("odd", "even"):
                    yield ["double", "--a", f"catalog:{a}", "--b", f"catalog:{b}",
                           *x, "--mode", mode], None
    for mode in ("odd", "even"):
        yield [*FLAGSHIP, "--mode", mode, "--emit", f"c28_{mode}.txt"], None
        yield ["check", f"c28_{mode}.txt"], None
        yield ["quantum", f"c28_{mode}.txt", "--bounds", "bounds.csv"], None


def run(argv: list[str], stdin: str | None) -> tuple[int, str]:
    """(exit code, sha256 hex digest of stdout, stderr and the --emit file)."""
    from gf4codes import cli

    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    digest = hashlib.sha256(f"{out.getvalue()}\0{err.getvalue()}\0".encode())
    if "--emit" in argv:
        emitted = Path(argv[argv.index("--emit") + 1])
        if emitted.exists():
            digest.update(emitted.read_bytes())
    return code, digest.hexdigest()


def lines() -> list[str]:
    """One `sha256 exit argv` line per call, then the total line."""
    constants = cli_test_constants()
    files = {**FILES, "huge.txt": constants["HUGE_ZERO_CODE"].encode()}
    out = []
    saved_cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        os.chdir(tmp)
        try:
            for name, data in files.items():
                Path(name).write_bytes(data)
            for argv, stdin in calls(constants["MALFORMED"]):
                code, digest = run(argv, stdin)
                out.append(f"{digest} {code} {shlex.join(argv)}")
        finally:
            os.chdir(saved_cwd)
    total = hashlib.sha256("".join(line + "\n" for line in out).encode()).hexdigest()
    return out + [f"total: {len(out)} calls {total}"]


def main() -> None:
    sys.path.insert(0, str(SRC))
    for line in lines():
        print(line)


if __name__ == "__main__":
    main()
