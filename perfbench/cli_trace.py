"""Run the gf4codes command line with span tracing.

    python3 perfbench/cli_trace.py RECORD TASK VERB [ARGS...]

Imports `gf4codes.cli`, installs the span wrappers of `spans.py`, then calls
`gf4codes.cli.main` with VERB ARGS.  Stdout, stderr and the exit status are
the command's own.  RECORD receives one JSON object: the import and main()
times, the Krawtchouk cache counters and the spans of this process.
"""

import json
import sys
import time
from pathlib import Path

t_start = time.perf_counter_ns()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gf4codes.cli  # noqa: E402

t_imported = time.perf_counter_ns()

from spans import Tracer, krawtchouk_counts  # noqa: E402


def main() -> int:
    record, task, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.task = task
    t0 = time.perf_counter_ns()
    status = gf4codes.cli.main(argv)
    t1 = time.perf_counter_ns()
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"verb": argv[0], "task": task, "import_ns": t_imported - t_start,
                   "main_ns": t1 - t0, "krawtchouk": krawtchouk_counts(),
                   "spans": tracer.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
