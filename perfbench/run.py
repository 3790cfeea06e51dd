"""Benchmark of gf4codes, end to end and layer by layer.  Standard library only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is taken from its `src/`.
Workloads (closed loop, one client, one task at a time):

  flagship_cli  the README pipeline: `gf4codes double` on the two catalog
                [13,6] circulants, then `gf4codes quantum` on the emitted
                [28,8] code, each a fresh process
  enum_dense    weight_enumerator then quantum_params on seeded
                self-orthogonal [n,10] codes, n from 24 to 200
  long_sweep    from_rows, dual, find_odd_dual_vector, emit/parse,
                double_pair and quantum_params on sixteen seeded pairs of
                [n,k] codes, n from 24 to 200 and k from 3 to 6

Each run is three fresh interpreters (`worker.py`) in turn, one for a traced
run, so the library's caches start cold and filling them is set-up.  With
--trace 0 the last line holds the end-to-end metrics, with task times in
units of a reference loop timed beside them, which cancels the host's swings
in speed; with --trace 1 the per-layer metrics from a separate traced run.
The line before it is a report: the git rev, Python version, processor count
and bare interpreter start-up, the tail percentile with its sample count, the
error rate and any problems the answer checks found.
The exit status is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flagship_cli", "enum_dense", "long_sweep")
# A timed run is split over this many fresh interpreters, one after the
# other.  Each sets up (setup_s is the median) and times its share of the
# seconds; pooling their tasks averages out what differs from one process to
# the next, such as memory layout.
WORKERS = 3
# Every run must end within 180 s.
RUN_BUDGET_S = 170
TAIL_BEYOND = 10


class WorkerError(RuntimeError):
    pass


def worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    # A session of its own, so a worker out of time goes with its CLI processes.
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise WorkerError(f"worker {' '.join(args)} ran out of time") from None
        except BaseException:  # interrupted or terminated: take the worker along
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}: "
                          f"{err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1])


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def stamp() -> dict:
    return {"git_rev": git_rev(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "interp_startup_ms": layers.interp_startup_ms()}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    s = sorted(samples)
    n = len(s)
    return s[n - TAIL_BEYOND - 1], 100 * (n - TAIL_BEYOND) / n


def end_to_end(runs: list[dict], attempted: int, failed: int) -> tuple[dict, dict]:
    """The time metrics are in units of the reference loop (see worker.py);
    the report gives the same figures in ms and per second."""
    rel = [x for r in runs for x in r["task_rel"]]
    ms = [ns / 1e6 for r in runs for ns in r["task_ns"]]
    codewords = sum(r["codewords"] for r in runs)
    setups = [r["setup_s"] for r in runs]
    tail_rel, tail_pct = tail(rel)
    metrics = {
        "task_p50_ref": (statistics.median(rel), "ref"),
        "task_tail_ref": (tail_rel, "ref"),
        "codewords_per_ref": (codewords / sum(rel), "1/ref"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in runs) / 1024, "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }
    report = {"samples": len(rel), "passes": sum(r["passes"] for r in runs),
              "tail_percentile": round(tail_pct, 2), "tail_samples_beyond": TAIL_BEYOND,
              "reference_p50_ms": statistics.median(ns for r in runs for ns in r["ref_ns"]) / 1e6,
              "task_p50_ms": statistics.median(ms), "task_tail_ms": tail(ms)[0],
              "codewords_per_s": codewords / (sum(ms) / 1e3), "setup_samples_s": setups,
              "error_rate": failed / attempted, "codewords_timed": codewords}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_BUDGET_S

    src = ROOT / "src" / "gf4codes"
    if not (src / "__init__.py").is_file():
        print(f"error: no gf4codes sources at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # The build step: byte-compile once, so no run pays for it in set-up.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    count, seconds = (1, args.seconds) if args.trace else (WORKERS, args.seconds / WORKERS)
    try:
        runs = [worker([args.workload, str(args.seed), str(seconds), str(args.trace)], deadline)
                for _ in range(count)]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [q for r in runs for q in r["problems"]][:10]

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **stamp(), "attempted": attempted, "failed": failed,
              "problems": problems}
    if args.trace:
        res = runs[0]
        metrics = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in res["metrics"].items()}
        report.update({k: res[k] for k in ("from_probe", "tasks_traced", "passes",
                                           "krawtchouk_lookups", "overhead_ms_per_task",
                                           "spans_file")})
    else:
        metrics, extra = end_to_end(runs, attempted, failed)
        report.update(extra)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
