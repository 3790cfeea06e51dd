"""One workload run in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

Set-up is everything before the first timed task: imports, seeded input
generation, and one untimed, checked pass over the inputs that fills the
library's caches (the Krawtchouk cache, the catalog in each CLI process).
Then tasks run one at a time, in complete passes over the inputs, until
SECONDS have passed, with a fixed reference loop timed between passes.
Each answer is checked outside the timed region.

With TRACE 1, untraced passes alternate with passes under the span
wrappers, so the difference is the tracing overhead; then the run probes
the layers its tasks do not reach.

Prints one JSON object on stdout.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import spans  # noqa: E402

TASK_TIMEOUT_S = 120
# The tail is the 11th slowest task: at least 28 tasks in each interpreter
# keep it above the 60th percentile.
MIN_TASKS = 28
# The host's speed swings by up to 1.8x in phases that last from seconds to
# minutes, and a fixed CPU loop slows down with it, so each task's time is
# divided by the time of such a loop run next to it (see `reference_ns`).
REFERENCE_ROUNDS = 100_000
CLI_PROBE_RUNS = 3
LIBRARY_PROBE_RUNS = 3


def task_id(n: int) -> str:
    return f"t{n}"


def is_task(tid) -> bool:
    return isinstance(tid, str) and tid.startswith("t")


def is_probe(tid) -> bool:
    return tid == "probe"


class Tally:
    """Tasks attempted and failed, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append("; ".join(problems))


class LibraryWorkload:
    """enum_dense or long_sweep: each task is a sequence of library calls."""

    cli = False

    def __init__(self, name: str, seed: int) -> None:
        import workloads as w
        self.w = w
        if name == "enum_dense":
            self.inputs = w.enum_inputs(seed)
            self.task, self.codewords = w.enum_task, w.enum_codewords
        else:
            self.inputs = w.sweep_inputs(seed)
            self.task, self.codewords = w.sweep_task, w.sweep_codewords
        self.name = name
        self.refs: dict[int, object] = {}

    def run(self, i: int, tracer=None, tid=None) -> tuple[int, list[str]]:
        inp = self.inputs[i]
        if tracer is not None:
            tracer.task = tid
        t0 = time.perf_counter_ns()
        try:
            ans = self.task(inp)
        except Exception:  # a failed task is counted, and the run goes on
            return time.perf_counter_ns() - t0, [traceback.format_exc(limit=3)]
        finally:
            if tracer is not None:
                tracer.task = None
        elapsed = time.perf_counter_ns() - t0
        if self.name == "enum_dense":
            return elapsed, self.w.check_enum(inp, ans)
        problems = self.w.check_sweep(inp, ans, self.refs.get(i))
        if i not in self.refs and not problems:
            self.refs[i] = ans
        return elapsed, problems


class CliWorkload:
    """flagship_cli: each task runs `double` then `quantum` as processes."""

    cli = True

    def __init__(self, seed: int, work: Path) -> None:
        import workloads as w
        self.w = w
        self.inputs = [None]
        self.work = work
        # The path is echoed on stdout, so it is the only part that varies.
        self.emit = str((work / "c28.txt").relative_to(ROOT))
        pythonpath = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        self.records: list[dict] = []

    def codewords(self, _inp) -> int:
        return self.w.CLI_CODEWORDS

    def _cmd(self, tid, verb: str) -> tuple[list[str], Path | None]:
        if tid is None:
            return [sys.executable, "-m", "gf4codes"], None
        record = self.work / f"{tid}-{verb}.json"
        return [sys.executable, str(HERE / "cli_trace.py"), str(record), tid], record

    def run(self, i: int, tracer=None, tid=None) -> tuple[int, list[str]]:
        """Any `tracer` traces the task, inside the CLI processes."""
        w = self.w
        if tracer is None:
            tid = None
        steps = (("double", w.CLI_DOUBLE, w.CLI_DOUBLE_STDOUT.format(emit=self.emit)),
                 ("quantum", w.CLI_QUANTUM, w.CLI_QUANTUM_STDOUT))
        cmds = [self._cmd(tid, verb) for verb, _, _ in steps]
        procs = []
        t0 = time.perf_counter_ns()
        try:
            for (verb, args, _), (prefix, _) in zip(steps, cmds):
                procs.append(subprocess.run(prefix + [*args, self.emit], cwd=ROOT, env=self.env,
                                            capture_output=True, text=True,
                                            timeout=TASK_TIMEOUT_S))
        except subprocess.TimeoutExpired as exc:
            return time.perf_counter_ns() - t0, [f"timed out: {exc}"]
        elapsed = time.perf_counter_ns() - t0
        problems = []
        for (verb, _, expected), proc in zip(steps, procs):
            problems += w.check_cli(verb, proc.returncode, proc.stdout, proc.stderr, expected)
        for _, record in cmds:
            if record is not None and record.exists():
                with open(record, encoding="utf-8") as fh:
                    self.records.append(json.load(fh))
                record.unlink()
        return elapsed, problems


def run_pass(wl, tally: Tally, tracer=None, first_id: int = 0) -> list[int]:
    """One pass over the inputs; returns the task times in ns."""
    times = []
    for i in range(len(wl.inputs)):
        ns, problems = wl.run(i, tracer, task_id(first_id + i))
        tally.add(problems)
        times.append(ns)
    return times


def reference_ns() -> int:
    """Time of a fixed pure-Python loop of the work the library does most:
    integer bit operations, popcounts, list appends and calls."""
    t0 = time.perf_counter_ns()
    acc, counts = 0, []
    for i in range(REFERENCE_ROUNDS):
        acc ^= (acc << 1 | i) & 0xFFFFFFFFFFFF
        counts.append(acc.bit_count())
    sum(counts)
    return time.perf_counter_ns() - t0


def timed_run(wl, tally: Tally, seconds: float, setup_s: float) -> dict:
    """Passes until `seconds` have passed and MIN_TASKS tasks ran, with the
    reference loop before the first pass and after each one.  A task's
    relative time is its time over the mean of the two references around
    its pass."""
    refs = [reference_ns()]
    times, rel = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < MIN_TASKS:
        pass_ns = run_pass(wl, tally)
        refs.append(reference_ns())
        ref = (refs[-2] + refs[-1]) / 2
        times += pass_ns
        rel += [ns / ref for ns in pass_ns]
    who = resource.RUSAGE_CHILDREN if wl.cli else resource.RUSAGE_SELF
    return {"setup_s": setup_s, "task_ns": times, "task_rel": rel, "ref_ns": refs,
            "passes": len(refs) - 1,
            "codewords": (len(refs) - 1) * sum(wl.codewords(inp) for inp in wl.inputs),
            "peak_rss_kb": resource.getrusage(who).ru_maxrss}


def library_probe(seed: int, tracer) -> None:
    """A small long_sweep task, once to warm up and then traced as `probe`."""
    import workloads as w
    rng = random.Random(f"probe/{seed}")
    inp = w.SweepInput(48, 4, tuple(w.self_orthogonal_rows(rng, 48, 4)),
                       tuple(w.self_orthogonal_rows(rng, 48, 4)))
    w.sweep_task(inp)
    for _ in range(LIBRARY_PROBE_RUNS):
        tracer.task = "probe"
        w.sweep_task(inp)
    tracer.task = None


def cli_metrics(records: list[dict]) -> dict[str, float]:
    def median_ms(key, verb=None):
        return statistics.median(r[key] for r in records if verb in (None, r["verb"])) / 1e6
    return {"cli.import_ms": median_ms("import_ns"),
            "cli.double_ms": median_ms("main_ns", "double"),
            "cli.quantum_ms": median_ms("main_ns", "quantum")}


def record_spans(records: list[dict]) -> list[list[tuple]]:
    return [[tuple(s) for s in r["spans"]] for r in records]


def traced_run(wl, tally: Tally, seconds: float, seed: int, work: Path, workload: str) -> dict:
    tracer = spans.Tracer()
    # Untraced and traced passes alternate, so both meet the same load on
    # the machine and their difference is the tracing overhead.
    untraced, traced, hits, misses = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced:
        untraced += run_pass(wl, tally)
        k0 = spans.krawtchouk_counts()
        tracer.install()
        traced += run_pass(wl, tally, tracer, len(traced))
        tracer.uninstall()
        k1 = spans.krawtchouk_counts()
        hits, misses = hits + k1[0] - k0[0], misses + k1[1] - k0[1]
    passes = len(traced) // len(wl.inputs)
    tasks = len(traced)

    tracer.install()
    library_probe(seed, tracer)
    if wl.cli:
        cli_records = [r for r in wl.records if is_task(r["task"])]
        hits = sum(r["krawtchouk"][0] for r in cli_records)
        misses = sum(r["krawtchouk"][1] for r in cli_records)
        cli_agg = spans.aggregate(record_spans(cli_records), is_task)
    else:
        # The catalog and the command line are only reached through processes.
        probe = CliWorkload(seed, work)
        for _ in range(CLI_PROBE_RUNS):
            tally.add(probe.run(0, tracer=True, tid="probe-cli")[1])
        cli_records = probe.records
        cli_agg = spans.aggregate(record_spans(cli_records), lambda tid: tid == "probe-cli")

    task_agg = spans.aggregate([tracer.spans] + record_spans(wl.records if wl.cli else []), is_task)
    probe_agg = spans.aggregate([tracer.spans], is_probe)
    metrics, from_probe = layers.span_metrics(task_agg, tasks, probe_agg, LIBRARY_PROBE_RUNS)
    lookups = hits + misses
    metrics["enumerator.krawtchouk.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["enumerator.krawtchouk.lookups"] = lookups / tasks
    cold = cli_agg.get("catalog.get", {}).get("tags", {}).get("cold", [])
    metrics["catalog.get.cold_ms"] = statistics.mean(cold) / 1e6 if cold else 0.0
    if not wl.cli:
        from_probe += ["catalog.get.cold_ms", "cli.import_ms", "cli.double_ms", "cli.quantum_ms"]
    metrics.update(cli_metrics(cli_records))
    metrics["cli.interp_startup_ms"] = layers.interp_startup_ms()
    metrics.update(layers.gf4_probe(seed))
    metrics["trace.overhead_pct"] = (sum(traced) / sum(untraced) - 1) * 100

    spans_file = OUT / f"spans-{workload}-seed{seed}.jsonl"
    all_lists = [tracer.spans] + record_spans(cli_records)
    with open(spans_file, "w", encoding="utf-8") as fh:
        for proc, span_list in enumerate(all_lists):
            for sid, name, start, end, parent, tid, tag in span_list:
                fh.write(json.dumps({"proc": proc, "id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "task": tid,
                                     "tag": tag}) + "\n")
    return {"metrics": metrics, "from_probe": sorted(from_probe), "tasks_traced": tasks,
            "passes": passes, "krawtchouk_lookups": lookups,
            "overhead_ms_per_task": (sum(traced) - sum(untraced)) / tasks / 1e6,
            "spans_file": str(spans_file.relative_to(ROOT))}


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    # The library's warnings (a dropped dependent row, say) fail the task.
    warnings.simplefilter("error", UserWarning)
    import gf4codes
    if not Path(gf4codes.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"gf4codes imported from {gf4codes.__file__}, not from {SRC}")
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if workload == "flagship_cli":
            wl = CliWorkload(seed, work)
        else:
            wl = LibraryWorkload(workload, seed)
        tally = Tally()
        run_pass(wl, tally)
        setup_s = time.perf_counter() - T_START
        if trace:
            result = traced_run(wl, tally, seconds, seed, work, workload)
        else:
            result = timed_run(wl, tally, seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
