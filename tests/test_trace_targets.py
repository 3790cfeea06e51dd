"""The benchmark's span tracer wraps library functions by name.

`perfbench/spans.py` lists them in TARGETS as (module, attribute) pairs and
`Tracer.install` looks each one up, so renaming or deleting one of them
breaks every traced benchmark run.  This keeps the names in step, and
checks that traced long_sweep and flagship_cli runs still reach every layer
they report.
"""

import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import gf4codes.cli  # noqa: F401  (imports every module the tracer wraps)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while being built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _probe_input(workloads, seed):
    """The long_sweep task `worker.library_probe` traces for `seed`."""
    rng = random.Random(f"probe/{seed}")
    return workloads.SweepInput(48, 4, tuple(workloads.self_orthogonal_rows(rng, 48, 4)),
                                tuple(workloads.self_orthogonal_rows(rng, 48, 4)))


def test_every_traced_name_resolves():
    targets = _load("spans").TARGETS
    assert targets
    for modname, path, _span in targets:
        obj = importlib.import_module(modname)
        for attr in path.split("."):
            assert hasattr(obj, attr), f"{modname}.{path} is gone"
            obj = getattr(obj, attr)
        assert callable(obj), f"{modname}.{path} is not callable"


def test_traced_long_sweep_reports_every_layer_metric():
    # A span-derived metric is None, and its traced run's result line is
    # malformed, when neither the seed's tasks nor its library probe call
    # the traced function: say, when a shortcut leaves no MacWilliams
    # fallback.  The probe input is the one `worker.library_probe` builds.
    spans, layers, workloads = (_load(name) for name in ("spans", "layers", "workloads"))
    nulls = {}
    for seed in range(1, 21):
        inputs = workloads.sweep_inputs(seed)
        probe = _probe_input(workloads, seed)
        tracer = spans.Tracer()
        tracer.install()
        try:
            for i, inp in enumerate(inputs):
                tracer.task = f"t{i}"
                workloads.sweep_task(inp)
            tracer.task = "probe"
            workloads.sweep_task(probe)
        finally:
            tracer.uninstall()
        task_agg = spans.aggregate([tracer.spans], lambda tid: tid != "probe")
        probe_agg = spans.aggregate([tracer.spans], lambda tid: tid == "probe")
        metrics, _ = layers.span_metrics(task_agg, len(inputs), probe_agg, 1)
        missing = sorted(name for name, value in metrics.items() if value is None)
        if missing:
            nulls[seed] = missing
    assert not nulls


def test_traced_flagship_cli_reports_every_layer_metric(tmp_path):
    # A traced flagship_cli run takes its span metrics from the two
    # `cli_trace.py` processes and, where they call a traced function not
    # at all, from the library probe.  The probe makes no enumerator call
    # on some seeds, so every weight_enumerator and macwilliams metric rests
    # on the command line alone there.
    spans, layers, workloads = (_load(name) for name in ("spans", "layers", "workloads"))
    emit = tmp_path / "c28.txt"
    records = []
    for verb, args, expected in (
            ("double", workloads.CLI_DOUBLE, workloads.CLI_DOUBLE_STDOUT.format(emit=emit)),
            ("quantum", workloads.CLI_QUANTUM, workloads.CLI_QUANTUM_STDOUT)):
        record = tmp_path / f"{verb}.json"
        proc = subprocess.run([sys.executable, str(PERFBENCH / "cli_trace.py"), str(record), "t0",
                               *args, str(emit)], capture_output=True, text=True, timeout=60)
        assert not workloads.check_cli(verb, proc.returncode, proc.stdout, proc.stderr, expected)
        records.append([tuple(span) for span in json.loads(record.read_text())["spans"]])
    cli_agg = spans.aggregate(records, lambda tid: tid == "t0")
    nulls = {}
    for seed in range(1, 21):
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.task = "probe"
            workloads.sweep_task(_probe_input(workloads, seed))
        finally:
            tracer.uninstall()
        probe_agg = spans.aggregate([tracer.spans], lambda tid: tid == "probe")
        metrics, _ = layers.span_metrics(cli_agg, 1, probe_agg, 1)
        missing = sorted(name for name, value in metrics.items() if value is None)
        if missing:
            nulls[seed] = missing
    assert not nulls
