"""The benchmark's span tracer wraps library functions by name.

`perfbench/spans.py` lists them in TARGETS as (module, attribute) pairs and
`Tracer.install` looks each one up, so renaming or deleting one of them
breaks every traced benchmark run.  This keeps the names in step, and
checks that a traced long_sweep run still reaches every layer it reports.
"""

import importlib.util
import random
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
        rng = random.Random(f"probe/{seed}")
        probe = workloads.SweepInput(48, 4, tuple(workloads.self_orthogonal_rows(rng, 48, 4)),
                                     tuple(workloads.self_orthogonal_rows(rng, 48, 4)))
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
