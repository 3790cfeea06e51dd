"""The benchmark's span tracer wraps library functions by name.

`perfbench/spans.py` lists them in TARGETS as (module, attribute) pairs and
`Tracer.install` looks each one up, so renaming or deleting one of them
breaks every traced benchmark run.  This keeps the names in step.
"""

import importlib.util
from pathlib import Path

import gf4codes.cli  # noqa: F401  (imports every module the tracer wraps)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load_spans().TARGETS
    assert targets
    for modname, path, _span in targets:
        obj = importlib.import_module(modname)
        for attr in path.split("."):
            assert hasattr(obj, attr), f"{modname}.{path} is gone"
            obj = getattr(obj, attr)
        assert callable(obj), f"{modname}.{path} is not callable"
