"""Per-layer metrics: derived from spans, plus direct probes of the layers
that are too fine-grained to wrap (GF4Vector operations) or that live in
another process (interpreter start-up).

Span-derived metrics are per task: calls and self time of a traced function
summed over the traced tasks and divided by their number, so two commits
that run different numbers of tasks in the same time stay comparable.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
import timeit

# metric -> (span names, kind)
SPAN_METRICS = {
    "enumerator.weight_enumerator.calls": (("enumerator.weight_enumerator",), "calls"),
    "enumerator.weight_enumerator.self_ms": (("enumerator.weight_enumerator",), "self_ms"),
    "enumerator.codewords": (("enumerator.weight_enumerator",), "tag"),
    "enumerator.ns_per_codeword": (("enumerator.weight_enumerator",), "ns_per_tag"),
    "enumerator.us_per_call": (("enumerator.weight_enumerator",), "us_per_call"),
    "enumerator.macwilliams.calls": (("enumerator.macwilliams",), "calls"),
    "enumerator.macwilliams.self_ms": (("enumerator.macwilliams",), "self_ms"),
    "codes.rref.calls": (("codes.rref",), "calls"),
    "codes.rref.self_ms": (("codes.rref",), "self_ms"),
    "codes.dual.self_ms": (("codes.dual",), "self_ms"),
    "codes.from_rows.self_ms": (("codes.from_rows",), "self_ms"),
    "codes.parse_emit.self_ms": (("codes.parse_matrix", "codes.emit_matrix"), "self_ms"),
    "doubling.double_pair.self_ms": (("doubling.double_pair",), "self_ms"),
    "doubling.double_even.self_ms": (("doubling.double_even",), "self_ms"),
    "doubling.auxiliary_code.self_ms": (("doubling.auxiliary_code",), "self_ms"),
    "doubling.find_odd_dual_vector.self_ms": (("doubling.find_odd_dual_vector",), "self_ms"),
    "quantum.quantum_params.calls": (("quantum.quantum_params",), "calls"),
    "quantum.quantum_params.self_ms": (("quantum.quantum_params",), "self_ms"),
}

KIND_UNITS = {"calls": "count", "self_ms": "ms", "tag": "count", "ns_per_tag": "ns",
              "us_per_call": "us"}

GF4_LENGTHS = (28, 200)
GF4_OPS = {
    "add_ns": ("x + y", 1e9),
    "scale_ns": ("x.scale(2)", 1e9),
    "getitem_ns": ("x[i]", 1e9),
    "hermitian_inner_ns": ("hermitian_inner(x, y)", 1e9),
    "from_coords_us": ("GF4Vector.from_coords(coords)", 1e6),
}

# Every per-layer metric a traced run reports, with its unit.
UNITS = {
    **{metric: KIND_UNITS[kind] for metric, (_, kind) in SPAN_METRICS.items()},
    "enumerator.krawtchouk.hit_ratio": "ratio",
    "enumerator.krawtchouk.lookups": "count",
    "catalog.get.cold_ms": "ms",
    "cli.import_ms": "ms",
    "cli.double_ms": "ms",
    "cli.quantum_ms": "ms",
    "cli.interp_startup_ms": "ms",
    **{f"gf4.{op}.n{n}": op[-2:] for n in GF4_LENGTHS for op in GF4_OPS},
    "trace.overhead_pct": "%",
}


def span_metric(agg: dict, names, kind: str, tasks: int) -> float | None:
    """One span-derived metric, or None when no span of `names` was seen."""
    recs = [agg[n] for n in names if n in agg]
    calls = sum(r["calls"] for r in recs)
    if not calls:
        return None
    self_ns = sum(r["self_ns"] for r in recs)
    tag = sum(r["tag_sum"] for r in recs)
    if kind == "calls":
        return calls / tasks
    if kind == "self_ms":
        return self_ns / 1e6 / tasks
    if kind == "tag":
        return tag / tasks
    if kind == "ns_per_tag":
        return self_ns / tag
    if kind == "us_per_call":
        return self_ns / 1e3 / calls
    raise ValueError(kind)


def span_metrics(task_agg: dict, tasks: int, probe_agg: dict, probe_tasks: int):
    """All span-derived metrics, from the workload's own tasks where they
    call the traced function and from the probe otherwise.

    Returns (metrics, names of the metrics taken from the probe).
    """
    out, from_probe = {}, []
    for metric, (names, kind) in SPAN_METRICS.items():
        value = span_metric(task_agg, names, kind, tasks)
        if value is None:
            value = span_metric(probe_agg, names, kind, probe_tasks)
            from_probe.append(metric)
        out[metric] = value
    return out, from_probe


def gf4_probe(seed: int, repeats: int = 7) -> dict[str, float]:
    """Median time of single GF4Vector operations at n = 28 and n = 200."""
    from gf4codes import GF4Vector, hermitian_inner
    rng = random.Random(f"gf4/{seed}")
    out = {}
    for n in GF4_LENGTHS:
        x = GF4Vector(n, rng.getrandbits(n), rng.getrandbits(n))
        y = GF4Vector(n, rng.getrandbits(n), rng.getrandbits(n))
        env = {"x": x, "y": y, "i": n // 2, "coords": x.coords(),
               "GF4Vector": GF4Vector, "hermitian_inner": hermitian_inner}
        for name, (stmt, scale) in GF4_OPS.items():
            timer = timeit.Timer(stmt, globals=env)
            number = 200 if name == "from_coords_us" else 20000
            runs = timer.repeat(repeat=repeats, number=number)
            out[f"gf4.{name}.n{n}"] = statistics.median(runs) / number * scale
    return out


def interp_startup_ms(repeats: int = 5) -> float:
    """Median wall time of a bare `python -c pass`."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)
