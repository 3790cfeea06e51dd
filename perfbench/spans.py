"""Span tracing around the library's public functions, installed from outside.

No source file of the library changes.  `Tracer.install` replaces each
traced function in every module namespace that holds it: a `from` import
copies the binding, so `gf4codes.quantum.weight_enumerator` is a name of its
own beside `gf4codes.enumerator.weight_enumerator`, and both must point at
the wrapper.  Methods are replaced on their class.

A span is (id, name, start_ns, end_ns, parent id or -1, task id, tag).
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  Only modules already imported are traced.
TARGETS = (
    ("gf4codes.enumerator", "weight_enumerator", "enumerator.weight_enumerator"),
    ("gf4codes.enumerator", "macwilliams", "enumerator.macwilliams"),
    ("gf4codes.enumerator", "dual_distance", "enumerator.dual_distance"),
    ("gf4codes.codes", "rref", "codes.rref"),
    ("gf4codes.codes", "LinearCode.from_rows", "codes.from_rows"),
    ("gf4codes.codes", "LinearCode.dual", "codes.dual"),
    ("gf4codes.codes", "parse_matrix", "codes.parse_matrix"),
    ("gf4codes.codes", "emit_matrix", "codes.emit_matrix"),
    ("gf4codes.doubling", "double_pair", "doubling.double_pair"),
    ("gf4codes.doubling", "double_even", "doubling.double_even"),
    ("gf4codes.doubling", "double_odd", "doubling.double_odd"),
    ("gf4codes.doubling", "auxiliary_code", "doubling.auxiliary_code"),
    ("gf4codes.doubling", "find_odd_dual_vector", "doubling.find_odd_dual_vector"),
    ("gf4codes.quantum", "quantum_params", "quantum.quantum_params"),
    ("gf4codes.catalog", "get", "catalog.get"),
    ("gf4codes.cli", "main", "cli.main"),
)


def _codewords(args, kwargs):
    code = args[0] if args else kwargs["code"]
    return 4 ** code.k


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.task: object = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []
        seen: set = set()

        def first_get(args, kwargs):
            # A catalog entry is cold the first time this process asks for it.
            name = args[0] if args else kwargs.get("name")
            cold = name not in seen
            seen.add(name)
            return "cold" if cold else "warm"

        self._tags = {"enumerator.weight_enumerator": _codewords,
                      "catalog.get": first_get}

    def wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        tag_of = self._tags.get(name)

        def wrapper(*args, **kwargs):
            tag = tag_of(args, kwargs) if tag_of else None
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.task, tag))

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS) -> None:
        for modname, path, name in targets:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    self._set(cls, attr, self.wrap(name, raw))
                continue
            original = getattr(mod, path)
            wrapper = self.wrap(name, original)
            for holder in list(sys.modules.values()):
                names = getattr(holder, "__dict__", None)
                if not isinstance(names, dict):
                    continue
                for attr, value in list(names.items()):
                    if value is original:
                        self._set(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] in own:
            own[s[4]] -= s[3] - s[2]
    return own


def aggregate(span_lists, keep) -> dict[str, dict]:
    """Per span name: calls, self_ns, total_ns and the summed numeric tags,
    over the spans whose task id satisfies `keep`.

    Each list holds the spans of one process, whose ids are its own.
    """
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_ns": 0, "total_ns": 0,
                                                "tag_sum": 0, "tags": defaultdict(list)})
    for spans in span_lists:
        own = self_times(spans)
        for sid, name, start, end, _parent, task, tag in spans:
            if not keep(task):
                continue
            rec = out[name]
            rec["calls"] += 1
            rec["self_ns"] += own[sid]
            rec["total_ns"] += end - start
            if isinstance(tag, int):
                rec["tag_sum"] += tag
            elif tag is not None:
                rec["tags"][tag].append(end - start)
    return dict(out)


def krawtchouk_counts() -> tuple[int, int]:
    """(hits, misses) of the enumerator's Krawtchouk cache in this process."""
    from gf4codes import enumerator
    info = getattr(getattr(enumerator, "_krawtchouk", None), "cache_info", None)
    if info is None:
        return (0, 0)
    ci = info()
    return (ci.hits, ci.misses)
