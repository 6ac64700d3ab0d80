"""In-memory spans around bwrum's public entry points, recorded from outside.

``Tracer.install`` replaces each entry point listed in ``ENTRY_POINTS``
with a wrapper in every loaded ``bwrum`` module that holds it, so the
names re-imported into ``bwrum.measure``, ``bwrum.cli`` and the package
itself are traced too.  Nothing under ``src/`` changes; ``uninstall``
puts the originals back.

A span is ``[name, start, end, parent, op, tag]``: ``parent`` indexes
the enclosing span (or is None), ``op`` is the caller-set operation id,
and ``tag`` is a short outcome such as the construction mode, the LP
method, a byte or draw count, or ``raised:`` and the exception's name.
"""

from __future__ import annotations

import importlib
import os
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable

NAME, START, END, PARENT, OP, TAG = range(6)
RAISED = "raised:"


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# module -> {function name: tagger(args, result) or None}
ENTRY_POINTS: dict[str, dict[str, Callable | None]] = {
    "polynomials": {"all_polynomials": None, "check_representable": None},
    "measure": {
        "build_construction": lambda args, result: result.mode,
        "build_distribution": None,
        "verify_reconstruction": None,
        "system_from_distribution": None,
    },
    "lp": {"lp_feasibility_oracle": lambda args, result: result.method},
    "io": {
        "load_json": lambda args, result: _file_size(args[0]),
        "dump_json": lambda args, result: _file_size(args[1]),
        "system_from_payload": None,
        "system_to_payload": None,
        "counts_from_payload": None,
        "counts_to_payload": None,
        "distribution_from_payload": None,
        "distribution_to_payload": None,
        "design_from_payload": None,
    },
    "simulate": {"simulate_dataset": lambda args, result: sum(t for _, t in args[1])},
    "core": {"from_counts": None, "validate": None, "new_system": None},
}

LAYERS = tuple(ENTRY_POINTS)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: object = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, tagger: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), None, stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = perf_counter()
                span[TAG] = RAISED + type(exc).__name__
                raise
            finally:
                stack.pop()
            span[END] = perf_counter()
            if tagger is not None:
                try:
                    span[TAG] = tagger(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # called in a shape the tagger does not know; leave untagged
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        wrappers: dict[int, Callable] = {}
        for module, functions in ENTRY_POINTS.items():
            mod = importlib.import_module(f"bwrum.{module}")
            for fname, tagger in functions.items():
                fn = getattr(mod, fname)
                wrappers[id(fn)] = self.wrap(f"{module}.{fname}", fn, tagger)
        for modname, mod in list(sys.modules.items()):
            if modname != "bwrum" and not modname.startswith("bwrum."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            own[parent] -= span[END] - span[START]
    return own


@dataclass(frozen=True)
class Record:
    """One span, flattened: the parent link is resolved into child time per layer."""

    name: str
    seconds: float
    own: float
    tag: object
    top_level: bool
    child_seconds: dict[str, float]


def records(spans: list[list], ops: Iterable | None = None) -> list[Record]:
    """Flatten the spans of the given operations (all spans when ``ops`` is None)."""
    keep = None if ops is None else set(ops)
    own = self_times(spans)
    children: list[dict[str, float]] = [defaultdict(float) for _ in spans]
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]][layer_of(span[NAME])] += span[END] - span[START]
    return [
        Record(s[NAME], s[END] - s[START], own[i], s[TAG], s[PARENT] is None, dict(children[i]))
        for i, s in enumerate(spans)
        if keep is None or s[OP] in keep
    ]
