"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the program from the
outside: nothing under ``src/`` knows it exists.  Each wrapped call is a
span (name, start, end, parent).  Spans are held in memory in flat lists
and written out once, when the run ends.

Self time is a span's duration minus the time its direct child spans
cover.  Calls run on one thread and children nest inside their parent, so
the covered time is the sum of the children's durations.  A name's total
``s`` counts only its outermost spans, so a name nested inside itself is
not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

#: ``count(result, args, kwargs) -> {metric name: amount}``, added to the
#: tracer's counters after a wrapped call returns.
Counter = Callable[[Any, tuple, dict], dict[str, float]]


@dataclass(frozen=True)
class Target:
    """One function or method to wrap: ``module:qualname`` as span ``name``."""

    module: str
    qualname: str  # "function" or "Class.method"
    name: str
    count: Counter | None = None


class Tracer:
    """Span recorder with a parent stack (single-threaded)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, indexed by span id.
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._covered: list[float] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        #: name -> [calls, total seconds (outermost spans), self seconds]
        self.stats: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(float("nan"))
        self._covered.append(0.0)
        self._stack.append(span)
        self._depth[name] = self._depth.get(name, 0) + 1
        self.span_start.append(self.clock())
        return span

    def end(self, span: int) -> None:
        end = self.clock()
        if not self._stack or self._stack[-1] != span:
            raise RuntimeError("spans must end in reverse order of their start")
        self._stack.pop()
        self.span_end[span] = end
        duration = end - self.span_start[span]
        name = self.names[self.span_name[span]]
        depth = self._depth[name] = self._depth[name] - 1
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        if depth == 0:
            stat[1] += duration
        stat[2] += duration - self._covered[span]
        parent = self.span_parent[span]
        if parent >= 0:
            self._covered[parent] += duration

    def count(self, amounts: dict[str, float]) -> None:
        for key, amount in amounts.items():
            self.counters[key] = self.counters.get(key, 0.0) + float(amount)

    def wrap(self, fn: Callable, name: str, count: Counter | None = None) -> Callable:
        """``fn`` inside a span; return values and exceptions pass unchanged."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                self.count(count(result, args, kwargs))
            return result

        traced.__perfbench_original__ = fn  # type: ignore[attr-defined]
        return traced

    # -- output -------------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        """``(calls, total s, self s)`` of a span name (zeros if never seen)."""
        calls, total, self_s = self.stats.get(name, (0, 0.0, 0.0))
        return int(calls), total, self_s

    def write(self, path: str) -> None:
        """Write every span as JSON (names table plus parallel columns)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name,
                    "start": self.span_start,
                    "end": self.span_end,
                    "parent": self.span_parent,
                    "counters": self.counters,
                },
                fh,
            )


class Patch:
    """Wrappers installed into loaded modules and classes; undone by
    :meth:`restore`."""

    def __init__(self, package: str) -> None:
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        # A module first imported while the wrappers were live bound them
        # with ``from x import f``; put the originals back there too.
        for module in _package_modules(self.package):
            for attr, value in list(vars(module).items()):
                original = getattr(value, "__perfbench_original__", None)
                if original is not None and inspect.isfunction(value):
                    setattr(module, attr, original)


def _package_modules(package: str) -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if name == package or name.startswith(package + ".")
    ]


def install(tracer: Tracer, targets: list[Target], package: str) -> Patch:
    """Wrap every target, including the aliases that ``from module import
    function`` left in already-loaded modules of ``package``."""
    patch = Patch(package)
    for target in targets:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = inspect.getattr_static(owner, attr)
            if attr not in vars(owner) or not inspect.isfunction(original):
                raise TypeError(f"{target.module}:{target.qualname} is not a plain method")
            patch.set(owner, attr, tracer.wrap(original, target.name, target.count))
            continue
        original = getattr(module, attr)
        if not inspect.isfunction(original):
            raise TypeError(f"{target.module}:{target.qualname} is not a function")
        wrapped = tracer.wrap(original, target.name, target.count)
        for loaded in _package_modules(package):
            for alias, value in list(vars(loaded).items()):
                if value is original:
                    patch.set(loaded, alias, wrapped)
    return patch


def wrappers_left(package: str) -> list[str]:
    """Names in ``package``'s loaded modules and their classes that still
    hold a tracer wrapper (empty after :meth:`Patch.restore`)."""
    left = []
    for module in _package_modules(package):
        name = module.__name__
        for attr, value in list(vars(module).items()):
            if hasattr(value, "__perfbench_original__"):
                left.append(f"{name}.{attr}")
            if inspect.isclass(value) and value.__module__ == name:
                for method, member in vars(value).items():
                    if hasattr(member, "__perfbench_original__"):
                        left.append(f"{name}.{attr}.{method}")
    return left
