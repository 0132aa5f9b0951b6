"""Span recording around calls into the program's layers.

The recorder lives in the benchmark.  :func:`instrument` temporarily
wraps public functions and methods of the program's modules so each call
records a span (name, start, end, parent, request id); leaving the
``with`` block restores the originals.  Spans are kept in memory and
written out once, at the end of the run.

Parents come from one stack shared by all threads.  That is exact for
the in-process replay, which runs one request at a time: when the
service hands a solve to an executor thread, the calling thread blocks
until it finishes, so instrumented calls never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import Any


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str
    counts: dict[str, int] = dataclasses.field(default_factory=dict)  # work done inside


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._lock = threading.Lock()
        self.request = ""
        #: Spans that could not be recorded: their layer function is gone.
        self.missing: set[str] = set()

    def open(self, name: str) -> int:
        with self._lock:
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
            index = len(self.spans) - 1
            self._stack.append(index)
        return index

    def close(self, index: int, counts: dict[str, int] | None = None) -> None:
        end = time.perf_counter()
        with self._lock:
            span = self.spans[index]
            span.end = end
            if counts:
                span.counts = counts
            self._stack.remove(index)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    @contextmanager
    def request_scope(self, request_id: str, name: str = "request") -> Iterator[None]:
        """A root span for one request; every span inside shares its id."""
        self.request = request_id
        with self.span(name):
            yield

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([dataclasses.asdict(s) for s in self.spans]))


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor, span.start), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


@dataclasses.dataclass(frozen=True)
class Target:
    """A callable to wrap: ``owner.attr`` records spans named ``name``.

    ``count`` turns the call's arguments and result into the span's work
    counts (e.g. solver steps).  With ``everywhere`` the same function
    object is also wrapped in every ``repro`` module that imported it by
    name, so calls through those names are seen too.
    """

    owner: Any
    attr: str
    name: str
    count: Callable[[tuple, Any], dict[str, int]] | None = None
    everywhere: bool = False


def _wrap(recorder: SpanRecorder, fn: Callable, target: Target) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = recorder.open(target.name)
        counts = None
        try:
            result = fn(*args, **kwargs)
            if target.count is not None:
                counts = target.count(args, result)
            return result
        finally:
            recorder.close(index, counts)

    return wrapper


@contextmanager
def instrument(recorder: SpanRecorder, targets: Sequence[Target]) -> Iterator[None]:
    """Wrap every target for the duration of the block."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for target in targets:
            try:
                raw = inspect.getattr_static(target.owner, target.attr)
            except AttributeError:
                # A renamed or removed layer function records no spans.  Its
                # metrics would read 0, a false gain, so the run is marked
                # incorrect (see ``missing_spans``) until the target moves too.
                recorder.missing.add(target.name)
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped: Any = type(raw)(_wrap(recorder, raw.__func__, target))
            else:
                wrapped = _wrap(recorder, raw, target)
            owners = [target.owner]
            if target.everywhere:
                owners += [
                    module
                    for name, module in list(sys.modules.items())
                    if name.startswith("repro.") and module is not target.owner
                    and getattr(module, target.attr, None) is raw
                ]
            for owner in owners:
                saved.append((owner, target.attr, raw))
                setattr(owner, target.attr, wrapped)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def missing_spans(recorder: SpanRecorder, expected: Iterable[str]) -> list[str]:
    """Expected span names the recorder never saw, and targets it could not wrap."""
    seen = {span.name for span in recorder.spans}
    return sorted(recorder.missing | (set(expected) - seen))
