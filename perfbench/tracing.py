"""In-memory spans recorded from outside the program.

The benchmark times each layer at the calls *into* it: :class:`Patches`
replaces a public entry point, at the name its callers resolve (a module
attribute or a class attribute), with a wrapper that opens a span around
the original call.  Nothing inside ``src/`` changes.

A span records its name, start, end, parent span and op id.  Spans stay in
memory (:attr:`Tracer.spans`) and are written out once, at the end of the
run (:meth:`Tracer.write`).  A layer's *self time* is its span's duration
minus the time covered by its direct children (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    op: Optional[int]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Patches:
    """Attribute replacements that are undone in reverse order.

    ``owner`` is a module or a class; for a class the original is read from
    the class's own ``__dict__`` so that restoring never turns an inherited
    attribute into an own one.
    """

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper: Callable[[Callable], Callable]) -> None:
        if isinstance(owner, type):
            if attr not in vars(owner):
                raise AttributeError(f"{owner.__name__}.{attr} is inherited, patch its owner")
            original = vars(owner)[attr]
        else:
            original = getattr(owner, attr)
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """Records nested spans per thread; one op id ties an op's spans together."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[int]:
        """Record one span around the ``with`` body; yields its id."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = getattr(self._local, "op", None)
        span_id = next(self._ids)
        stack.append(span_id)
        start = self.clock()
        try:
            yield span_id
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, op))

    @contextmanager
    def op(self, op_id: int, name: str = "op") -> Iterator[int]:
        """The root span of one op; spans opened inside inherit ``op_id``."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            with self.span(name, op=op_id) as span_id:
                yield span_id
        finally:
            self._local.op = previous

    def record(self, name: str, start_ns: int, end_ns: int,
               op: Optional[int] = None) -> None:
        """Add a span timed by the caller, as a child of the open span.

        ``op`` defaults to the thread's current op.
        """
        stack = self._stack()
        if op is None:
            op = getattr(self._local, "op", None)
        self.spans.append(Span(next(self._ids), name, start_ns, end_ns,
                               stack[-1] if stack else None, op))

    def wrapper(self, name: str) -> Callable[[Callable], Callable]:
        """A ``make_wrapper`` for :meth:`Patches.wrap` that opens span ``name``."""
        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return traced
        return make

    @contextmanager
    def installed(self, targets: Iterable[Tuple[object, str, str]]) -> Iterator[None]:
        """Wrap every ``(owner, attribute, span name)`` target for the body."""
        patches = Patches()
        try:
            for owner, attr, name in targets:
                patches.wrap(owner, attr, self.wrapper(name))
            yield
        finally:
            patches.undo()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (the end-of-run dump)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in sorted(self.spans, key=lambda s: s.start_ns):
                out.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id -> duration minus the duration of its direct children (ns)."""
    spans = list(spans)
    covered: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration_ns
    return {span.span_id: max(0, span.duration_ns - covered[span.span_id])
            for span in spans}


def per_op_totals(spans: Iterable[Span], use_self_time: bool = True,
                  ) -> Dict[int, Dict[str, int]]:
    """Op id -> span name -> summed (self or total) time in ns."""
    spans = list(spans)
    own = self_times(spans) if use_self_time else None
    out: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        if span.op is None:
            continue
        out[span.op][span.name] += own[span.span_id] if own is not None else span.duration_ns
    return out


def call_counts(spans: Iterable[Span]) -> Dict[int, Dict[str, int]]:
    """Op id -> span name -> number of spans."""
    out: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        if span.op is not None:
            out[span.op][span.name] += 1
    return out
