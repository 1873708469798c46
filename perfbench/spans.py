"""In-memory spans recorded around public calls, from outside the program.

:class:`SpanRecorder` keeps one record per wrapped call — name, start, end,
the span that caused it, optional attributes — in a list, per-thread
parent stacks, and named counts taken at the same boundaries.  Nothing is
written until the caller dumps the list.

:class:`Patches` installs wrappers by replacing attributes on classes or
modules and puts every original object back on :meth:`Patches.restore`,
so a traced run leaves the patched classes exactly as it found them.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)


class Span:
    """One timed call.  ``parent`` is the id of the enclosing span on the
    same thread, or ``None`` for a root."""

    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, span_id: int, name: str, parent: Optional[int],
                 start: float, attrs: Optional[Dict[str, Any]] = None):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end,
                "attrs": self.attrs or {}}

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Span":
        span = cls(record["id"], record["name"], record["parent"],
                   record["start"], record["attrs"] or None)
        span.end = record["end"]
        return span


class SpanRecorder:
    """Collects spans and counts in memory; thread-safe appends.

    A span inherits ``request_id`` from its parent unless it sets its own,
    so every span under one served request carries that request's id.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs: Any) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if (parent is not None and parent.attrs
                and "request_id" in parent.attrs
                and "request_id" not in attrs):
            attrs["request_id"] = parent.attrs["request_id"]
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(span_id, name, parent.id if parent else None,
                    self.clock(), attrs or None)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # closed out of order (a generator torn down)
            stack.remove(span)
        with self._lock:
            self.spans.append(span)

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(span.name == name for span in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def timed_iter(self, name: str, iterable: Iterable,
                   on_item: Optional[Callable[[Span, Any], None]] = None
                   ) -> Iterator:
        """Yield from ``iterable``, one span per ``next()`` on it."""
        iterator = iter(iterable)
        try:
            while True:
                span = self.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    self.end(span)
                    return
                except BaseException:
                    self.end(span)
                    raise
                self.end(span)
                if on_item is not None:
                    on_item(span, item)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr = value``; the attribute must be ``owner``'s own
        (a class's ``__dict__`` entry or a module global)."""
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attr!r} itself")
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap_call(self, recorder: SpanRecorder, owner: Any, attr: str,
                  name: str,
                  after: Optional[Callable[..., None]] = None,
                  attrs: Optional[Callable[..., Dict[str, Any]]] = None
                  ) -> None:
        """Record a span around every call of ``owner.attr``.  ``attrs``
        (``attrs(args, kwargs)``) labels the span as it opens; ``after``
        runs as ``after(span, args, kwargs, result)`` once the span has
        closed, so its work stays outside the timed interval."""
        original = vars(owner)[attr]

        def wrapper(*args, **kwargs):
            span = recorder.begin(
                name, **(attrs(args, kwargs) if attrs is not None else {}))
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        self.replace(owner, attr, wrapper)

    def wrap_iter(self, recorder: SpanRecorder, owner: Any, attr: str,
                  name: str,
                  on_item: Optional[Callable[[Span, Any], None]] = None
                  ) -> None:
        """Record one span per ``next()`` on the iterator ``owner.attr``
        returns (generators do their work lazily, inside ``next``)."""
        original = vars(owner)[attr]

        def wrapper(*args, **kwargs):
            return recorder.timed_iter(name, original(*args, **kwargs),
                                       on_item)

        wrapper.__wrapped__ = original
        self.replace(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


# --------------------------------------------------------------------------- #
# span-tree arithmetic
# --------------------------------------------------------------------------- #

def children_of(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Per span: duration minus the part of it its direct children cover.

    Children of one span run on its thread, one after another, so their
    intervals do not overlap; clipping each to the parent's interval keeps
    a child that outlived its parent (a generator closed late) from
    driving the parent's self time below zero.
    """
    children = children_of(spans)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        for child in children.get(span.id, ()):
            covered += max(0.0, min(child.end, span.end)
                           - max(child.start, span.start))
        result[span.id] = span.duration - covered
    return result


def ancestors(span: Span, by_id: Dict[int, Span]) -> Iterator[Span]:
    parent = span.parent
    while parent is not None:
        node = by_id.get(parent)
        if node is None:
            return
        yield node
        parent = node.parent


def outermost_total(spans: List[Span], names: Iterable[str],
                    by_id: Optional[Dict[int, Span]] = None,
                    keep: Optional[Callable[[Span], bool]] = None) -> float:
    """Summed duration of spans in ``names`` not nested inside another span
    of ``names`` — a recursive or re-entrant call counts once."""
    names = set(names)
    by_id = by_id if by_id is not None else {s.id: s for s in spans}
    total = 0.0
    for span in spans:
        if span.name not in names or (keep is not None and not keep(span)):
            continue
        if any(a.name in names for a in ancestors(span, by_id)):
            continue
        total += span.duration
    return total
