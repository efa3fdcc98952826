"""Outside-in tracing: spans recorded around calls into each layer.

The program under test carries no tracing of its own. :func:`instrument`
temporarily replaces chosen public functions and methods of its modules with
wrappers that record a :class:`Span` per call and put the originals back on
exit. Only calls made in this process are seen: a call inside a worker
process runs that process's copy of the module, which is why the traced run
follows the kernels on the serial executor.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One traced call: name, interval, causing span and query id."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    query: Optional[str]
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_json(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "query": self.query,
            **({"attrs": dict(self.attrs)} if self.attrs else {}),
        }


class Tracer:
    """Collects spans in memory; thread-safe.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost span open on the same thread when it started, and it
    inherits that span's query id unless it names its own. Coroutines
    interleave on one thread, so a span around a coroutine is kept off the
    stack (``nest=False``): it has no parent and is nobody's parent.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, query: Optional[str] = None,
             nest: bool = True) -> Iterator[Span]:
        stack = self._stack() if nest else []
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if query is None and parent is not None:
            query = parent.query
        span = Span(span_id, name, time.perf_counter(), 0.0,
                    parent.span_id if parent else None, query)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        """The span's duration minus the time its direct children cover."""
        children = [s for s in self.spans if s.parent == span.span_id]
        return span.duration - sum(c.duration for c in children)


#: Called with (span, args, kwargs, result) after a wrapped call returns,
#: to attach counts to the span.
Annotate = Callable[[Span, Tuple[Any, ...], Dict[str, Any], Any], None]


@dataclass(frozen=True)
class Hook:
    """Wrap ``owner.attr`` (a module or class attribute) as span ``name``."""

    owner: Any
    attr: str
    name: str
    annotate: Optional[Annotate] = None
    #: Pulls the query id out of the call's arguments, for root spans.
    query_of: Optional[Callable[[Tuple[Any, ...], Dict[str, Any]], str]] = None


def _wrap(tracer: Tracer, hook: Hook, fn: Callable[..., Any]) -> Callable[..., Any]:
    def query_id(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Optional[str]:
        return hook.query_of(args, kwargs) if hook.query_of else None

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn, updated=())
        async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(hook.name, query_id(args, kwargs), nest=False) as span:
                out = await fn(*args, **kwargs)
                if hook.annotate is not None:
                    hook.annotate(span, args, kwargs, out)
                return out

        return async_wrapper

    # updated=(): a wrapped class (QueryIndex) must not lend its namespace.
    @functools.wraps(fn, updated=())
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(hook.name, query_id(args, kwargs)) as span:
            out = fn(*args, **kwargs)
            if hook.annotate is not None:
                hook.annotate(span, args, kwargs, out)
            return out

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, hooks: Sequence[Hook]) -> Iterator[Tracer]:
    """Record spans for every hooked call until the block exits."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for hook in hooks:
            raw = vars(hook.owner)[hook.attr]
            if isinstance(raw, classmethod):
                new: Any = classmethod(_wrap(tracer, hook, raw.__func__))
            else:
                new = _wrap(tracer, hook, raw)
            saved.append((hook.owner, hook.attr, raw))
            setattr(hook.owner, hook.attr, new)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
