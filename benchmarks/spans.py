"""In-memory spans around the benchmark's calls into ``landscape``.

A span records its name, start, end, parent span and operation id.  The
benchmark opens one span per operation of a job and wraps each
``landscape.<module>`` it calls in a proxy that opens a child span around
every public function call, so every layer is timed from outside the
program.  With tracing off the job gets the plain modules and a tracer
whose spans cost one ``nullcontext``.
"""

import contextlib
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span, None at top level
    op: int | None          # operation id shared by an operation and its calls
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self._next_op = 0

    @contextlib.contextmanager
    def _open(self, name, op, attrs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent, op, attrs)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def operation(self, name, **attrs):
        """Span for one operation of a job; its library calls become children."""
        if not self.enabled:
            return contextlib.nullcontext()
        op = self._next_op
        self._next_op += 1
        return self._open(name, op, attrs)

    def call(self, name):
        if not self.enabled:
            return contextlib.nullcontext()
        op = self.spans[self._stack[-1]].op if self._stack else None
        return self._open(name, op, {})

    def dump(self):
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "attrs": s.attrs}
            for s in self.spans
        ]


class TracedModule:
    """Proxy for a ``landscape`` submodule that spans every function call."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer
        self._prefix = module.__name__.split(".", 1)[1]

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if isinstance(value, type) or not callable(value):
            return value
        name = f"{self._prefix}.{attr}"
        tracer = self._tracer

        def traced(*args, **kwargs):
            with tracer.call(name):
                return value(*args, **kwargs)

        return traced


class Library:
    """The ``landscape`` modules a job calls, traced or plain."""

    MODULES = ("bounds", "cli", "construct", "linalg", "network",
               "stationarity", "train", "volume")

    def __init__(self, tracer):
        for name in self.MODULES:
            module = importlib.import_module(f"landscape.{name}")
            setattr(self, name, TracedModule(module, tracer) if tracer.enabled else module)
