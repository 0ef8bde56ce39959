"""In-memory spans recorded at the package's layer boundaries.

The tracer patches public functions and properties of the package for
the duration of a traced run and restores them afterwards, so the
program itself carries no tracing code.  Each patched call becomes a
span with a name, start, end, parent and the id of the instance (the
root span) it belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    span_id: int
    parent_id: int | None
    instance: object
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, instance=None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            instance = parent.instance
        sp = Span(len(self.spans), parent.span_id if parent else None, instance, name,
                  time.perf_counter(), attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, note=None):
        """fn inside a span; note(args, result) adds attributes to it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if note is not None:
                    sp.attrs.update(note(args, result))
                return result

        return traced

    @contextlib.contextmanager
    def patched(self, boundaries):
        """Trace each (owner, attribute, span name[, note]) until exit.

        A property is traced through its getter.  A boundary whose
        attribute no longer exists is skipped and listed in missing, so
        a refactor shows up as a zero metric and a named gap, not as an
        error.
        """
        saved = []
        try:
            for owner, attr, name, *note in boundaries:
                orig = owner.__dict__.get(attr)
                if orig is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                if isinstance(orig, property):
                    repl = property(self.wrap(orig.fget, name))
                else:
                    repl = self.wrap(orig, name, *note)
                saved.append((owner, attr, orig))
                setattr(owner, attr, repl)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def self_seconds(self, sp: Span, children: dict) -> float:
        """Duration minus the time covered by direct children."""
        return sp.seconds - sum(c.seconds for c in children.get(sp.span_id, ()))

    def children(self) -> dict:
        kids: dict = {}
        for sp in self.spans:
            if sp.parent_id is not None:
                kids.setdefault(sp.parent_id, []).append(sp)
        return kids

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.span_id, "parent": sp.parent_id, "instance": sp.instance,
                    "name": sp.name, "start": sp.start, "end": sp.end, "attrs": sp.attrs,
                }) + "\n")
