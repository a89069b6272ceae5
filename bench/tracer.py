"""Span recording from outside the program.

``Tracer.wrap`` replaces a function at the name its callers look it up by
(a module global or a class attribute) with a wrapper that records one span
per call: id, parent id, name, start and end.  Spans stay in memory until
``write`` dumps them as JSON lines.  ``unwrap`` restores every original, so
an untraced pass after a traced one runs the unmodified program.
"""

from __future__ import annotations

import functools
import json
import time

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent_id, name, start, end]
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, before=None, after=None):
        """Record a span around ``owner.attr``.

        ``name`` is a string or ``name(args, kwargs)``.  ``before(args,
        kwargs)`` runs ahead of the span; ``after(span, args, kwargs, result)``
        runs once the span has closed, so its cost lands in the parent span.
        """
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            rec = [len(spans), stack[-1] if stack else -1, label, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if after is not None:
                after(rec, args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def unwrap(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def self_times(self, spans) -> dict:
        """Span id -> duration minus the time its direct children cover."""
        child = {}
        for sid, parent, _, start, end in spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        return {s[0]: (s[4] - s[3]) - child.get(s[0], 0.0) for s in spans}

    def write(self, path, phases: dict):
        """Write ``{phase: [span, ...]}`` as one JSON object per span."""
        with open(path, "w") as fh:
            for phase, spans in phases.items():
                for sid, parent, name, start, end in spans:
                    fh.write(json.dumps({"phase": phase, "id": sid, "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")
