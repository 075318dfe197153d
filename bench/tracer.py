"""Spans and counters around calls into answergen, installed from outside.

A wrapper must sit at the name the caller looks up: ``model.py`` does
``from .seq2seq import encode``, so wrapping only ``answergen.seq2seq.encode``
would miss its calls. ``install`` therefore patches every attribute of every
loaded ``answergen`` module that is bound to the target function, and the
class attribute for methods. ``uninstall`` puts the originals back.

Spans stay in memory as (name, start, end, parent index, request id) and are
written out once, at the end of a run.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Callable


def resolve(target: str):
    """``"answergen.seq2seq:attend"`` or ``"answergen.model:AnswerModel.step"``
    to (owner, attribute, original); None when the program no longer has it."""
    module_name, _, path = target.partition(":")
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request: str | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- installing wrappers ---

    def _patch(self, target: str, make: Callable) -> None:
        found = resolve(target)
        if found is None:
            self.missing.append(target)
            return
        owner, attr, original = found
        wrapper = make(original)
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            sites = [(mod, name) for mod_name, mod in list(sys.modules.items())
                     if mod_name.split(".")[0] == "answergen"
                     for name, value in list(vars(mod).items()) if value is original]
        for site, name in sites:
            self._undo.append((site, name, original))
            setattr(site, name, wrapper)

    def span(self, target: str, name: str, before: Callable | None = None,
             after: Callable | None = None) -> None:
        """Record a span per call; ``before(args)`` and ``after(args, result)``
        run outside the timed interval."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def make(original):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (name, start, end, parent, self.request)
                if after is not None:
                    after(args, result)
                return result
            return wrapper

        self._patch(target, make)

    def count(self, target: str, name: str) -> None:
        """Count calls without a span."""
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        self._patch(target, make)

    def uninstall(self) -> None:
        for site, name, original in reversed(self._undo):
            setattr(site, name, original)
        self._undo.clear()

    # --- reading spans ---

    def durations(self, name: str, prefix: str = "") -> list[float]:
        """Span durations in seconds for ``name`` whose request id starts with
        ``prefix``."""
        return [s[2] - s[1] for s in self.spans
                if s is not None and s[0] == name and (s[4] or "").startswith(prefix)]

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds. Self time is the
        duration minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s is not None and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        table: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            if s is None:
                continue
            row = table.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s[2] - s[1]
            row["self_s"] += s[2] - s[1] - child[i]
        return table

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s) + "\n")
