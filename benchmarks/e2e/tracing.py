"""Spans recorded from outside the program.

The benchmark may not edit ``src/``, so layer boundaries are observed
by wrapping the layers' public entry points *where callers look them
up* — a class attribute for a method, every ``repro`` module global
bound to the function for a free function — for the duration of the
traced pass, and putting the originals back afterwards.

A span is ``[name, parent, op, start_ns, end_ns, counts]``: ``parent``
is the index of the span that was open when this one began (``-1`` for
a root), ``op`` the identifier the spans of one benchmark op share,
``counts`` whatever the entry point's counter read off its arguments
and result.  Spans stay in memory; :func:`write_spans` dumps them when
the pass is over.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence

NAME, PARENT, OP, START, END, COUNTS = range(6)

#: Free functions are patched in the modules of this package only.
PATCHED_PACKAGE = "repro"

#: ``counter(args, kwargs, result) -> {key: number}``
Counter = Callable[[tuple, dict, object], Dict[str, float]]


class Tracer:
    """Records spans around wrapped callables; single-threaded."""

    def __init__(self):
        self.spans: List[list] = []
        self.op = -1
        self._open: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable,
             counter: Optional[Counter] = None) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        spans, open_spans = self.spans, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, open_spans[-1] if open_spans else -1, self.op,
                    0, 0, None]
            spans.append(span)
            open_spans.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_spans.pop()
            if counter is not None:
                span[COUNTS] = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around the caller's own block (the harness's op root)."""
        index = len(self.spans)
        span = [name, self._open[-1] if self._open else -1, self.op,
                0, 0, None]
        self.spans.append(span)
        self._open.append(index)
        span[START] = time.perf_counter_ns()
        try:
            yield span
        finally:
            span[END] = time.perf_counter_ns()
            self._open.pop()

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_method(self, cls: type, attr: str, name: str,
                     counter: Optional[Counter] = None) -> None:
        """Trace ``cls.attr`` (plain, static or class method)."""
        original = cls.__dict__[attr]
        if isinstance(original, (staticmethod, classmethod)):
            replacement = type(original)(
                self.wrap(name, original.__func__, counter))
        else:
            replacement = self.wrap(name, original, counter)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def patch_function(self, fn: Callable, name: str,
                       counter: Optional[Counter] = None) -> None:
        """Trace a free function under every module global bound to it.

        ``from x import f`` copies the binding into the importer, so
        patching only the defining module would miss those callers.
        """
        traced = self.wrap(name, fn, counter)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                    module_name == PATCHED_PACKAGE
                    or module_name.startswith(PATCHED_PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, traced)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Sequence]) -> List[int]:
    """Per span: its duration minus what its child spans cover.

    Children run inside their parent on one thread and do not overlap
    each other, so subtracting each span's duration from its parent
    leaves exactly the time the parent spent in its own code.  A
    function that recurses into itself is just a parent and a child
    that share a name.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def span_totals(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed ``self_ns``, ``calls`` and counts.

    Counts of a span nested directly inside a span of the *same* name
    are skipped: the fused ``probe_and_insert`` calls ``contains`` and
    ``add`` itself, and those keys were already counted once.
    """
    totals: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[NAME], {"self_ns": 0, "calls": 0})
        entry["self_ns"] += own
        nested = (span[PARENT] >= 0
                  and spans[span[PARENT]][NAME] == span[NAME])
        if nested:
            continue
        entry["calls"] += 1
        for key, value in (span[COUNTS] or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals


def inclusive_totals(spans: Sequence[Sequence]) -> Dict[str, int]:
    """Per span name: summed duration, children included.

    A span inside another of the same name (at any depth) is skipped,
    so a layer that re-enters itself is not counted twice.
    """
    totals: Dict[str, int] = {}
    for span in spans:
        ancestor = span[PARENT]
        while ancestor >= 0 and spans[ancestor][NAME] != span[NAME]:
            ancestor = spans[ancestor][PARENT]
        if ancestor < 0:
            totals[span[NAME]] = (totals.get(span[NAME], 0)
                                  + span[END] - span[START])
    return totals


def write_spans(spans: Sequence[Sequence], path) -> None:
    """Dump the raw spans (name, parent, op, start, end) as JSON."""
    with open(path, "w") as handle:
        json.dump({
            "columns": ["name", "parent", "op", "start_ns", "end_ns"],
            "spans": [span[:COUNTS] for span in spans],
        }, handle, separators=(",", ":"))
