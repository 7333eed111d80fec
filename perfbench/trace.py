"""Memory-held layer spans for the traced benchmark run.

A :class:`Tracer` wraps public entry points of the program in spans
(name, start, end, parent span) kept in a list, plus counters taken at
the same boundaries.  Nothing is written while the run is measured;
``layers.layer_metrics`` folds the spans into per-layer self times
after the run.

Wrapping follows how Python binds names:

* a module-level function is replaced at *every* binding site — the
  defining module and every loaded ``repro`` or ``perfbench`` module
  that imported it with ``from … import`` — so calls through any of
  those names are timed;
* a method is replaced on its class, so bound lookups on instances
  (including ones stored earlier as ``obj.method`` attributes only at
  call time) go through the wrapper.

:meth:`Tracer.uninstall` restores every original binding.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

#: Packages whose modules' ``from … import`` bindings are rewrapped.
BOUND_IN = ("repro", "perfbench")

#: A counter callback: ``(args, kwargs, result, raised) -> amount``.
CountFn = Callable[[tuple, dict, object, bool], float]


class Span(NamedTuple):
    """One timed call: ``parent`` is the index of the enclosing span
    in :attr:`Tracer.spans` (-1 for a root).  Wrappers store plain
    tuples in this layout; they are cheaper to build per call."""

    name: str
    start: float
    end: float
    parent: int


def self_times(spans: Sequence[tuple]) -> List[float]:
    """Per-span self time: its duration minus the durations of its
    direct children.  Children are strictly nested in their parent,
    so this never double-counts and the self times of a tree sum to
    the root's duration."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - child for (_, start, end, _), child
            in zip(spans, child_time)]


class Tracer:
    """Records spans around wrapped callables.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with exact numbers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        """Open a span by hand (the benchmark's root and phases)."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, self.clock(), 0.0, parent))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError("spans must close innermost first")
        self._stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, self.clock(), parent)

    def wrap(self, name: str, fn: Callable,
             counters: Optional[Dict[str, CountFn]] = None) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``; each entry of
        ``counters`` adds its callback's amount to that counter after
        every call (also when the call raised)."""
        spans = self.spans
        stack = self._stack
        clock = self.clock
        counts = self.counts
        items = tuple((counters or {}).items())

        def close(index, parent, start, args, kwargs, result, raised):
            spans[index] = (name, start, clock(), parent)
            stack.pop()
            for counter, count in items:
                counts[counter] += count(args, kwargs, result, raised)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(index, parent, start, args, kwargs, None, True)
                raise
            close(index, parent, start, args, kwargs, result, False)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def replace(self, owner, attr: str, value) -> None:
        """Rebind ``owner.attr`` until :meth:`uninstall`."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module_name: str, func_name: str, name: str,
                      counters: Optional[Dict[str, CountFn]] = None
                      ) -> int:
        """Wrap a module-level function at every binding site among the
        loaded ``repro`` and ``perfbench`` modules; returns the number
        of sites."""
        module = sys.modules[module_name]
        original = getattr(module, func_name)
        traced = self.wrap(name, original, counters)
        sites = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] not in BOUND_IN:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, attr, traced)
                    sites += 1
        return sites

    def wrap_method(self, cls: type, method: str, name: str,
                    counters: Optional[Dict[str, CountFn]] = None
                    ) -> None:
        """Wrap a method on its class (plain, static or class method)."""
        raw = cls.__dict__[method]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(name, raw.__func__,
                                             counters))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__,
                                            counters))
        else:
            wrapped = self.wrap(name, raw, counters)
        self.replace(cls, method, wrapped)

    def uninstall(self) -> None:
        """Restore every binding this tracer replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def self_time_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            totals[span[0]] += own
        return dict(totals)

    def calls_by_name(self) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span[0]] += 1
        return dict(totals)
