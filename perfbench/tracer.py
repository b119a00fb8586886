"""Outside-in tracer: spans around calls into translab, recorded from here.

``install`` wraps each listed function and rebinds every module attribute
that holds the same object, because ``from .x import f`` copies the binding
(``report.check_k_transitive`` and ``deciders.search_low_rank_element`` are
such copies).  Methods, classmethods and staticmethods are wrapped through
the class ``__dict__``: ``getattr`` on a classmethod returns a fresh bound
method, and wrapping that would record nothing.

Spans (name, start, end, parent) stay in memory in flat arrays until
``save``.  Self time, a span's duration minus the time its child spans
cover, is accumulated as the spans close.  Hooks turn arguments and results
into counters (work computed from array shapes, routes read from verdict
evidence).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self._stack: list = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def reset(self) -> None:
        """Forget every span and count recorded so far."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        for arr in (self.span_name, self.span_start, self.span_end,
                    self.span_parent):
            del arr[:]

    def wrap(self, name: str, fn, hook=None):
        if name is None:  # a counter only: no span, time stays with the caller
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(counts, args, kwargs, result)
                return result
            return counted
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack = self._stack
        names, starts = self.span_name, self.span_start
        ends, parents = self.span_end, self.span_parent
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """targets: (module name, attribute path, span name, hook or None).
        An attribute path "Cls.meth" wraps a method in the class dict; a
        span name of None only runs the hook."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "translab"
                                         or n.startswith("translab."))]
        for modname, path, name, hook in targets:
            module = sys.modules[modname]
            if "." in path:
                clsname, attr = path.split(".")
                cls = getattr(module, clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self.wrap(name, raw.__func__, hook))
                else:
                    new = self.wrap(name, raw, hook)
                setattr(cls, attr, new)
                continue
            fn = getattr(module, path)
            traced = self.wrap(name, fn, hook)
            rebound = 0
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, traced)
                        rebound += 1
            if not rebound:
                raise RuntimeError(f"{modname}.{path} is bound nowhere")

    def save(self, path: str) -> int:
        """Write the spans as a compressed numpy archive; returns the count."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64))
        return len(self.span_start)
