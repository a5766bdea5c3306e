"""Spans and counters recorded around calls into the adiabat layers.

The tracer replaces a library function by a wrapper in every loaded
``adiabat`` module that binds it, because ``from .transport import
transport`` in ``cli`` is a binding of its own and callers look names up
in their own module.  Nothing under ``src/adiabat`` changes.

Spans are kept per thread.  A span opened in a thread whose stack is
empty (a worker of ``numeric_monodromy``'s pool) takes as parent the span
that is open in the main thread at that moment, so pool work nests under
the call that started it.  A span's self time is its duration minus the
union of its children's intervals; spans of parallel workers overlap, so
self times can add up to more than the wall time.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # one record per span: [name, start, end, parent index or -1]
        self.spans = []
        self.counts = defaultdict(int)
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, k=1):
        with self._lock:
            self.counts[name] += k

    def _span_wrapper(self, name, fn, on_result):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack and stack is not self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = -1
            rec = [name, 0.0, 0.0, parent]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, module, attr, wrapper):
        """Rebind ``module.attr`` in every adiabat module that holds it."""
        original = getattr(module, attr)
        hits = 0
        for name, mod in list(sys.modules.items()):
            if not (name == "adiabat" or name.startswith("adiabat.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                    hits += 1
        if hits == 0:
            raise LookupError(f"{module.__name__}.{attr} is bound nowhere")

    def span(self, module, attr, name=None, on_result=None):
        """Record a span around every call of ``module.attr``."""
        name = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        fn = getattr(module, attr)
        self._patch(module, attr, self._span_wrapper(name, fn, on_result))

    def counter(self, module, attr, name):
        """Count the calls of ``module.attr`` without a span."""
        fn = getattr(module, attr)
        self._patch(module, attr, self._count_wrapper(name, fn))

    # -- summarizing -------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        children = defaultdict(list)
        for idx, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(idx)
        out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for idx, (name, t0, t1, _) in enumerate(self.spans):
            covered = 0.0
            end = t0
            for c0, c1 in sorted((max(self.spans[c][1], t0),
                                  min(self.spans[c][2], t1))
                                 for c in children[idx]):
                if c1 <= end:
                    continue
                covered += c1 - max(c0, end)
                end = c1
            rec = out[name]
            rec["calls"] += 1
            rec["total"] += t1 - t0
            rec["self"] += (t1 - t0) - covered
        return dict(out)
