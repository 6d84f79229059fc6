"""Span tracing of mognmf from the outside.

The tracer replaces public functions by wrappers in the module
namespaces where their callers look them up (for example
``mognmf.unmix.update_abundances``, which ``run_solver`` resolves from
its own module globals).  Each wrapper records one span: label, start,
end and parent span, plus optional attributes computed from the call's
result (graph sizes, iteration counts, bytes written).  Nothing in the
package changes; the wrappers live only in the process that installed
them.  The traced workloads run in one thread, so the spans nest.
"""

from __future__ import annotations

import functools
import time

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []  # ids of the open spans
        self._serial = 0

    def _new_id(self) -> int:
        self._serial += 1
        return self._serial

    def _record(self, sid, label, t0, t1) -> dict:
        span = {"id": sid, "parent": self._stack[-1] if self._stack else None,
                "name": label, "start": t0, "end": t1}
        self.spans.append(span)
        return span

    def wrap(self, module, name: str, label: str, attrs=None) -> None:
        """Replace ``module.name`` by a span-recording wrapper.

        ``attrs(args, kwargs, result)`` returns a dict stored on the span;
        its cost is recorded as a separate bookkeeping span so it does not
        count as the caller's self time.
        """
        fn = getattr(module, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._new_id()
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
            span = self._record(sid, label, t0, t1)
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
                self._record(self._new_id(), BOOKKEEPING, t1, time.perf_counter())
            return result

        setattr(module, name, wrapper)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Map span id to self time: duration minus the durations of its children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
