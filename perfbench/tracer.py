"""In-memory span recorder and the call wrappers the traced run installs.

A span is ``(id, name, parent, thread, start, end, phase, work)``:
``work`` is the amount the call carried (queries, items, bytes) and
``phase`` the benchmark phase it started in.  Spans are appended to one
list (``list.append`` is atomic under the GIL) and written out when the
run ends.  Parent links are per thread, so a span opened on the serving
flusher never adopts a span of the generator thread.  A layer's self
time is its span minus its direct child spans.

Very hot leaf calls (``ServingFrontend.submit``, transport sends) are
*tallied* instead: calls, seconds and work per ``(name, phase)``, no
span record.

Only the process that created the tracer records: a worker process
forked from a traced run inherits the patched modules, but every
wrapper there is a pass-through.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Union


class Tracer:
    """Span recorder; a disabled tracer hands every function back unwrapped."""

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self.pid = os.getpid()
        self.phase = "setup"
        self.spans: List[tuple] = []
        self.tallies: Dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0])
        #: ``id(summary) -> method``: names the kernel spans.
        self.labels: Dict[int, str] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._tally_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _recording(self) -> bool:
        return os.getpid() == self.pid

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        name: Union[str, Callable],
        fn: Callable,
        *,
        work: Optional[Callable] = None,
        skip: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a span.

        ``name`` may be a callable of the call's ``args`` (one wrapped
        kernel serving several methods); ``work(args, result)`` gives the
        span's work amount; ``skip(args)`` true runs ``fn`` without a
        span (a cache hit that does no layer work).
        """
        if not self.enabled:
            return fn
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._recording() or (skip is not None and skip(args)):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            phase = tracer.phase
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            tracer.spans.append((
                span_id,
                name(args) if callable(name) else name,
                parent,
                threading.get_ident(),
                start,
                end,
                phase,
                work(args, result) if work is not None else 1,
            ))
            return result

        return traced

    def tally(
        self, name: str, fn: Callable, *, work: Optional[Callable] = None
    ) -> Callable:
        """``fn`` wrapped in an aggregate counter (calls, seconds, work)."""
        if not self.enabled:
            return fn
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not tracer._recording():
                return fn(*args, **kwargs)
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            amount = work(args, result) if work is not None else 1
            with tracer._tally_lock:
                slot = tracer.tallies[(name, tracer.phase)]
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += amount
            return result

        return counted

    def patch(self, owner, attr: str, name, **kwargs) -> None:
        """Replace ``owner.attr`` (module, class or instance) with a span."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kwargs))

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def by_name(self, phases: Optional[Iterable[str]] = None) -> Dict[str, dict]:
        """Per span name: calls, total and self seconds, work, durations."""
        wanted = None if phases is None else set(phases)
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[2] >= 0:
                child_time[span[2]] += span[5] - span[4]
        out: Dict[str, dict] = {}
        for span_id, name, _parent, _thread, start, end, phase, work in (
            self.spans
        ):
            if wanted is not None and phase not in wanted:
                continue
            entry = out.get(name)
            if entry is None:
                entry = out[name] = {
                    "calls": 0, "total_s": 0.0, "self_s": 0.0,
                    "work": 0, "durations": [],
                }
            duration = end - start
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time.get(span_id, 0.0)
            entry["work"] += work
            entry["durations"].append(duration)
        return out

    def tally_of(self, name: str, phases: Iterable[str]) -> list:
        """Summed ``[calls, seconds, work]`` of one tally over phases."""
        total = [0, 0.0, 0]
        for phase in phases:
            slot = self.tallies.get((name, phase))
            if slot is not None:
                total = [a + b for a, b in zip(total, slot)]
        return total

    def top_level_seconds(self, phase: str) -> float:
        """Summed duration of the parentless spans of one phase."""
        return sum(
            s[5] - s[4] for s in self.spans if s[6] == phase and s[2] < 0
        )

    def dump(self, path: str) -> None:
        """Write every span and tally as one columnar JSON document."""
        names = sorted({s[1] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = min((s[4] for s in self.spans), default=0.0)
        doc = {
            "fields": ["id", "name", "parent", "thread", "start_s",
                       "end_s", "phase", "work"],
            "names": names,
            "spans": [
                [s[0], index[s[1]], s[2], s[3], s[4] - t0, s[5] - t0,
                 s[6], s[7]]
                for s in self.spans
            ],
            "tallies": [
                {"name": name, "phase": phase, "calls": v[0],
                 "seconds": v[1], "work": v[2]}
                for (name, phase), v in sorted(self.tallies.items())
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

