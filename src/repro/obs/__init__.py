"""Unified telemetry: metrics registry, tracing, accuracy probes.

See ``OBSERVABILITY.md`` in this package for naming conventions, the
measured overhead budget, and the wiring guide.  The short version::

    from repro import obs

    obs.enable()                      # before building the stack
    registry = obs.get_registry()
    frontend = ServingFrontend(...)   # components pick up the registry
    ...
    print(obs.expose(registry.snapshot()))      # Prometheus text
    registry.report_timeline(sys.stdout)        # JSONL timeline record

The process-global registry starts *disabled*: every instrumented
component then holds shared null metrics and the hot paths pay one
branch per record.  Set ``REPRO_OBS=1`` in the environment (or call
:func:`enable`) before constructing components to turn telemetry on --
components capture their metric objects at init, so enabling later
only affects newly built components.
"""

from __future__ import annotations

import os
import threading

from repro.obs.accuracy import AccuracyProbe
from repro.obs.export import expose
from repro.obs.metrics import (
    Counter,
    CounterSet,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)
from repro.obs.trace import NULL_SPAN, Span, TraceRing

__all__ = [
    "AccuracyProbe",
    "Counter",
    "CounterSet",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_SPAN",
    "Span",
    "TraceRing",
    "enable",
    "expose",
    "get_registry",
    "set_registry",
]

_LOCK = threading.Lock()
_GLOBAL: MetricsRegistry = MetricsRegistry(
    enabled=os.environ.get("REPRO_OBS", "") not in ("", "0")
)


def get_registry() -> MetricsRegistry:
    """The process-global registry (disabled unless opted in)."""
    return _GLOBAL


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one.

    Components built *before* the swap keep the metrics they captured
    from the old registry -- swap first, construct after.
    """
    global _GLOBAL
    with _LOCK:
        previous = _GLOBAL
        _GLOBAL = registry
    return previous


def enable(trace_capacity: int = 1024) -> MetricsRegistry:
    """Install an enabled global registry (idempotent) and return it.

    A fresh registry is installed only when the current one is
    disabled, so calling twice keeps accumulated metrics.
    """
    with _LOCK:
        global _GLOBAL
        if not _GLOBAL.enabled:
            _GLOBAL = MetricsRegistry(
                enabled=True, trace_capacity=trace_capacity
            )
        return _GLOBAL
