"""repro.obs — observability: metrics, tracing and exporters.

A process-wide :class:`MetricsRegistry` every subsystem publishes into,
per-request span traces with a bounded collector, and Prometheus/JSONL
exporters.  Alerts belong on the exported series, outside the process.
"""

from repro.obs.metrics import (
    DEFAULT_CAPACITY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Reservoir,
    default_registry,
    next_instance_id,
    set_default_registry,
)
from repro.obs.tracing import (
    CHAIN,
    RequestTrace,
    Span,
    SpanCollector,
    new_trace_id,
)
from repro.obs.exporters import (
    read_jsonl,
    render_prometheus,
    write_metrics_jsonl,
    write_prometheus,
    write_snapshot,
)

__all__ = [
    "DEFAULT_CAPACITY", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "Reservoir", "default_registry", "next_instance_id",
    "set_default_registry",
    "CHAIN", "RequestTrace", "Span", "SpanCollector", "new_trace_id",
    "read_jsonl", "render_prometheus", "write_metrics_jsonl",
    "write_prometheus", "write_snapshot",
]
