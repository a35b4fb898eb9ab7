"""repro.obs — per-op tracing, metrics, exporters, breakdown reports.

Quick start::

    from repro.obs import install_tracer
    tracer = install_tracer(cluster)
    ... run workload ...
    from repro.obs import to_jsonl, aggregate_breakdown, format_breakdown
    print(to_jsonl(tracer))
    bd, n = aggregate_breakdown(tracer, "op.lt_write")
    print(format_breakdown(bd, n))

Tracing is recorded in *simulated* time and never schedules events, so
traced and untraced runs have identical simulated timings; with the
tracer uninstalled (the default) every hook is a single ``None`` check.
"""

from .metrics import Histogram, HistogramSnapshot, MetricsRegistry
from .trace import (
    Span,
    Tracer,
    install_tracer,
    traced_op,
    uninstall_tracer,
)
from .export import (
    ReplayTrace,
    load_jsonl,
    span_record,
    spans_from_records,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .report import (
    CATEGORY_OF,
    aggregate_breakdown,
    categorize,
    format_breakdown,
    op_breakdown,
)

__all__ = [
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "install_tracer",
    "uninstall_tracer",
    "traced_op",
    "span_record",
    "to_jsonl",
    "write_jsonl",
    "load_jsonl",
    "spans_from_records",
    "ReplayTrace",
    "to_chrome_trace",
    "write_chrome_trace",
    "CATEGORY_OF",
    "categorize",
    "op_breakdown",
    "aggregate_breakdown",
    "format_breakdown",
]
