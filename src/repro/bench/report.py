"""ASCII rendering of tables, histograms and heatmap summaries.

The paper's figures are plots; benchmarks in this repository print the
same information as text so it lands in ``bench_output.txt`` and can be
diffed across runs.
"""

from __future__ import annotations

import numpy as np


def format_table(rows: list, title: str = "") -> str:
    """Render a list of dicts (same keys) as an aligned ASCII table."""
    if not rows:
        raise ValueError("no rows")
    headers = list(rows[0].keys())
    for row in rows:
        if list(row.keys()) != headers:
            raise ValueError("all rows must share the same keys in order")
    cells = [[str(row[h]) for h in headers] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for r in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def cache_effectiveness_table(stats: dict, title: str = "prediction cache") -> str:
    """Render engine serving statistics next to the speedup tables.

    ``stats`` is what :meth:`repro.engine.service.GemmService.stats`
    (or :attr:`repro.core.library.AdsalaGemm.cache_stats`) returns, with
    ``unique_shapes`` when the caller counts its input (``repro batch``).
    """
    wanted = ("requests", "unique_shapes", "evaluations", "memo_hit_rate",
              "cache_hits", "cache_misses", "cache_evictions", "cache_size",
              "cache_maxsize")
    row = {key: stats[key] for key in wanted if key in stats}
    if not row:
        raise ValueError("stats has no cache fields to report")
    return format_table([row], title=title)


def latency_table(summaries, title: str = "latency") -> str:
    """Render one or more latency summaries as an aligned table.

    ``summaries`` maps a series label to a
    :class:`~repro.bench.stats.LatencySummary` (values in seconds;
    printed in milliseconds).  Serve telemetry and the serve benchmark
    both report through this, so their p50/p95/p99 columns line up.
    """
    if not summaries:
        raise ValueError("no summaries")
    rows = [summary.as_row(label=label) for label, summary in summaries.items()]
    return format_table(rows, title=title)


def batch_size_table(histogram: dict, title: str = "batch sizes") -> str:
    """Render a batch-size histogram (``{size: count}``) as a table."""
    if not histogram:
        raise ValueError("empty histogram")
    total = sum(histogram.values())
    rows = [{"batch_size": size, "batches": count,
             "share": f"{count / total:.1%}"}
            for size, count in sorted(histogram.items())]
    return format_table(rows, title=title)


def ascii_histogram(values, bins=10, width: int = 40, title: str = "") -> str:
    """Text histogram (stands in for the paper's Figs. 1/8)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("no values")
    counts, edges = np.histogram(values, bins=bins)
    peak = counts.max() if counts.max() > 0 else 1
    lines = [title] if title else []
    for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(width * c / peak))
        lines.append(f"[{lo:8.1f}, {hi:8.1f}) {c:5d} {bar}")
    return "\n".join(lines)


def sparkline(values, width: int = None) -> str:
    """Render a numeric series as a unicode sparkline.

    Used by the sweep benchmarks (Figs. 13/14) so the GFLOPS-vs-size
    shape is visible directly in the text results.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("no values")
    blocks = "▁▂▃▄▅▆▇█"
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return blocks[0] * values.size
    scaled = (values - lo) / (hi - lo) * (len(blocks) - 1)
    return "".join(blocks[int(round(s))] for s in scaled)


def heatmap_summary(x, y, values, x_bins=5, y_bins=5,
                    x_label: str = "x", y_label: str = "y",
                    value_label: str = "value") -> str:
    """Coarse 2-D binned means as text (stands in for Figs. 9/10).

    Bins on a square-root scale like the paper's axes, prints the mean
    of ``values`` per cell ("." for empty cells).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if not (x.shape == y.shape == values.shape):
        raise ValueError("x, y, values must be aligned")
    sx, sy = np.sqrt(x), np.sqrt(y)
    x_edges = np.linspace(sx.min(), sx.max() + 1e-9, x_bins + 1)
    y_edges = np.linspace(sy.min(), sy.max() + 1e-9, y_bins + 1)
    grid = np.full((y_bins, x_bins), np.nan)
    for i in range(y_bins):
        for j in range(x_bins):
            mask = ((sx >= x_edges[j]) & (sx < x_edges[j + 1])
                    & (sy >= y_edges[i]) & (sy < y_edges[i + 1]))
            if mask.any():
                grid[i, j] = values[mask].mean()
    lines = [f"{value_label} by ({x_label}, {y_label}) [sqrt-scale bins]"]
    col_labels = [f"{(e ** 2):8.0f}" for e in x_edges[1:]]
    lines.append(" " * 10 + " ".join(col_labels))
    for i in range(y_bins - 1, -1, -1):
        row = []
        for j in range(x_bins):
            v = grid[i, j]
            row.append("       ." if np.isnan(v) else f"{v:8.2f}")
        lines.append(f"{y_edges[i + 1] ** 2:9.0f} " + " ".join(row))
    return "\n".join(lines)
