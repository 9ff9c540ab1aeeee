"""ASCII table and chart rendering for benchmark harness output.

Every bench regenerates a paper table or figure as text; these helpers
keep the formatting consistent: fixed-width tables with a title row, and
horizontal bar charts for figure-shaped results.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

Cell = Union[str, int, float]


def format_cell(value: Cell, width: int) -> str:
    """Format one cell right-aligned for numbers, left-aligned for text."""
    if isinstance(value, float):
        text = f"{value:.4g}"
        return text.rjust(width)
    if isinstance(value, int):
        return str(value).rjust(width)
    return str(value).ljust(width)


def render_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[Cell]],
                 min_width: int = 6) -> str:
    """Render a titled fixed-width ASCII table."""
    rows = [list(r) for r in rows]
    n_cols = len(headers)
    for row in rows:
        if len(row) != n_cols:
            raise ValueError(
                f"row has {len(row)} cells, header has {n_cols}"
            )
    widths = []
    for col in range(n_cols):
        cells = [headers[col]] + [
            f"{row[col]:.4g}" if isinstance(row[col], float) else str(row[col])
            for row in rows
        ]
        widths.append(max(min_width, max(len(c) for c in cells)))

    sep = "+".join("-" * (w + 2) for w in widths)
    sep = f"+{sep}+"
    lines = [title, sep]
    header_line = "|".join(
        f" {headers[i].ljust(widths[i])} " for i in range(n_cols)
    )
    lines.append(f"|{header_line}|")
    lines.append(sep)
    for row in rows:
        line = "|".join(
            f" {format_cell(row[i], widths[i])} " for i in range(n_cols)
        )
        lines.append(f"|{line}|")
    lines.append(sep)
    return "\n".join(lines)


def render_bar_chart(title: str, labels: Sequence[str],
                     values: Sequence[float], width: int = 50,
                     unit: str = "") -> str:
    """Render a horizontal ASCII bar chart (figure-shaped output)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    if not values:
        return f"{title}\n(no data)"
    max_value = max(max(values), 1e-12)
    label_width = max(len(l) for l in labels)
    lines = [title]
    for label, value in zip(labels, values):
        bar_len = int(round(width * value / max_value))
        bar = "#" * bar_len
        lines.append(
            f"  {label.ljust(label_width)} |{bar.ljust(width)}| "
            f"{value:.4g}{unit}"
        )
    return "\n".join(lines)


def render_histogram(title: str, bin_edges: Sequence[float],
                     counts: Sequence[int], width: int = 50,
                     fmt: str = "{:.3f}") -> str:
    """Render a histogram as an ASCII bar chart with range labels."""
    if len(counts) != len(bin_edges) - 1:
        raise ValueError("counts must have len(bin_edges) - 1 entries")
    labels = [
        f"[{fmt.format(bin_edges[i])}, {fmt.format(bin_edges[i + 1])})"
        for i in range(len(counts))
    ]
    return render_bar_chart(title, labels, [float(c) for c in counts],
                            width=width)


def render_series(title: str, x_label: str, y_label: str,
                  points: Sequence[tuple], fmt_x: str = "{:.4g}",
                  fmt_y: str = "{:.4g}") -> str:
    """Render an (x, y) series as a two-column listing (figure data)."""
    lines = [title, f"  {x_label:>16}  {y_label}"]
    for x, y in points:
        lines.append(f"  {fmt_x.format(x):>16}  {fmt_y.format(y)}")
    return "\n".join(lines)
