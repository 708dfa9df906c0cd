"""ASCII plotting for terminal-friendly experiment output.

The examples render cwnd timelines (the classic TCP sawtooth) and density
heat-maps without any plotting dependency.  Deliberately small: a line
chart, a multi-series chart, and a heatmap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from ..errors import ConfigurationError
from .timeseries import TimeSeries

if TYPE_CHECKING:  # numpy loads only when a caller asks for an array
    import numpy as np

SHADES = " .:-=+*#%@"


def line_plot(
    series: TimeSeries,
    width: int = 72,
    height: int = 16,
    title: Optional[str] = None,
) -> str:
    """Render one time series as an ASCII line chart."""
    return multi_line_plot([series], width=width, height=height, title=title)


def multi_line_plot(
    series_list: Sequence[TimeSeries],
    width: int = 72,
    height: int = 16,
    title: Optional[str] = None,
    markers: str = "*o+x#@",
) -> str:
    """Render several series on shared axes, one marker per series."""
    if not series_list or all(len(s) == 0 for s in series_list):
        raise ConfigurationError("nothing to plot")
    if width < 8 or height < 4:
        raise ConfigurationError("plot area too small")
    t_min = min(s.times[0] for s in series_list if len(s))
    t_max = max(s.times[-1] for s in series_list if len(s))
    v_min = min(min(s.values) for s in series_list if len(s))
    v_max = max(max(s.values) for s in series_list if len(s))
    if t_max <= t_min:
        t_max = t_min + 1.0
    if v_max <= v_min:
        v_max = v_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, series in enumerate(series_list):
        marker = markers[index % len(markers)]
        for t, v in zip(series.times, series.values):
            col = int((t - t_min) / (t_max - t_min) * (width - 1))
            row = int((v - v_min) / (v_max - v_min) * (height - 1))
            grid[height - 1 - row][col] = marker

    lines = []
    if title:
        lines.append(title)
    label_width = max(len(f"{v_max:.1f}"), len(f"{v_min:.1f}"))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = f"{v_max:.1f}".rjust(label_width)
        elif row_index == height - 1:
            label = f"{v_min:.1f}".rjust(label_width)
        else:
            label = " " * label_width
        lines.append(f"{label} |{''.join(row)}")
    lines.append(" " * label_width + " +" + "-" * width)
    lines.append(" " * label_width + f"  t={t_min:.1f}s"
                 + f"t={t_max:.1f}s".rjust(width - len(f"t={t_min:.1f}s")))
    if len(series_list) > 1:
        legend = "   ".join(f"{markers[i % len(markers)]} {s.name}"
                            for i, s in enumerate(series_list))
        lines.append(" " * label_width + "  " + legend)
    return "\n".join(lines)


def heatmap(
    grid: "np.ndarray",
    bucket: int = 1,
    title: Optional[str] = None,
    axis_label: str = "",
) -> str:
    """Render a 2-D occupancy array (e.g. figure 5's density) as ASCII."""
    import numpy as np

    if grid.ndim != 2:
        raise ConfigurationError(f"heatmap needs a 2-D array, got {grid.ndim}-D")
    if bucket < 1:
        raise ConfigurationError(f"bucket must be >= 1: {bucket}")
    rows = grid.shape[0] // bucket
    cols = grid.shape[1] // bucket
    if rows == 0 or cols == 0:
        raise ConfigurationError("grid smaller than one bucket")
    coarse = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            coarse[i, j] = grid[i * bucket:(i + 1) * bucket,
                                j * bucket:(j + 1) * bucket].sum()
    peak = coarse.max() or 1.0
    lines = []
    if title:
        lines.append(title)
    for j in range(cols - 1, -1, -1):
        row = "".join(
            SHADES[min(int(len(SHADES) * coarse[i, j] / peak),
                       len(SHADES) - 1)]
            for i in range(rows)
        )
        lines.append(f"{j * bucket:4d} |{row}")
    lines.append("     +" + "-" * rows)
    if axis_label:
        lines.append("      " + axis_label)
    return "\n".join(lines)
