"""CSV and SVG emission for experiment results.

Output is deterministic and locale-independent: fixed column order, dot
decimal separator via format(), '\n' line endings, no timestamps. Charts
are self-contained static SVG so the package needs no plotting dependency.
"""

import math
from pathlib import Path

import numpy as np

__all__ = [
    "ROUND_CSV_HEADER",
    "write_repeat_csv",
    "write_mean_csv",
    "write_series_csv",
    "svg_line_chart",
]

# each per-round CSV column between `round` and `selected`, and the result column it holds
_ROUND_COLUMNS = (("duration_s", "duration"), ("uav_energy_j", "uav_energy"),
                  ("cum_uav_energy_j", "cum_uav_energy"), ("test_loss", "test_loss"),
                  ("test_acc", "test_acc"))
ROUND_CSV_HEADER = ",".join(["round", *(column for column, _ in _ROUND_COLUMNS), "selected"])

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]
_WIDTH, _HEIGHT = 640, 420  # chart size in pixels


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def write_repeat_csv(path, metrics) -> None:
    """One row per completed round of a single repeat (its record array of
    per-round columns), written as it goes."""
    top = max((int(cohort.max()) for cohort in metrics.selected), default=-1)
    ids = np.array([str(u) for u in range(top + 1)], dtype=object)  # built once per file
    columns = [metrics[name].tolist() for _, name in _ROUND_COLUMNS]
    with Path(path).open("w") as f:
        f.write(ROUND_CSV_HEADER + "\n")
        for rnd, (*values, selected) in enumerate(zip(*columns, metrics.selected), 1):
            f.write(",".join([str(rnd), *map(_fmt, values),
                              ";".join(ids[selected].tolist())]) + "\n")


def write_mean_csv(path, result) -> None:
    """Per-round means across repeats, over the rounds all repeats reached."""
    write_series_csv(path, "round", range(1, result.common_rounds + 1),
                     [(column, result.mean(name)) for column, name in _ROUND_COLUMNS])


def write_series_csv(path, x_name: str, xs, columns) -> None:
    """Generic table: one x column plus one column per named series."""
    names = [name for name, _ in columns]
    lines = [",".join([x_name] + names)]
    for i, x in enumerate(xs):
        lines.append(",".join([_fmt(x)] + [_fmt(values[i]) for _, values in columns]))
    Path(path).write_text("\n".join(lines) + "\n")


def _span(lo: float, hi: float):
    """The axis range of finite values from lo to hi. A single value gets one
    unit above it, or one ulp where a unit vanishes next to it, below it
    where that ulp would overflow."""
    if hi > lo:
        return lo, hi
    step = max(1.0, math.ulp(lo))
    return (lo, lo + step) if lo + step < math.inf else (lo - step, lo)


def _ticks(lo: float, hi: float, n: int = 5):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def svg_line_chart(path, series, title: str, xlabel: str, ylabel: str) -> None:
    """Write a static line chart.

    `series` is a list of (label, xs, ys) triples. Output bytes depend only
    on the inputs.
    """
    margin_l, margin_r, margin_t, margin_b = 70, 20, 40, 50
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b

    finite = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)
              if math.isfinite(x) and math.isfinite(y)]
    if finite:
        x_lo, x_hi = _span(min(x for x, _ in finite), max(x for x, _ in finite))
        y_lo, y_hi = _span(min(y for _, y in finite), max(y for _, y in finite))
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0

    def px(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
             f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
             f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
             f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
             f'font-size="15" font-family="sans-serif">{title}</text>']

    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{margin_t}" x2="{x:.2f}" '
                     f'y2="{margin_t + plot_h}" stroke="#eeeeee"/>')
        parts.append(f'<text x="{x:.2f}" y="{margin_t + plot_h + 18}" '
                     f'text-anchor="middle" font-size="11" '
                     f'font-family="sans-serif">{format(t, ".4g")}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{margin_l}" y1="{y:.2f}" '
                     f'x2="{margin_l + plot_w}" y2="{y:.2f}" stroke="#eeeeee"/>')
        parts.append(f'<text x="{margin_l - 8}" y="{y + 4:.2f}" '
                     f'text-anchor="end" font-size="11" '
                     f'font-family="sans-serif">{format(t, ".4g")}</text>')

    parts.append(f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="#333333"/>')
    parts.append(f'<text x="{margin_l + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
                 f'text-anchor="middle" font-size="12" '
                 f'font-family="sans-serif">{xlabel}</text>')
    parts.append(f'<text x="18" y="{margin_t + plot_h / 2:.1f}" '
                 f'text-anchor="middle" font-size="12" font-family="sans-serif" '
                 f'transform="rotate(-90 18 {margin_t + plot_h / 2:.1f})">{ylabel}</text>')

    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys)
                          if math.isfinite(x) and math.isfinite(y))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        ly = margin_t + 16 + 16 * i
        lx = margin_l + plot_w - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}" font-size="11" '
                     f'font-family="sans-serif">{label}</text>')

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
