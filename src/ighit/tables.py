"""Deterministic CSV / JSON / SVG writers.

Output bytes depend only on the data: 17-significant-digit floats (round-trip
exact), '.' radix, LF line endings, sorted JSON keys, atomic replace into
place.
"""

from __future__ import annotations

import json
import os
import tempfile


def format_float(x) -> str:
    return f"{float(x):.17g}"


def format_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, str):
        return x
    return format_float(x)


def _atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(cell) for cell in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_json(path, obj) -> None:
    _atomic_write_text(path, json_dumps(obj))


def write_svg_lines(path, series, title: str = "") -> None:
    """Static line plot, 640 x 360: series is a list of (label, xs, ys, mode)
    with mode 'line' (polyline) or 'steps' (post-step staircase)."""
    width, height, pad = 640, 360, 40.0
    xs_all = [float(v) for _, xs, _, _ in series for v in xs]
    ys_all = [float(v) for _, _, ys, _ in series for v in ys]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    x_span = (x1 - x0) or 1.0
    y_span = (y1 - y0) or 1.0

    def sx(x):
        return pad + (float(x) - x0) / x_span * (width - 2 * pad)

    def sy(y):
        return height - pad - (float(y) - y0) / y_span * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>',
    ]
    for i, (label, xs, ys, mode) in enumerate(series):
        pts = []
        if mode == "steps":
            for j in range(len(xs)):
                pts.append(f"{sx(xs[j]):.2f},{sy(ys[j]):.2f}")
                if j + 1 < len(xs):
                    pts.append(f"{sx(xs[j + 1]):.2f},{sy(ys[j]):.2f}")
        else:
            pts = [f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)]
        color = colors[i % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
                     f'points="{" ".join(pts)}"/>')
        parts.append(f'<text x="{width - pad:.1f}" y="{20 + 14 * (i + 1)}" '
                     f'text-anchor="end" font-family="monospace" font-size="11" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    _atomic_write_text(path, "\n".join(parts) + "\n")
