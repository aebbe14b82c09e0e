"""Minimal, dependency-free SVG output for curves and box plots.

CSV is the canonical output everywhere; these figures are a convenience
behind the CLI's --svg flag. Coordinates are rounded to a fixed precision so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .numerics import linear_quantiles

WIDTH, HEIGHT = 720, 440
MARGIN = 60


def _scale(values, lo, hi, out_lo, out_hi):
    if hi <= lo:
        hi = lo + 1.0
    return out_lo + (np.asarray(values, dtype=float) - lo) * (out_hi - out_lo) / (hi - lo)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _axes(title: str, x_label: str, y_label: str, xlo, xhi, ylo, yhi) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 16}" text-anchor="middle" '
        f'font-size="12">{x_label}</text>',
        f'<text x="18" y="{HEIGHT / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {HEIGHT / 2:.0f})">{y_label}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = xlo + frac * (xhi - xlo)
        yv = ylo + frac * (yhi - ylo)
        xp = MARGIN + frac * (WIDTH - 2 * MARGIN)
        yp = HEIGHT - MARGIN - frac * (HEIGHT - 2 * MARGIN)
        parts.append(
            f'<text x="{xp:.0f}" y="{HEIGHT - MARGIN + 18}" text-anchor="middle" '
            f'font-size="10">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{MARGIN - 6}" y="{yp:.0f}" text-anchor="end" '
            f'font-size="10">{yv:.3g}</text>'
        )
    return parts


def effect_curve_svg(rs, betas, los, his, path, title="Local effect curve") -> None:
    """Effect estimate across risk values with its confidence band."""
    rs = np.asarray(rs, dtype=float)
    betas = np.asarray(betas, dtype=float)
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    xlo, xhi = float(rs.min()), float(rs.max())
    ylo, yhi = float(los.min()), float(his.max())
    pad = 0.05 * (yhi - ylo + 1e-12)
    ylo, yhi = ylo - pad, yhi + pad
    xs = _scale(rs, xlo, xhi, MARGIN, WIDTH - MARGIN)
    y_beta = _scale(betas, ylo, yhi, HEIGHT - MARGIN, MARGIN)
    y_lo = _scale(los, ylo, yhi, HEIGHT - MARGIN, MARGIN)
    y_hi = _scale(his, ylo, yhi, HEIGHT - MARGIN, MARGIN)
    parts = _axes(title, "shifted risk", "effect", xlo, xhi, ylo, yhi)
    band = (
        " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, y_hi))
        + " "
        + " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs[::-1], y_lo[::-1]))
    )
    parts.append(f'<polygon points="{band}" fill="#9ecae1" fill-opacity="0.5"/>')
    line = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, y_beta))
    parts.append(f'<polyline points="{line}" fill="none" stroke="#08519c" stroke-width="2"/>')
    if xlo <= 0.0 <= xhi:
        x0 = float(_scale([0.0], xlo, xhi, MARGIN, WIDTH - MARGIN)[0])
        parts.append(
            f'<line x1="{_fmt(x0)}" y1="{MARGIN}" x2="{_fmt(x0)}" '
            f'y2="{HEIGHT - MARGIN}" stroke="gray" stroke-dasharray="4 3"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def box_plot_svg(groups: dict, path, title="Estimation error by method") -> None:
    """One box per named group of values (median, quartiles, 1.5 IQR whiskers)."""
    names = list(groups)
    all_vals = np.concatenate([np.asarray(groups[n], dtype=float) for n in names])
    ylo, yhi = float(all_vals.min()), float(all_vals.max())
    pad = 0.05 * (yhi - ylo + 1e-12)
    ylo, yhi = ylo - pad, yhi + pad
    parts = _axes(title, "method", "error", 0, len(names), ylo, yhi)
    span = (WIDTH - 2 * MARGIN) / max(len(names), 1)
    for i, name in enumerate(names):
        vals = np.asarray(groups[name], dtype=float)
        q1, med, q3 = linear_quantiles(vals, (0.25, 0.5, 0.75)).tolist()
        iqr = q3 - q1
        w_lo = float(vals[vals >= q1 - 1.5 * iqr].min())
        w_hi = float(vals[vals <= q3 + 1.5 * iqr].max())
        cx = MARGIN + (i + 0.5) * span
        half = 0.3 * span

        def y(v):
            return float(_scale([v], ylo, yhi, HEIGHT - MARGIN, MARGIN)[0])

        parts.append(
            f'<line x1="{_fmt(cx)}" y1="{_fmt(y(w_lo))}" x2="{_fmt(cx)}" '
            f'y2="{_fmt(y(w_hi))}" stroke="black"/>'
        )
        parts.append(
            f'<rect x="{_fmt(cx - half)}" y="{_fmt(y(q3))}" width="{_fmt(2 * half)}" '
            f'height="{_fmt(abs(y(q1) - y(q3)))}" fill="#c6dbef" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{_fmt(cx - half)}" y1="{_fmt(y(med))}" x2="{_fmt(cx + half)}" '
            f'y2="{_fmt(y(med))}" stroke="black" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(cx)}" y="{HEIGHT - MARGIN + 32}" text-anchor="middle" '
            f'font-size="10">{name}</text>'
        )
    if ylo <= 0.0 <= yhi:
        y0 = float(_scale([0.0], ylo, yhi, HEIGHT - MARGIN, MARGIN)[0])
        parts.append(
            f'<line x1="{MARGIN}" y1="{_fmt(y0)}" x2="{WIDTH - MARGIN}" '
            f'y2="{_fmt(y0)}" stroke="gray" stroke-dasharray="4 3"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
