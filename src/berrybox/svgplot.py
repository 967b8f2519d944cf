"""Minimal self-contained SVG line plots (no rendering stack required), on
the standard library."""

from __future__ import annotations

import math

__all__ = ["line_plot"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf"]
_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 40, 56


def _ticks(lo, hi, log):
    if log:
        return [10.0 ** d for d in range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1)]
    step = (hi - lo) / 4.0  # np.linspace(lo, hi, 5), bit for bit
    return [lo + i * step for i in range(4)] + [hi]


def _fmt(v):
    return f"{v:.3g}"


def line_plot(series, title="", xlabel="", ylabel="", path=None, logx=False, logy=False):
    """Render polyline series into a standalone SVG document.

    `series` is a list of dicts with keys x, y, label and optional dashed;
    returns the SVG text and writes it to `path` when given.
    """
    xs = [float(v) for s in series for v in s["x"]]
    ys = [float(v) for s in series for v in s["y"]]
    if logx and min(xs) <= 0:
        raise ValueError("log x axis requires positive abscissae")
    if logy:
        ys = [v for v in ys if v > 0]
        if not ys:
            raise ValueError("log y axis requires positive values")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    if not logy:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    fx, fy = (math.log10 if logx else float), (math.log10 if logy else float)

    def to_px(xv, yv):
        px = _MARGIN_L + (fx(xv) - fx(x_lo)) / (fx(x_hi) - fx(x_lo)) * plot_w
        py = _MARGIN_T + (fy(y_hi) - fy(yv)) / (fy(y_hi) - fy(y_lo)) * plot_h
        return px, py

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        out.append(f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="15">{title}</text>')

    for tv in _ticks(x_lo, x_hi, logx):
        px, _ = to_px(tv, y_hi)
        py = _MARGIN_T + plot_h
        out.append(f'<line x1="{px:.2f}" y1="{py}" x2="{px:.2f}" y2="{py + 5}" stroke="#333"/>')
        out.append(f'<text x="{px:.2f}" y="{py + 18}" text-anchor="middle" font-size="11">{_fmt(tv)}</text>')
    for tv in _ticks(y_lo, y_hi, logy):
        _, py = to_px(x_lo, tv)
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" x2="{_MARGIN_L}" y2="{py:.2f}" stroke="#333"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end" font-size="11">{_fmt(tv)}</text>')
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle" font-size="12">{xlabel}</text>'
        )
    if ylabel:
        cx, cy = 18, _MARGIN_T + plot_h / 2
        out.append(
            f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 {cx} {cy:.1f})">{ylabel}</text>'
        )

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        dash = ' stroke-dasharray="6 4"' if s.get("dashed") else ""
        kept = [(float(a), float(b)) for a, b in zip(s["x"], s["y"]) if (a > 0 or not logx) and (b > 0 or not logy)]
        pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in (to_px(a, b) for a, b in kept))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"{dash}/>')
        lx, ly = _MARGIN_L + plot_w - 150, _MARGIN_T + 16 + 16 * i
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="1.6"{dash}/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-size="11">{s.get("label", "")}</text>')

    out.append("</svg>")
    text = "\n".join(out) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text
