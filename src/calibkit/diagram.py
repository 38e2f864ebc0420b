"""Minimal deterministic SVG reliability diagrams: frequency bars over the
bin intervals, a perfect-calibration diagonal, bar opacity scaled by sample
density. No plotting dependency, byte-stable output for identical input.
"""

from __future__ import annotations

from .metrics import Table

_W, _H = 480, 400
_ML, _MR, _MT, _MB = 56, 16, 28, 44
_PW, _PH = _W - _ML - _MR, _H - _MT - _MB


def _fx(v: float) -> float:
    return _ML + v * _PW


def _fy(v: float) -> float:
    return _MT + (1.0 - v) * _PH


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def reliability_svg(bins: Table, k: int) -> str:
    """Render one top-confidence reliability table, the (M,) arrays
    ``(counts, mean_conf, freq)``, as an SVG string labelled with its row
    count, the sum of ``counts``.

    Bins lying entirely below 1/k are omitted from the drawing (the top
    class can never score below 1/k), though they remain in the report data.
    """
    counts, freq = bins[0].tolist(), bins[2].tolist()
    M = len(counts)
    # Bin m covers ((m-1)/M, m/M]; its edges are computed as the report's are.
    drawable = [m for m in range(1, M + 1) if m / M > 1.0 / k + 1e-12]
    max_count = max((counts[m - 1] for m in drawable), default=0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
    ]
    # Axes and ticks.
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_PW}" height="{_PH}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for i in range(11):
        v = i / 10.0
        x, y = _fx(v), _fy(v)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_H - _MB}" x2="{_fmt(x)}" y2="{_H - _MB + 4}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{v:.1f}</text>'
        )
        parts.append(
            f'<line x1="{_ML - 4}" y1="{_fmt(y)}" x2="{_ML}" y2="{_fmt(y)}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{_fmt(y + 3)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{v:.1f}</text>'
        )
    # Frequency bars, opacity proportional to within-plot sample density.
    for m in drawable:
        count = counts[m - 1]
        if count == 0:
            continue
        opacity = count / max_count if max_count else 0.0
        x0, x1 = _fx((m - 1) / M), _fx(m / M)
        y0, y1 = _fy(freq[m - 1]), _fy(0.0)
        parts.append(
            f'<rect x="{_fmt(x0 + 1)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0 - 2)}" '
            f'height="{_fmt(y1 - y0)}" fill="#e8a33d" '
            f'fill-opacity="{opacity:.4f}" stroke="#b07512" stroke-width="0.8"/>'
        )
    # Perfect-calibration diagonal.
    parts.append(
        f'<line x1="{_fmt(_fx(0.0))}" y1="{_fmt(_fy(0.0))}" '
        f'x2="{_fmt(_fx(1.0))}" y2="{_fmt(_fy(1.0))}" '
        f'stroke="#555" stroke-width="1.2" stroke-dasharray="5,4"/>'
    )
    parts.append(
        f'<text x="{_fmt(_ML + _PW / 2)}" y="{_H - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">predicted probability</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt(_MT + _PH / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 14 {_fmt(_MT + _PH / 2)})">empirical frequency</text>'
    )
    parts.append(
        f'<text x="{_fmt(_W - _MR)}" y="{_H - 8}" text-anchor="end" '
        f'font-family="sans-serif" font-size="9" fill="#777">n={sum(counts)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
