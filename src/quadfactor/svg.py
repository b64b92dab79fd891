"""Minimal self-contained SVG line charts with a reference line, no dependencies."""

from typing import Sequence, Tuple

from .errors import PreconditionViolatedError

WIDTH, HEIGHT = 720, 440
MARGIN = 56


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render_svg(series: Sequence[Tuple[float, float]], reference: float,
               title: str, ylabel: str) -> str:
    """Titled line chart of (x, y) points with a dashed reference line at y = reference."""
    if not series:
        raise PreconditionViolatedError("series must be nonempty")
    xs = [p[0] for p in series]
    ys = [p[1] for p in series] + [reference]
    ymin, ymax = min(ys), max(ys)
    xmin, xmax = min(xs), max(xs)
    if xmax == xmin:
        xmax = xmin + 1.0
    pad = (ymax - ymin) * 0.1 or abs(ymax) * 0.1 or 0.1
    ymin -= pad
    ymax += pad
    iw = WIDTH - 2 * MARGIN
    ih = HEIGHT - 2 * MARGIN

    def sx(x):
        return MARGIN + (x - xmin) / (xmax - xmin) * iw

    def sy(y):
        return HEIGHT - MARGIN - (y - ymin) / (ymax - ymin) * ih

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in series)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{iw}" height="{ih}" '
        'fill="none" stroke="#ccc"/>',
    ]
    parts.append(f'<text x="{WIDTH / 2:.0f}" y="28" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="15">{title}</text>')
    # axis extremes
    parts.append(f'<text x="{MARGIN}" y="{HEIGHT - MARGIN + 18}" font-family="sans-serif" '
                 f'font-size="11">{_fmt(xmin)}</text>')
    parts.append(f'<text x="{WIDTH - MARGIN}" y="{HEIGHT - MARGIN + 18}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11">{_fmt(xmax)}</text>')
    parts.append(f'<text x="{MARGIN - 6}" y="{sy(ymin):.2f}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11">{_fmt(ymin)}</text>')
    parts.append(f'<text x="{MARGIN - 6}" y="{sy(ymax):.2f}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11">{_fmt(ymax)}</text>')
    parts.append(f'<text x="14" y="{HEIGHT / 2:.0f}" font-family="sans-serif" '
                 f'font-size="12" transform="rotate(-90 14 {HEIGHT / 2:.0f})" '
                 f'text-anchor="middle">{ylabel}</text>')
    ry = sy(reference)
    parts.append(f'<line x1="{MARGIN}" y1="{ry:.2f}" x2="{WIDTH - MARGIN}" y2="{ry:.2f}" '
                 'stroke="#c33" stroke-dasharray="6 4"/>')
    parts.append(f'<text x="{WIDTH - MARGIN - 4}" y="{ry - 5:.2f}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="11" fill="#c33">{reference:.6f}</text>')
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#26c" stroke-width="1.5"/>')
    for x, y in series:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="#26c"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

