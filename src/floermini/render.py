"""Deterministic SVG rendering of diagrams and level curves.

Byte-identical output for identical input is part of the contract: all
floats are formatted with a fixed precision and every element is emitted
in a fixed order.
"""

from __future__ import annotations

WIDTH, HEIGHT = 800, 560
MARGIN = 60
PALETTE = ["#1f6fb2", "#c23b22", "#2e8540", "#8151b5", "#b2901f", "#1fb2a6"]


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _bounds(xs, ys):
    if not xs:
        return 0.0, 1.0, -1.0, 1.0
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.05 * (y1 - y0)
    return x0, x1, y0 - pad, y1 + pad


class _Canvas:
    def __init__(self, x0, x1, y0, y1):
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]

    def px(self, x):
        return MARGIN + (x - self.x0) / (self.x1 - self.x0) * (WIDTH - 2 * MARGIN)

    def py(self, y):
        return HEIGHT - MARGIN - (y - self.y0) / (self.y1 - self.y0) * (
            HEIGHT - 2 * MARGIN
        )

    def axes(self, xlabel, ylabel):
        p = self.parts
        p.append(
            f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
            f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>'
        )
        p.append(
            f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
            f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>'
        )
        for i in range(5):
            x = self.x0 + i * (self.x1 - self.x0) / 4
            y = self.y0 + i * (self.y1 - self.y0) / 4
            p.append(
                f'<text x="{_fmt(self.px(x))}" y="{HEIGHT - MARGIN + 18}" '
                f'font-size="11" text-anchor="middle">{_fmt(x)}</text>'
            )
            p.append(
                f'<text x="{MARGIN - 8}" y="{_fmt(self.py(y) + 4)}" '
                f'font-size="11" text-anchor="end">{_fmt(y)}</text>'
            )
        p.append(
            f'<text x="{WIDTH // 2}" y="{HEIGHT - 16}" font-size="13" '
            f'text-anchor="middle">{xlabel}</text>'
        )
        p.append(
            f'<text x="18" y="{HEIGHT // 2}" font-size="13" text-anchor="middle" '
            f'transform="rotate(-90 18 {HEIGHT // 2})">{ylabel}</text>'
        )

    def polyline(self, pts, color, dashed=False, width=1.6):
        if len(pts) < 2:
            return
        d = " ".join(f"{_fmt(self.px(x))},{_fmt(self.py(y))}" for x, y in pts)
        dash = ' stroke-dasharray="5,4"' if dashed else ""
        self.parts.append(
            f'<polyline points="{d}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash}/>'
        )

    def triangle(self, x, y, color="black", size=6.0):
        cx, cy = self.px(x), self.py(y)
        pts = (
            f"{_fmt(cx)},{_fmt(cy - size)} "
            f"{_fmt(cx - size)},{_fmt(cy + size)} "
            f"{_fmt(cx + size)},{_fmt(cy + size)}"
        )
        self.parts.append(f'<polygon points="{pts}" fill="{color}"/>')

    def circle(self, x, y, color="black", r=5.0):
        self.parts.append(
            f'<circle cx="{_fmt(self.px(x))}" cy="{_fmt(self.py(y))}" r="{r}" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def render_diagram_svg(diagram, ghost_translates=0) -> str:
    """Branches as polylines, cusps as triangles, crossings as circles."""
    xs, ys = [], []
    for b in diagram.branches:
        xs += list(b.etas)
        ys += list(b.values)
    shifts = [0.0]
    if ghost_translates and diagram.group.rank >= 1:
        period = float(diagram.group.omega(tuple([1] + [0] * (diagram.group.rank - 1))))
        for k in range(1, ghost_translates + 1):
            shifts += [k * period, -k * period]
    ys = [y - shift for shift in shifts for y in ys]  # each ghost shifts the drawn values once
    cv = _Canvas(*_bounds(xs, ys))
    cv.axes("eta", "action")
    for si, shift in enumerate(shifts):
        dashed = si > 0
        for i, b in enumerate(sorted(diagram.branches, key=lambda b: b.id)):
            pts = list(zip(b.etas, [v - shift for v in b.values]))
            cv.polyline(pts, PALETTE[i % len(PALETTE)], dashed=dashed)
    for c in sorted(diagram.cusps, key=lambda c: c.eta):
        cv.triangle(c.eta, c.value)
    for c in sorted(diagram.crossings, key=lambda c: c.eta):
        cv.circle(c.eta, c.value)
    return cv.render()


def render_curve_svg(etas, values, label="rho") -> str:
    xs = list(etas)
    ys = [float(v) for v in values]
    cv = _Canvas(*_bounds(xs, ys))
    cv.axes("eta", label)
    cv.polyline(list(zip(xs, ys)), PALETTE[0])
    return cv.render()
