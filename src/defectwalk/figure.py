"""Spectral picture: unit circle, essential-spectrum arcs, eigenvalue loci.

Produces a deterministic row table (series, omega, index, re, im) and a
static SVG 1.1 rendering of it. Loci are sampled over a user range of the
defect strength, split at the punctures omega = 0 and omega = 1 (a range
that leaves no sample outside their gaps is refused); the curves for
positive omega are drawn dashed, for negative omega dotted, the arcs solid
black, the unit circle gray, and the four unitary-case (omega = -1)
eigenvalues as markers on the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cli import meta, write_table
from .spectrum import eigenvalues, essential_spectrum_arcs

__all__ = ["FigureConfig", "FigureRow", "figure_rows", "render_svg", "rows_to_csv"]

# refinement offsets so both loci branches visibly approach the arc endpoints
_APPROACH_TO_ONE = (0.32, 0.16, 0.08, 0.04, 0.02, 0.01)
_EDGE_GAP = 0.02  # keep away from the omega = 0 puncture
_ONE_GAP = 0.0099  # keep away from the omega = 1 puncture
_ARC_SAMPLES = 181  # per essential-spectrum arc, endpoints included
_CIRCLE_SAMPLES = 257  # on the unit circle, the first point repeated last
_SIZE = 640  # SVG width and height in px
_MARGIN = 24  # px between the plotted extent and the SVG edge


@dataclass(frozen=True)
class FigureRow:
    series: str  # unit_circle | sigma_arc | locus | marker
    omega: float | None
    index: int  # eigenvalue index 1..4, 0 for background curves
    re: float
    im: float


@dataclass(frozen=True)
class FigureConfig:
    omega_min: float = -3.0
    omega_max: float = 3.0
    samples: int = 121

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.omega_min)
            and math.isfinite(self.omega_max)
            and self.omega_min < self.omega_max
        ):
            raise ValueError(
                f"degenerate omega range [{self.omega_min!r}, {self.omega_max!r}]"
            )
        if self.samples < 8:
            raise ValueError(f"samples must be >= 8, got {self.samples!r}")


def _branch_grid(lo: float, hi: float, samples: int, positive: bool) -> list[float]:
    """Sample grid for one sign of omega, avoiding the punctures and adding a
    geometric approach to omega = 1 on the positive branch."""
    if positive:
        lo = max(lo, _EDGE_GAP)
    else:
        hi = min(hi, -_EDGE_GAP)
    if not lo < hi:
        return []
    n = max(2, samples)
    values = {lo + (hi - lo) * k / (n - 1) for k in range(n)}
    if positive:
        values = {v for v in values if abs(v - 1.0) > _ONE_GAP}
        for d in _APPROACH_TO_ONE:
            for v in (1.0 - d, 1.0 + d):
                if lo <= v <= hi:
                    values.add(v)
    return sorted(values)


def figure_rows(cfg: FigureConfig | None = None) -> list[FigureRow]:
    cfg = cfg or FigureConfig()
    grids = [_branch_grid(cfg.omega_min, cfg.omega_max, cfg.samples, positive)
             for positive in (True, False)]
    if not any(grids):
        raise ValueError(
            f"omega range [{cfg.omega_min!r}, {cfg.omega_max!r}] draws no locus: every "
            f"sample falls in a puncture gap, within {_EDGE_GAP} of omega = 0 or "
            f"{_ONE_GAP} of omega = 1"
        )
    rows: list[FigureRow] = []
    for k in range(_CIRCLE_SAMPLES):
        t = 2.0 * math.pi * k / (_CIRCLE_SAMPLES - 1)
        rows.append(FigureRow("unit_circle", None, 0, math.cos(t), math.sin(t)))
    for z in essential_spectrum_arcs(_ARC_SAMPLES):
        rows.append(FigureRow("sigma_arc", None, 0, float(z.real), float(z.imag)))
    for grid in grids:
        for om in grid:
            quad = eigenvalues(om)
            for j, lam in enumerate(quad, start=1):
                rows.append(FigureRow("locus", om, j, lam.real, lam.imag))
    if cfg.omega_min <= -1.0 <= cfg.omega_max:
        for j, lam in enumerate(eigenvalues(-1.0), start=1):
            rows.append(FigureRow("marker", -1.0, j, lam.real, lam.imag))
    return rows


def rows_to_csv(rows: list[FigureRow], cfg: FigureConfig, out: str) -> None:
    """Write the row table as CSV to the file ``out``."""
    write_table(
        out, "csv", "figure",
        {
            "series": [r.series for r in rows],
            "omega": [r.omega for r in rows],
            "index": [r.index for r in rows],
            "re": [r.re for r in rows],
            "im": [r.im for r in rows],
        },
        head=[", ".join(meta(omega_min=cfg.omega_min, omega_max=cfg.omega_max,
                             samples=cfg.samples))],
    )


def _polyline(points: list[tuple[float, float]], style: str) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline fill="none" {style} points="{coords}"/>'


def render_svg(rows: list[FigureRow]) -> str:
    """Static SVG 1.1; every plotted point also appears in the CSV rows."""
    half = 1.15
    for r in rows:
        half = max(half, abs(r.re), abs(r.im))
    extent = half * 1.06  # the plotted half-width, from the centre to the margin

    def to_px(re: float, im: float) -> tuple[float, float]:
        scale = (_SIZE / 2.0 - _MARGIN) / extent
        return _SIZE / 2.0 + re * scale, _SIZE / 2.0 - im * scale

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    # axes
    x0, y0 = to_px(-extent, 0.0)
    x1, y1 = to_px(extent, 0.0)
    out.append(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
        'stroke="#dddddd" stroke-width="1"/>'
    )
    x0, y0 = to_px(0.0, -extent)
    x1, y1 = to_px(0.0, extent)
    out.append(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
        'stroke="#dddddd" stroke-width="1"/>'
    )

    circle = [to_px(r.re, r.im) for r in rows if r.series == "unit_circle"]
    if circle:
        out.append(_polyline(circle, 'stroke="#aaaaaa" stroke-width="1.2"'))

    arcs = [r for r in rows if r.series == "sigma_arc"]
    if arcs:
        split = len(arcs) // 2  # two arcs, equal sample counts
        for part in (arcs[:split], arcs[split:]):
            pts = [to_px(r.re, r.im) for r in part]
            out.append(_polyline(pts, 'stroke="black" stroke-width="3"'))

    loci = [r for r in rows if r.series == "locus"]
    for j in (1, 2, 3, 4):
        # positive omega, split at the puncture omega = 1: dashed
        for segment in (
            [r for r in loci if r.index == j and r.omega is not None and 0 < r.omega < 1],
            [r for r in loci if r.index == j and r.omega is not None and r.omega > 1],
        ):
            if len(segment) >= 2:
                pts = [to_px(r.re, r.im) for r in sorted(segment, key=lambda r: r.omega)]
                out.append(
                    _polyline(pts, 'stroke="#202020" stroke-width="1.4" stroke-dasharray="7 5"')
                )
        negative = [r for r in loci if r.index == j and r.omega is not None and r.omega < 0]
        if len(negative) >= 2:
            pts = [to_px(r.re, r.im) for r in sorted(negative, key=lambda r: r.omega)]
            out.append(
                _polyline(pts, 'stroke="#202020" stroke-width="1.4" stroke-dasharray="2 4"')
            )

    for r in rows:
        if r.series == "marker":
            x, y = to_px(r.re, r.im)
            out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="black"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
