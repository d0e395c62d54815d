"""Static SVG rendering of tracks, predictions, and obstacles.

The SVG is assembled by hand so output is deterministic byte for byte:
fixed float formatting, no timestamps, styling via a class per layer
(known, predicted, groundtruth, obstacle).
"""

from __future__ import annotations

import numpy as np

from .core import DataError, SceneGeometry

_STYLE = """\
.bg { fill: #ffffff; }
.known { fill: none; stroke: #2060c0; stroke-width: 0.06; }
.predicted { fill: none; stroke: #d03020; stroke-width: 0.05; stroke-dasharray: 0.18 0.12; }
.groundtruth { fill: none; stroke: #208040; stroke-width: 0.06; }
.obstacle { fill: #d0d0d0; stroke: #505050; stroke-width: 0.05; }
.destination { fill: #d03020; stroke: none; }
"""

_PX_PER_METER = 40.0


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _points_attr(points: np.ndarray, xmin: float, ymax: float) -> str:
    return " ".join(f"{_fmt(p[0] - xmin)},{_fmt(ymax - p[1])}" for p in points)


def render_svg(layers: list, scene: SceneGeometry | None = None,
               pad: float = 1.0) -> str:
    """Render polyline layers plus scene obstacles to an SVG document.

    ``layers`` is a list of (css_class, points) pairs where points is an
    (N, 2) array in meters. The y axis is flipped so north is up. Bounds
    cover all layer points and obstacles, padded by ``pad`` meters.
    """
    all_pts = [np.asarray(pts, dtype=np.float64).reshape(-1, 2)
               for _, pts in layers]
    if scene is not None:
        all_pts.extend(np.asarray(seg) for seg in scene.segments)
        all_pts.extend(np.asarray(poly) for poly in scene.polygons)
    stacked = (np.vstack([p for p in all_pts if len(p)])
               if any(len(p) for p in all_pts) else np.zeros((1, 2)))
    xmin, ymin = stacked.min(axis=0) - pad
    xmax, ymax = stacked.max(axis=0) + pad
    with np.errstate(over="ignore"):
        w, h = xmax - xmin, ymax - ymin
        fits = np.isfinite(w * _PX_PER_METER) and np.isfinite(h * _PX_PER_METER)
    if not fits:
        raise DataError("plot too large: its size in pixels overflows")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(w * _PX_PER_METER)}" height="{_fmt(h * _PX_PER_METER)}" '
        f'viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
        f"<style>\n{_STYLE}</style>",
        f'<rect class="bg" x="0" y="0" width="{_fmt(w)}" height="{_fmt(h)}"/>',
    ]
    if scene is not None:
        for poly in scene.polygons:
            parts.append(f'<polygon class="obstacle" '
                         f'points="{_points_attr(np.asarray(poly), xmin, ymax)}"/>')
        for seg in scene.segments:
            parts.append(f'<polyline class="obstacle" '
                         f'points="{_points_attr(np.asarray(seg), xmin, ymax)}"/>')
    for css_class, pts in layers:
        arr = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        if len(arr) == 0:
            continue
        if len(arr) == 1:
            cx, cy = arr[0, 0] - xmin, ymax - arr[0, 1]
            parts.append(f'<circle class="{css_class}" cx="{_fmt(cx)}" '
                         f'cy="{_fmt(cy)}" r="0.08"/>')
        else:
            parts.append(f'<polyline class="{css_class}" '
                         f'points="{_points_attr(arr, xmin, ymax)}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
