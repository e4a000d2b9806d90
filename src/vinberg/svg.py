"""Deterministic SVG rendering of planar tilings and limit-set point clouds.

Fixed 1000x1000 canvas, content fitted with a uniform scale and vertical
flip, coordinates printed with three decimals: identical input produces
byte-identical output.  Tiles are closed paths with a fill class indexed by
word length, the fundamental tile is highlighted, and the invariant conic
can be overlaid as a sampled closed path.
"""

from __future__ import annotations

import json

import numpy as np

from .hilbert import GeometryError

SIZE = 1000
MARGIN = 40.0


def _fmt(x: float) -> str:
    s = "%.3f" % float(x)
    return "0.000" if s == "-0.000" else s


class _Fit:
    """Affine data->canvas map: uniform scale, centred, y axis flipped."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
        self.scale = (SIZE - 2 * MARGIN) / span
        self.center = (lo + hi) / 2.0

    def __call__(self, xy):
        x = SIZE / 2.0 + (xy[0] - self.center[0]) * self.scale
        y = SIZE / 2.0 - (xy[1] - self.center[1]) * self.scale
        return x, y


def _path(points, fit, close=True) -> str:
    cmds = []
    for i, p in enumerate(points):
        x, y = fit(p)
        cmds.append("%s%s %s" % ("M" if i == 0 else "L", _fmt(x), _fmt(y)))
    if close:
        cmds.append("Z")
    return " ".join(cmds)


def _depth_styles(max_depth: int) -> str:
    rules = [
        ".tile { stroke: #1a1a1a; stroke-width: 0.6; }",
        ".fundamental { fill: #ffd45e; }",
        ".conic { fill: none; stroke: #c0002f; stroke-width: 2.0; }",
        ".pt { fill: #c0002f; stroke: none; }",
        ".outline { fill: none; stroke: #1a1a1a; stroke-width: 1.2; }",
    ]
    for k in range(max_depth + 1):
        hue = (47 * k) % 360
        light = 82 - (k * 5) % 40
        rules.append(".depth-%d { fill: hsl(%d, 62%%, %d%%); }" % (k, hue, light))
    return "\n".join(rules)


def _document(body: str, style: str, metadata: dict) -> str:
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">\n' % (SIZE, SIZE, SIZE, SIZE)
        + "<metadata>%s</metadata>\n" % json.dumps(metadata, sort_keys=True)
        + "<style>\n%s\n</style>\n" % style
        + '<rect width="%d" height="%d" fill="#ffffff"/>\n' % (SIZE, SIZE)
        + body
        + "</svg>\n"
    )


def render_tiling_svg(dom, chart, conic_points=None) -> str:
    """SVG of an orbit tiling in a planar chart.

    `dom` is a tiled domain approximation, `chart` the affine chart to draw
    in, `conic_points` an optional closed loop of boundary-conic points in
    chart coordinates.  Fill class = word length of the tile; the identity
    tile carries the `fundamental` class.  Tile counts per word length go
    into the metadata block."""

    tile_polys = chart.to_chart(dom.tiles)  # (tiles, rays, chart dim)
    if tile_polys.shape[1] < 3 or tile_polys.shape[2] != 2:
        raise GeometryError("tiling pictures need a planar chart")

    depths = list(dom.ball.depths)
    max_depth = max(depths)
    everything = tile_polys.reshape(-1, 2)
    if conic_points is not None and len(conic_points):
        everything = np.concatenate([everything, np.asarray(conic_points, dtype=float)])
    fit = _Fit(everything)

    counts = [0] * (max_depth + 1)
    for d in depths:
        counts[d] += 1

    parts = []
    for i, poly in enumerate(tile_polys):
        classes = "tile depth-%d" % depths[i]
        if depths[i] == 0:
            classes += " fundamental"
        parts.append('<path class="%s" d="%s"/>\n' % (classes, _path(poly, fit)))
    if conic_points is not None and len(conic_points):
        parts.append(
            '<path class="conic" d="%s"/>\n'
            % _path([np.asarray(q, dtype=float) for q in conic_points], fit)
        )
    metadata = {"kind": "tiling", "depth": max_depth, "tile_counts": counts}
    return _document("".join(parts), _depth_styles(max_depth), metadata)


def render_points_svg(points, conic_points=None, outline=None) -> str:
    """SVG of a planar point cloud, with optional conic and outline loops."""

    pts = [np.asarray(p, dtype=float) for p in points]
    if not pts:
        raise GeometryError("no points to draw")
    if len(pts[0]) != 2:
        raise GeometryError("point pictures need planar coordinates")
    everything = list(pts)
    for loop in (conic_points, outline):
        if loop is not None:
            everything.extend(np.asarray(q, dtype=float) for q in loop)
    fit = _Fit(everything)

    parts = []
    if outline is not None:
        parts.append(
            '<path class="outline" d="%s"/>\n'
            % _path([np.asarray(q, dtype=float) for q in outline], fit)
        )
    if conic_points is not None:
        parts.append(
            '<path class="conic" d="%s"/>\n'
            % _path([np.asarray(q, dtype=float) for q in conic_points], fit)
        )
    for p in pts:
        x, y = fit(p)
        parts.append('<circle class="pt" cx="%s" cy="%s" r="2.5"/>\n' % (_fmt(x), _fmt(y)))
    metadata = {"kind": "points", "count": len(pts)}
    return _document("".join(parts), _depth_styles(0), metadata)


def conic_loop(P, chart, n=256):
    """Sample the invariant conic as a closed loop in chart coordinates.

    Returns None when the polytope carries no invariant quadric (or it is
    not a planar oval in this chart)."""

    from .hilbert import conic_body

    if P.dim != 2:
        return None
    try:
        body = conic_body(P, chart)
    except GeometryError:
        return None
    angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    try:
        t_plus, _ = body.hits(np.zeros((1, 2)), dirs)
    except GeometryError:
        return None
    return dirs * t_plus[0][:, None]
