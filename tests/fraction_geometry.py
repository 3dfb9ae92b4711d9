"""Fraction references for the integer clipping and corner routines in ``geom``.

The library clips and extracts corners on homogeneous integer triples. These
do the same on ``Point``s in ``Fraction`` arithmetic, so the differential
tests compare against code that shares nothing with the library's.
"""

from fractions import Fraction

from botmatch.geom import ConvexPolygon, Point


def _halfplane_clip(
    vertices: list[Point], n: Point, c: Fraction
) -> list[Point]:
    """Clip a ccw polygon to the half-plane <n, t> <= c (Sutherland-Hodgman)."""
    if not vertices:
        return []
    out: list[Point] = []
    m = len(vertices)
    for i in range(m):
        v, w = vertices[i], vertices[(i + 1) % m]
        fv, fw = n.dot(v) - c, n.dot(w) - c
        if fv <= 0:
            out.append(v)
            if fw > 0:
                lam = fv / (fv - fw)
                out.append(v + (w - v).scale(lam))
        elif fw < 0:
            lam = fv / (fv - fw)
            out.append(v + (w - v).scale(lam))
    dedup: list[Point] = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def canonical_convex(vertices: list[Point]) -> ConvexPolygon | None:
    """Canonicalize a weakly convex ccw vertex chain into a ConvexPolygon."""
    if not vertices:
        return None
    pts = sorted(set(vertices))
    if len(pts) == 1:
        return ConvexPolygon((pts[0],))
    # Collinear chains collapse to their extreme pair.
    p0 = pts[0]
    if all((pts[-1] - p0).cross(p - p0) == 0 for p in pts):
        return ConvexPolygon((p0, pts[-1]))
    # Full-dimensional: drop collinear middles, restart from the lex-min vertex.
    m = len(vertices)
    start = vertices.index(min(vertices))
    ring = [vertices[(start + i) % m] for i in range(m)]
    kept: list[Point] = []
    for p in ring:
        while len(kept) >= 2 and (kept[-1] - kept[-2]).cross(p - kept[-1]) <= 0:
            kept.pop()
        kept.append(p)
    while len(kept) >= 3 and (kept[-1] - kept[-2]).cross(kept[0] - kept[-1]) <= 0:
        kept.pop()
    return ConvexPolygon(tuple(kept))
