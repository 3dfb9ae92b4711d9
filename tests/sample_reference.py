"""Scalar reference for ``Arrangement.face_samples``.

The library computes every face sample in one vectorized pass. This is the
per-face rule it replaced, written on the public cycle and vertex accessors,
so the differential tests compare the array against code that shares none of
its arithmetic. It still steps past a third vertex collinear with the first
edge, which a strictly convex cell never has.
"""

import math


def _reduced(x: int, y: int, w: int) -> tuple[int, int, int]:
    g = math.gcd(math.gcd(x, y), w)
    return x // g, y // g, w // g


def _midpoint(p, q):
    (xp, yp, wp), (xq, yq, wq) = p, q
    return xp * wq + xq * wp, yp * wq + yq * wp, 2 * wp * wq


def cell_sample_triple(arr, cid: int) -> tuple[int, int, int]:
    """Midpoint of the first edge's midpoint and the first cycle vertex off its line."""
    ring = [arr.vertex_triple(v) for v in arr.cell_cycle(cid)]
    (x0, y0, w0), (x1, y1, w1) = ring[0], ring[1]
    for x2, y2, w2 in ring[2:]:
        cross = (x1 * w0 - x0 * w1) * (y2 * w0 - y0 * w2) - (y1 * w0 - y0 * w1) * (
            x2 * w0 - x0 * w2
        )
        if cross != 0:
            break
    else:
        raise AssertionError("cell cycle is degenerate")
    mx, my, mw = _midpoint(ring[0], ring[1])
    return _reduced(*_midpoint((mx, my, mw), (x2, y2, w2)))


def face_sample_triple(arr, ref) -> tuple[int, int, int]:
    """A cell's sample, an edge's reduced midpoint, or a vertex's triple."""
    if ref.dim == 2:
        return cell_sample_triple(arr, ref.index)
    if ref.dim == 1:
        u, v = arr.edge_endpoints(ref.index)
        return _reduced(*_midpoint(arr.vertex_triple(u), arr.vertex_triple(v)))
    return arr.vertex_triple(ref.index)
