"""Whole-box reference for ``applications.optimal_translation``.

``optimal_translation`` builds one reduced arrangement per window that can
hold an optimizer. This is the version it replaced, moved here unchanged: it
builds the reduced arrangement of the whole box, which holds every pairwise
crossing and every anchor, so the differential tests compare against code
that shares no window. It labels its cells with ``walk_labels``, the walk
that interleaves the breadth-first search with the labels, so it shares no
walk tree with the library either. Its cell step is ``closest_point_in_polygon``,
the library's former nearest-point routine on ``Fraction`` polygons, kept
here unchanged so that the reference shares no kernel with the library's
integer ring scan (``geom._nearest_on_ring``).
"""

import math
from collections import deque
from fractions import Fraction

import numpy as _np

from botmatch.diagram import _crossed, _start_state, eval_E, reduced_arrangement
from botmatch.geom import ContractViolation, ConvexPolygon, Instance, Point, Scalar
from botmatch.matching import Matching


def _certified_upper(x: Scalar) -> float:
    return float(x) * (1 + 1e-9) + 1e-12


def _certified_lower(x: _np.ndarray) -> _np.ndarray:
    return x * (1 - 1e-9) - 1e-12


def _box_dist2(boxes: tuple[_np.ndarray, ...], x, y) -> _np.ndarray:
    """Squared float distance from (x, y) to each box (x0, y0, x1, y1)."""
    x0, y0, x1, y1 = boxes
    dx = _np.maximum(x0 - x, x - x1)
    dy = _np.maximum(y0 - y, y - y1)
    _np.maximum(dx, 0.0, out=dx)
    _np.maximum(dy, 0.0, out=dy)
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _closest_on_segment(p: Point, v: Point, w: Point) -> Point:
    d = w - v
    denom = d.norm2()
    if denom == 0:
        return v
    lam = d.dot(p - v) / denom
    if lam <= 0:
        return v
    if lam >= 1:
        return w
    return v + d.scale(lam)


def closest_point_in_polygon(p: Point, poly: ConvexPolygon) -> Point:
    """Exact nearest point of a convex region to ``p`` (p itself if inside)."""
    if poly.contains(p):
        return p
    best: Point | None = None
    best_d2: Fraction | None = None
    if len(poly.vertices) == 1:
        return poly.vertices[0]
    for v, w in poly.edges():
        q = _closest_on_segment(p, v, w)
        d2 = p.dist2(q)
        if best_d2 is None or d2 < best_d2 or (d2 == best_d2 and (q.x, q.y) < (best.x, best.y)):
            best, best_d2 = q, d2
    if best is None:
        raise ContractViolation("polygon has no edge")
    return best


_OUTSIDE = object()  # walk marker: a cell the walk must not enter


def walk_labels(inst, arr, bisectors, cells):
    """Labels of ``cells`` by walking the dual subgraph they induce.

    Each connected component of that subgraph starts from ``_start_state`` at
    the sample of its first cell in ``cells`` order and is walked
    breadth-first, each neighbour's state coming from ``_crossed``. Returns
    the labels indexed by cell id (None outside ``cells``) and the number of
    components.
    """
    states = [_OUTSIDE] * arr.n_cells
    for c in cells:
        states[c] = None
    parts = 0
    for start in cells:
        if states[start] is not None:
            continue
        parts += 1
        states[start] = _start_state(inst, arr, start)
        queue = deque([start])
        while queue:
            c = queue.popleft()
            st = states[c]
            for nbr, eid in arr.cell_neighbors(c):
                if states[nbr] is not None:
                    continue
                states[nbr] = _crossed(st, bisectors[arr.edge_line(eid)])
                queue.append(nbr)
            states[c] = st.cell_label()
    return [None if s is _OUTSIDE else s for s in states], parts


def optimal_translation(inst: Instance) -> tuple[Point, Matching, Scalar]:
    """Translation minimizing the bottleneck cost, with matching and value.

    Within one closed cell the bottleneck value is the squared distance to
    the label's longest-edge site a - b, so the cell's best candidate is that
    site or its projection onto the cell. Only cells that can hold an optimum
    are labelled: the max-min bound max_b min_a |t - (a - b)|^2 never exceeds
    the bottleneck value, so a cell whose bounding box keeps that bound above
    the best value at any anchor holds no optimizer. The labelled cells are
    scanned in order of a certified lower bound (site distance to the cell's
    bounding box) and the scan stops as soon as the bound exceeds the
    incumbent; exact ties are never pruned, and the smallest (x, y) optimizer
    wins.
    """
    bis, arr = reduced_arrangement(inst)
    upper = _certified_upper(min(eval_E(inst, inst.anchor(e))[0] for e in inst.edges()))

    bounds = arr.cell_bounds_float()
    pad = 1e-7 * (float(_np.abs(bounds).max()) + 1.0)
    boxes = (bounds[:, 0] - pad, bounds[:, 1] - pad, bounds[:, 2] + pad, bounds[:, 3] + pad)
    # Float sites: int / int is correctly rounded, so axm / M == float(site.x).
    M, anchors = inst.int_anchors
    # A cell survives when every b keeps min_a of its box bound within the
    # incumbent; each b only looks at the cells the earlier ones kept.
    alive = _np.arange(arr.n_cells)
    for b in range(inst.k):
        kept = tuple(side[alive] for side in boxes)
        nearest = _np.full(len(alive), _np.inf)
        for axm, aym in anchors[b]:
            _np.minimum(nearest, _box_dist2(kept, axm / M, aym / M), out=nearest)
        alive = alive[_certified_lower(nearest) <= upper]
    cells = alive.tolist()
    labels, _parts = walk_labels(inst, arr, bis, cells)

    longest = [labels[cid].longest for cid in cells]
    ax = _np.array([anchors[e.b][e.a][0] / M for e in longest])
    ay = _np.array([anchors[e.b][e.a][1] / M for e in longest])
    lower = _certified_lower(_box_dist2(tuple(side[alive] for side in boxes), ax, ay))

    best_val: Scalar | None = None
    best_t: Point | None = None
    best_cid = -1
    best_hi = math.inf
    for i in map(int, _np.argsort(lower, kind="stable")):
        if lower[i] > best_hi:
            break
        site, cid = inst.anchor(longest[i]), cells[i]
        t = closest_point_in_polygon(site, arr.cell_polygon(cid))
        val = t.dist2(site)
        if (
            best_val is None
            or val < best_val
            or (val == best_val and (t.x, t.y) < (best_t.x, best_t.y))
        ):
            best_val, best_t, best_cid = val, t, cid
            best_hi = _certified_upper(val)
    if best_val is None or best_t is None:
        raise ContractViolation("no cell can hold the optimum")
    mu = labels[best_cid].matching
    if max(best_t.dist2(inst.anchor(e)) for e in mu) != best_val:
        raise ContractViolation("the cell's matching does not attain its value")
    return best_t, mu, best_val
