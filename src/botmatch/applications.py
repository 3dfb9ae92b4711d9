"""Queries answered with a labeled diagram.

Three consumers of the cell labels: the translation minimizing the bottleneck
cost, a minimax path between two placements, and the worst bottleneck value
over all placements keeping B inside a convex region.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

import numpy as _np

from .diagram import build_diagram, eval_E
from .geom import (
    ConvexPolygon,
    Instance,
    Point,
    Scalar,
    _halfplane_clip,
    closest_point_in_polygon,
    erode_polygon,
    min_envelope_on_segment,
)
from .matching import Matching


class _Empty:
    """Result of a cover query whose region admits no placement at all."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Empty"

    def __bool__(self) -> bool:
        return False


Empty = _Empty()


@dataclass(frozen=True)
class PathResult:
    """A polygonal path between two placements and its bottleneck value.

    Interior vertices sit on arrangement edges at the points minimizing the
    bottleneck value along the crossed edge; the value is the exact maximum
    of the bottleneck value over the whole path.
    """

    polyline: tuple[Point, ...]
    value: Scalar
    vertex_values: tuple[Scalar, ...]


@dataclass(frozen=True)
class CoverResult:
    """Worst placement inside the eroded region and its bottleneck value."""

    value: Scalar
    witness: Point
    region: ConvexPolygon


# -- optimal translation ----------------------------------------------------------


def _certified_upper(x: Scalar) -> float:
    return float(x) * (1 + 1e-9) + 1e-12


def optimal_translation(inst: Instance) -> tuple[Point, Matching, Scalar]:
    """Translation minimizing the bottleneck cost, with matching and value.

    Within one closed cell the bottleneck value is the squared distance to
    the label's longest-edge site a - b, so the cell's best candidate is that
    site or its projection onto the cell. Cells are scanned in order of a
    certified lower bound (site distance to the cell's bounding box) and the
    scan stops as soon as the bound exceeds the incumbent; exact ties are
    never pruned, and the smallest (x, y) optimizer wins.
    """
    diag = build_diagram(inst)
    arr = diag.arrangement
    sites = [inst.anchor(label.longest) for label in diag.cells]

    bounds = arr.cell_bounds_float()
    ax = _np.array([float(s.x) for s in sites])
    ay = _np.array([float(s.y) for s in sites])
    pad = 1e-7 * (float(_np.abs(bounds).max()) + 1.0)
    dx = _np.maximum(0.0, _np.maximum(bounds[:, 0] - pad - ax, ax - bounds[:, 2] - pad))
    dy = _np.maximum(0.0, _np.maximum(bounds[:, 1] - pad - ay, ay - bounds[:, 3] - pad))
    lower = (dx * dx + dy * dy) * (1 - 1e-9) - 1e-12

    best_val: Scalar | None = None
    best_t: Point | None = None
    best_cid = -1
    best_hi = math.inf
    for cid in map(int, _np.argsort(lower, kind="stable")):
        if lower[cid] > best_hi:
            break
        site = sites[cid]
        t = closest_point_in_polygon(site, arr.cell_polygon(cid))
        val = t.dist2(site)
        if (
            best_val is None
            or val < best_val
            or (val == best_val and (t.x, t.y) < (best_t.x, best_t.y))
        ):
            best_val, best_t, best_cid = val, t, cid
            best_hi = _certified_upper(val)
    assert best_val is not None and best_t is not None
    mu = diag.cells[best_cid].matching
    worst = max(best_t.dist2(inst.anchor(e)) for e in mu)
    assert worst == best_val
    return best_t, mu, best_val


# -- bottleneck path --------------------------------------------------------------


def bottleneck_path(
    inst: Instance, t0: Point, t1: Point, *, keep_all_bisectors: bool = False
) -> PathResult:
    """Path between placements minimizing the worst bottleneck value en route.

    The working box is inflated so that the sublevel set of a straight-line
    upper bound lies inside: the optimal path never needs to leave it, which
    makes the bounding box a harmless artifact. Crossing one arrangement edge
    costs the minimum of the bottleneck value along it (the incident cell's
    label envelope, valid on the closed cell); a minimax Dijkstra over the
    dual graph then yields the optimum, walked back through the per-edge
    minimizers.
    """
    e0, mu0 = eval_E(inst, t0)
    v_straight = max(e0, max(t1.dist2(inst.anchor(e)) for e in mu0))
    radius = math.isqrt(int(v_straight)) + 1
    shift = Point(Fraction(radius), Fraction(radius))
    musts = [t0, t1]
    for e in inst.edges():
        site = inst.anchor(e)
        musts.append(site - shift)
        musts.append(site + shift)
    diag = build_diagram(
        inst, must_contain=musts, keep_all_bisectors=keep_all_bisectors
    )
    arr = diag.arrangement

    seeds = arr.face_cells(arr.locate(t0))
    targets = set(arr.face_cells(arr.locate(t1)))

    zero = Fraction(0)
    dist: list[Scalar | None] = [None] * arr.n_cells
    parent_cell = [-1] * arr.n_cells
    parent_eid = [-1] * arr.n_cells
    tick = count()
    heap = []
    for c in seeds:
        dist[c] = zero
        heapq.heappush(heap, (zero, next(tick), c))
    weights: dict[int, tuple[Point, Scalar]] = {}
    end_cell = -1
    settled = [False] * arr.n_cells
    while heap:
        d, _, c = heapq.heappop(heap)
        if settled[c]:
            continue
        settled[c] = True
        if c in targets:
            end_cell = c
            break
        label_edges = diag.cells[c].matching
        for nbr, eid in arr.cell_neighbors(c):
            if settled[nbr]:
                continue
            got = weights.get(eid)
            if got is None:
                u, v = arr.edge_endpoints(eid)
                seg = (arr.vertex_point(u), arr.vertex_point(v))
                got = min_envelope_on_segment(inst, label_edges, seg)
                weights[eid] = got
            nd = d if d >= got[1] else got[1]
            if dist[nbr] is None or nd < dist[nbr]:
                dist[nbr] = nd
                parent_cell[nbr] = c
                parent_eid[nbr] = eid
                heapq.heappush(heap, (nd, next(tick), nbr))
    assert end_cell >= 0, "dual cell graph is not connected"

    crossings: list[Point] = []
    c = end_cell
    while parent_cell[c] >= 0:
        crossings.append(weights[parent_eid[c]][0])
        c = parent_cell[c]
    crossings.reverse()
    polyline = (t0, *crossings, t1)
    e1, _ = eval_E(inst, t1)
    value = max(e0, e1, dist[end_cell])
    vertex_values = (e0, *(eval_E(inst, p)[0] for p in crossings), e1)
    assert max(vertex_values) == value
    return PathResult(polyline, value, vertex_values)


# -- cover radius -----------------------------------------------------------------


def cover_radius(inst: Instance, Q: ConvexPolygon) -> CoverResult | _Empty:
    """Worst bottleneck value over all translations keeping B inside Q.

    The admissible region is the erosion of Q by B; the bottleneck value is
    convex on each arrangement cell, so its maximum over the region is
    attained at a vertex of some cell-region overlay piece. Each cell is
    clipped against the region and the value is evaluated at every clip
    vertex.
    """
    region = erode_polygon(Q, inst.B)
    if region is None:
        return Empty
    # The cell labels are never read, so they are never computed.
    arr = build_diagram(inst, must_contain=region.vertices).arrangement

    qxs = [float(v.x) for v in region.vertices]
    qys = [float(v.y) for v in region.vertices]
    bounds = arr.cell_bounds_float()
    pad = 1e-7 * (float(_np.abs(bounds).max()) + 1.0)
    alive = _np.nonzero(
        (bounds[:, 0] <= max(qxs) + pad)
        & (bounds[:, 2] >= min(qxs) - pad)
        & (bounds[:, 1] <= max(qys) + pad)
        & (bounds[:, 3] >= min(qys) - pad)
    )[0]

    candidates: dict[tuple[Scalar, Scalar], Point] = {}
    for cid in map(int, alive):
        piece = list(region.vertices)
        for v, w in arr.cell_polygon(cid).edges():
            d = w - v
            normal = Point(d.y, -d.x)
            piece = _halfplane_clip(piece, normal, normal.dot(v))
            if not piece:
                break
        for p in piece:
            candidates.setdefault((p.x, p.y), p)
    assert candidates, "region does not meet the arrangement"

    best_val: Scalar | None = None
    best_p: Point | None = None
    for p in candidates.values():
        val, _ = eval_E(inst, p)
        if (
            best_val is None
            or val > best_val
            or (val == best_val and (p.x, p.y) < (best_p.x, best_p.y))
        ):
            best_val, best_p = val, p
    assert best_val is not None and best_p is not None
    return CoverResult(best_val, best_p, region)
