"""Whole-box reference for ``applications.bottleneck_path``.

``bottleneck_path`` labels a cell only when its Dijkstra settles it, deriving
the label from the parent that set the cell's distance. This is the version it
replaced: it labels every cell of the path's box through
``build_diagram(...).cells`` and caches each edge's weight, so the differential
tests compare against code that shares no step of the on-demand labelling.

``unreduced`` runs a query on the unreduced pipeline, with every bisector kept.
"""

import heapq
import math
from fractions import Fraction
from itertools import count

import pytest

from botmatch import diagram
from botmatch.applications import PathResult
from botmatch.diagram import build_diagram, eval_E
from botmatch.geom import ContractViolation, Instance, Point, Scalar, _min_envelope_on_triples


def unreduced(query, *args):
    """``query(*args)`` with ``used_bisectors`` patched to keep every bisector."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagram, "used_bisectors", lambda inst, bisectors, window=None: bisectors)
        return query(*args)


def bottleneck_path(inst: Instance, t0: Point, t1: Point) -> PathResult:
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
    diag = build_diagram(inst, must_contain=musts)
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
                ends = (arr.vertex_triple(u), arr.vertex_triple(v))
                got = _min_envelope_on_triples(inst, label_edges, *ends)
                weights[eid] = got
            nd = d if d >= got[1] else got[1]
            if dist[nbr] is None or nd < dist[nbr]:
                dist[nbr] = nd
                parent_cell[nbr] = c
                parent_eid[nbr] = eid
                heapq.heappush(heap, (nd, next(tick), nbr))
    if end_cell < 0:
        raise ContractViolation("dual cell graph is not connected")

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
    if max(vertex_values) != value:
        raise ContractViolation("path value is not its largest vertex value")
    return PathResult(polyline, value, vertex_values)
