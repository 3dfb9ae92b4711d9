"""Reference for ``applications.bottleneck_path``.

``bottleneck_path`` gives every cell of its window its site from the lex
core, costs every interior edge from one adjacent cell's site alone and
searches on the costs' ranks, on the arrangement in the window of
``_optimizer_windows`` that holds both placements. This reference labels every cell of its box through
``label_cells_incremental`` and costs each edge from the whole walk
matching's envelope, so the differential tests compare against code that
shares neither the labeller nor the one-site edge cost. Without ``window`` its box is the whole box, inflated to hold the
straight-line bound's sublevel set, which shares no window with the library;
with ``window`` it runs on that box.

``unreduced`` runs a query on the unreduced pipeline, with every bisector kept.
``min_envelope_on_segment`` is the multi-site envelope that costs the
reference's edges; the library's one-site kernel is ``geom._segment_costs``.
"""

import heapq
import math
from fractions import Fraction
from itertools import count
from typing import Sequence

import pytest

from botmatch import diagram
from botmatch.applications import PathResult
from botmatch.arrangement import _chord, all_bisectors, build_arrangement, used_bisectors
from botmatch.diagram import eval_E, label_cells_incremental
from botmatch.geom import ContractViolation, EdgeRef, Instance, Point, Scalar, homogeneous


def min_envelope_on_segment(
    inst: Instance,
    edges: Sequence[EdgeRef],
    seg: tuple[Point, Point],
) -> tuple[Point, Fraction]:
    """Minimize max squared edge length over a segment of translations.

    Each edge contributes |t - site|^2; restricted to the segment these are
    quadratics sharing one leading coefficient, so their maximum is convex
    piecewise quadratic. Candidate parameters: segment ends, every pairwise
    breakpoint of the linear parts, and each piece's unconstrained vertex,
    all exact. Returns the minimizing point and value, preferring the
    smallest parameter on ties.

    Works on integers: the segment ends and the sites are scaled by one
    shared denominator D, each candidate parameter is a pair num/den with
    0 <= num <= den, and values are compared by cross-multiplication.
    """
    return _min_envelope_on_triples(inst, edges, homogeneous(seg[0]), homogeneous(seg[1]))


def _min_envelope_on_triples(
    inst: Instance,
    edges: Sequence[EdgeRef],
    s0: tuple[int, int, int],
    s1: tuple[int, int, int],
) -> tuple[Point, Fraction]:
    """``min_envelope_on_segment`` with the segment ends as homogeneous triples, W > 0."""
    if not edges:
        raise ValueError("need at least one edge")
    M, rows = inst.int_anchors
    X0, Y0, W0 = s0
    X1, Y1, W1 = s1
    # Scaled by D = W0*W1*M: s0 -> (x0, y0), s1 - s0 -> (dx, dy), site -> W0*W1*row.
    W01 = W0 * W1
    D = W01 * M
    x0, y0 = X0 * W1 * M, Y0 * W1 * M
    dx, dy = X1 * W0 * M - x0, Y1 * W0 * M - y0
    # D^2 * f_i(lam) = lam^2*dd + m_i*lam + p_i with the shared quadratic term dd.
    dd = dx * dx + dy * dy
    lin = []
    for e in edges:
        px, py = rows[e.b][e.a]
        ux, uy = x0 - px * W01, y0 - py * W01
        lin.append((2 * (ux * dx + uy * dy), ux * ux + uy * uy))

    # parameters num/den in (0, 1], after the end lam = 0 that starts the scan
    candidates = [(1, 1)]
    for i, (mi, pi) in enumerate(lin):
        for mj, pj in lin[i + 1 :]:
            num, den = (pi - pj, mj - mi) if mj > mi else (pj - pi, mi - mj)
            if 0 < num < den:
                candidates.append((num, den))
    if dd:
        for m, _p in lin:
            if 0 < -m < 2 * dd:
                candidates.append((-m, 2 * dd))
    # val = (D*den)^2 * g(num/den): values compare by cross-multiplication
    best_num, best_den, best_val = 0, 1, max(p for _m, p in lin)
    for num, den in candidates:
        val = num * num * dd + den * max(m * num + p * den for m, p in lin)
        lhs, rhs = val * best_den * best_den, best_val * den * den
        if lhs < rhs or (lhs == rhs and num * best_den < best_num * den):
            best_num, best_den, best_val = num, den, val
    scale = D * best_den
    t = Point(
        Fraction(x0 * best_den + best_num * dx, scale),
        Fraction(y0 * best_den + best_num * dy, scale),
    )
    return t, Fraction(best_val, scale * scale)


def _every_bisector(inst, bisectors, window=None):
    """Every bisector, or with ``window`` every one whose chord crosses the open window."""
    if window is None:
        return bisectors
    M = inst.int_anchors[0]
    return [b for b in bisectors if _chord(b.line.primitive_triple(), M, window) is not None]


def unreduced(query, *args):
    """``query(*args)`` with ``used_bisectors`` patched to keep every bisector it may see."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagram, "used_bisectors", _every_bisector)
        return query(*args)


def reference_arrangement(inst: Instance, t0: Point, t1: Point, window=None):
    """The reduced bisectors and the arrangement ``bottleneck_path`` runs on.

    Without ``window`` the box is inflated so that the sublevel set of the
    straight-line upper bound lies inside: the optimal path never needs to
    leave it.
    """
    bis = used_bisectors(inst, all_bisectors(inst), window=window)
    lines = [b.line for b in bis]
    if window is not None:
        return bis, build_arrangement(lines, window=window)
    e0, mu0 = eval_E(inst, t0)
    v_straight = max(e0, max(t1.dist2(inst.anchor(e)) for e in mu0))
    radius = math.isqrt(int(v_straight)) + 1
    shift = Point(Fraction(radius), Fraction(radius))
    musts = [t0, t1]
    for e in inst.edges():
        site = inst.anchor(e)
        musts.append(site - shift)
        musts.append(site + shift)
    return bis, build_arrangement(lines, must_contain=musts)


def bottleneck_path(inst: Instance, t0: Point, t1: Point, window=None) -> PathResult:
    """Path between placements minimizing the worst bottleneck value en route.

    The path runs on ``reference_arrangement(inst, t0, t1, window)``.
    Crossing one arrangement edge costs the minimum of the bottleneck value
    along it (the incident cell's label envelope, valid on the closed cell);
    a minimax Dijkstra over the dual graph then yields the optimum, walked
    back through the per-edge minimizers.
    """
    e0, _ = eval_E(inst, t0)
    bis, arr = reference_arrangement(inst, t0, t1, window)
    diag = label_cells_incremental(inst, arr, bis)

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
