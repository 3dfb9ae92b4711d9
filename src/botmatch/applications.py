"""Queries answered with a labeled diagram.

Three consumers of the cell labels: the translation minimizing the bottleneck
cost, a minimax path between two placements, and the worst bottleneck value
over all placements keeping B inside a convex region.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

import numpy as _np

from .arrangement import all_bisectors
from .diagram import (
    _lex_cell_labels,
    _walk_label_of,
    build_diagram,
    eval_E,
    reduced_arrangement,
)
from .geom import (
    ContractViolation,
    ConvexPolygon,
    Instance,
    Point,
    Scalar,
    _as_point,
    _clip_ring,
    _erosion_halfplanes,
    _float_quotients,
    _nearest_on_ring,
    _segment_costs,
    _segment_point,
    erode_polygon,
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
    """A float at least x; infinite, and so pruning nothing, past float range."""
    try:
        return float(x) * (1 + 1e-9) + 1e-12
    except OverflowError:
        return math.inf


def _certified_lower(x: _np.ndarray) -> _np.ndarray:
    return x * (1 - 1e-9) - 1e-12


def _box_dist2(boxes: tuple[_np.ndarray, ...], x, y) -> _np.ndarray:
    """Squared float distance from (x, y) to each box (x0, y0, x1, y1)."""
    x0, y0, x1, y1 = boxes
    dx = _np.maximum(x0 - x, x - x1)
    dy = _np.maximum(y0 - y, y - y1)
    _np.maximum(dx, 0.0, out=dx)
    _np.maximum(dy, 0.0, out=dy)
    with _np.errstate(over="ignore"):  # an infinite distance is still a lower bound
        dx *= dx
        dy *= dy
        dx += dy
    return dx


def _cell_boxes(arr) -> tuple[_np.ndarray, ...] | None:
    """Each cell's float bounding box, padded to hold the exact one; None past float range."""
    try:
        bounds = arr.cell_bounds_float()
    except OverflowError:
        return None
    pad = 1e-7 * (float(_np.abs(bounds).max()) + 1.0)
    return bounds[:, 0] - pad, bounds[:, 1] - pad, bounds[:, 2] + pad, bounds[:, 3] + pad


def _window(x0: Scalar, y0: Scalar, x1: Scalar, y1: Scalar) -> tuple[int, int, int, int]:
    """The least integer box holding [x0, x1] x [y0, y1] with sides at least 1 long."""
    ix0, iy0 = math.floor(x0), math.floor(y0)
    return ix0, iy0, max(math.ceil(x1), ix0 + 1), max(math.ceil(y1), iy0 + 1)


def _merged(boxes: list[tuple[int, int, int, int]]) -> list[tuple[int, int, int, int]]:
    """The boxes with every two that meet, as closed boxes, replaced by their bounding box."""
    out: list[tuple[int, int, int, int]] = []
    for box in boxes:
        while True:
            hit = next(
                (o for o in out if o[0] <= box[2] and box[0] <= o[2] and o[1] <= box[3] and box[1] <= o[3]),
                None,
            )
            if hit is None:
                break
            out.remove(hit)
            box = (min(box[0], hit[0]), min(box[1], hit[1]), max(box[2], hit[2]), max(box[3], hit[3]))
        out.append(box)
    return sorted(out)


def _optimizer_windows(inst: Instance, upper: Scalar) -> list[tuple[int, int, int, int]]:
    """Disjoint integer windows holding every translation of value at most ``upper``.

    Such a t lies within sqrt(upper) <= r, r the least integer with r^2 >=
    upper, of some anchor q_b of every b, and then |q_b0 - q_b|^2 <= 4 upper.
    So for any b0 it lies in the box s +- r of an anchor s = q_b0, cut for
    every b by the bounding box, grown by r, of the anchors of b within
    2 sqrt(upper) of s; an s with no such anchor for some b is dropped. The
    b0 whose merged windows have the least total area is kept.
    """
    M, rows = inst.int_anchors
    upper = Fraction(upper)
    ceil = math.ceil(upper)
    r = math.isqrt(ceil)
    R = (r + (r * r < ceil)) * M  # in the frame of rows, scaled by M
    near_num, near_den = 4 * upper.numerator * M * M, upper.denominator
    best = None
    for b0 in range(inst.k):
        boxes = []
        for sx, sy in rows[b0]:
            x0, y0, x1, y1 = sx - R, sy - R, sx + R, sy + R
            for row in rows:
                near = [
                    (qx, qy)
                    for qx, qy in row
                    if ((qx - sx) ** 2 + (qy - sy) ** 2) * near_den <= near_num
                ]
                if not near:
                    break
                xs, ys = zip(*near)
                x0, y0 = max(x0, min(xs) - R), max(y0, min(ys) - R)
                x1, y1 = min(x1, max(xs) + R), min(y1, max(ys) + R)
            else:
                boxes.append(_window(*(Fraction(v, M) for v in (x0, y0, x1, y1))))
        boxes = _merged(boxes)
        area = sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in boxes)
        if best is None or area < best[0]:
            best = (area, boxes)
    return best[1]


def optimal_translation(inst: Instance) -> tuple[Point, Matching, Scalar]:
    """Translation minimizing the bottleneck cost, with matching and value.

    The best value at any anchor is an upper bound U on the optimum, so every
    optimizer lies in the windows of ``_optimizer_windows`` for U; each
    window gets its own reduced arrangement. Within one closed cell the
    bottleneck value is the squared distance to the cell's site a - b, so the
    cell's best point is the cell's nearest point to that site:
    ``_nearest_on_ring`` finds it on the cell's ring of integer vertex
    triples, as the site itself when no edge has it on its outer side, and
    else as the best of the ring edges' nearest points, all from one
    ``_segment_costs`` call. Only cells that can hold an optimum get a site:
    the max-min bound max_b min_a |t - (a - b)|^2 never exceeds the
    bottleneck value, so a cell whose bounding box keeps that bound above U
    holds no optimizer. The lex core (``_lex_cell_labels``) gives the
    surviving cells their sites at once, as the longest edge of a
    lex-bottleneck matching at each cell's sample. The cells are scanned in
    order of a certified lower bound (site distance to the cell's bounding
    box) and the scan stops as soon as the bound exceeds the incumbent; exact
    ties are never pruned, and the smallest (x, y) optimizer over all
    windows wins. The returned matching is the walk's label of the winning
    cell (``_walk_labels`` over the window's surviving cells), folded along
    that cell's tree path alone (``_walk_label_of``). Past float range no
    float bound is taken: every cell survives, with a lower bound of 0, and
    the exact scan decides alone.
    """
    value_at_anchors = min(eval_E(inst, inst.anchor(e))[0] for e in inst.edges())
    upper = _certified_upper(value_at_anchors)
    M, anchors = inst.int_anchors
    try:  # int / int is correctly rounded, so axm / M == float(site.x)
        fsites = [[(axm / M, aym / M) for axm, aym in row] for row in anchors]
    except OverflowError:
        fsites = None
    best_val: Scalar | None = None
    best_t: Point | None = None
    best_cell = None  # (arrangement, bisectors, surviving cells, cell) of best_t
    best_hi = math.inf
    every = all_bisectors(inst)
    for window in _optimizer_windows(inst, value_at_anchors):
        bis, arr = reduced_arrangement(inst, window=window, bisectors=every)
        boxes = None if fsites is None else _cell_boxes(arr)
        # A cell survives when every b keeps min_a of its box bound within the
        # incumbent; each b only looks at the cells the earlier ones kept.
        alive = _np.arange(arr.n_cells)
        for row in fsites if boxes is not None else ():
            kept = tuple(side[alive] for side in boxes)
            nearest = _np.full(len(alive), _np.inf)
            for x, y in row:
                _np.minimum(nearest, _box_dist2(kept, x, y), out=nearest)
            alive = alive[_certified_lower(nearest) <= upper]
        cells = alive.tolist()
        longest = [label.longest for label in _lex_cell_labels(inst, arr, alive)]
        lower = _np.zeros(len(cells))
        if boxes is not None:
            x, y = _np.array([fsites[e.b][e.a] for e in longest]).reshape(-1, 2).T
            lower = _certified_lower(_box_dist2(tuple(side[alive] for side in boxes), x, y))

        for i in map(int, _np.argsort(lower, kind="stable")):
            if lower[i] > best_hi:
                break
            cid = cells[i]
            ring = [arr.vertex_triple(v) for v in arr.cell_cycle(cid)]
            t, val = _nearest_on_ring(inst, longest[i], ring)
            if (
                best_val is None
                or val < best_val
                or (val == best_val and (t.x, t.y) < (best_t.x, best_t.y))
            ):
                best_val, best_t, best_cell = val, t, (arr, bis, cells, cid)
                best_hi = _certified_upper(val)
    if best_val is None or best_t is None or best_cell is None:
        raise ContractViolation("no cell can hold the optimum")
    best_mu = _walk_label_of(inst, *best_cell).matching
    if max(best_t.dist2(inst.anchor(e)) for e in best_mu) != best_val:
        raise ContractViolation("the cell's matching does not attain its value")
    return best_t, best_mu, best_val


# -- bottleneck path --------------------------------------------------------------


def _dense_ranks(num: _np.ndarray, den: _np.ndarray) -> _np.ndarray:
    """Dense ranks of the exact values num / den, den > 0: equal values, equal ranks.

    The float key (``_float_quotients``) is weakly monotone in the exact
    value and never passes float range, so it orders every two values it
    tells apart. Only runs of equal keys are settled exactly: every member
    is checked against its run's first in one vectorised step, and a run
    that does not tie throughout is sorted by cross-multiplication.
    """
    [key] = _float_quotients(den, num)
    order = _np.argsort(key, kind="stable")
    key = key[order]
    new = _np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    starts = _np.flatnonzero(new)
    run_of = _np.cumsum(new) - 1
    head = order[starts[run_of]]
    tie = num[order] * den[head] == num[head] * den[order]
    bounds = [*starts.tolist(), len(key)]
    by_value = functools.cmp_to_key(lambda i, j: num[i] * den[j] - num[j] * den[i])
    for r in sorted(set(run_of[~tie].tolist())):
        a, b = bounds[r], bounds[r + 1]
        run = sorted(order[a:b].tolist(), key=by_value)
        order[a:b] = run
        for pos, (i, j) in enumerate(zip(run, run[1:]), a + 1):
            new[pos] = num[i] * den[j] != num[j] * den[i]
    ranks = _np.empty(len(key), dtype=_np.int64)
    ranks[order] = _np.cumsum(new) - 1
    return ranks


def bottleneck_path(inst: Instance, t0: Point, t1: Point) -> PathResult:
    """Path between placements minimizing the worst bottleneck value en route.

    The matching at t0 bounds the value along the straight segment by
    v_straight, so an optimal path stays in the sublevel set {E <= v_straight}.
    ``_optimizer_windows`` covers that set with disjoint closed boxes, and a
    connected set inside them lies in one: the window that holds t0 holds the
    segment, t1 and every optimal path, and the arrangement is built there.
    One lex-core call (``_lex_cell_labels``) gives every window cell its site
    s, and on the closed cell the bottleneck value is |t - s|^2. Crossing an
    edge costs the minimum of that along the edge. E is continuous, so both
    cells beside an edge give it the same cost, and one pass
    (``_segment_costs``) costs every interior edge once, exactly.

    A minimax path depends only on the order of the edge costs, so the
    minimax Dijkstra over the dual graph (``Arrangement.dual_csr``) runs on
    their dense ranks (``_dense_ranks``): equal costs share a rank, so every
    comparison, and every tie broken by push order, is the one the exact
    costs would give. The start cells' key lies below every rank, as the
    value 0 does below or at every cost. Each edge walked back is crossed at
    its unique minimizer p, at lam along it, from the same cost pass. With s
    the site of the cell left and d the edge's direction, an exact
    first-order certificate checks (p - s).d >= 0 at lam = 0, <= 0 at
    lam = 1 and = 0 in between, and ``eval_E`` at p, in the closed cell,
    must equal the ranked cost: so that cost is the edge's least value.
    """
    e0, mu0 = eval_E(inst, t0)
    v_straight = max(e0, max(t1.dist2(inst.anchor(e)) for e in mu0))
    windows = [
        w
        for w in _optimizer_windows(inst, v_straight)
        if all(w[0] <= t.x <= w[2] and w[1] <= t.y <= w[3] for t in (t0, t1))
    ]
    if len(windows) != 1:
        raise ContractViolation("one window must hold both placements")
    arr = reduced_arrangement(inst, window=windows[0])[1]
    sites = [label.longest for label in _lex_cell_labels(inst, arr, range(arr.n_cells))]

    # every interior edge once, from the lower cell id beside it
    ptr, nbr, eid = arr.dual_csr()
    src = _np.repeat(_np.arange(arr.n_cells), _np.diff(ptr))
    below = src < nbr
    inner, left = eid[below], src[below].tolist()
    triples, (eu, ev) = arr.vertex_triples(), arr.edge_ends()
    s0, s1 = triples[eu[inner]], triples[ev[inner]]
    num, den, lnum, lden = _segment_costs(inst, [sites[c] for c in left], s0, s1)
    at = _np.zeros(arr.n_edges, dtype=_np.int64)  # interior edge -> its row of the cost pass
    at[inner] = _np.arange(len(inner))
    rank = memoryview(_dense_ranks(num, den)[at[eid]])  # per CSR entry
    ptr, nbr, eid = map(memoryview, (ptr, nbr, eid))

    seeds = arr.face_cells(arr.locate(t0))
    targets = set(arr.face_cells(arr.locate(t1)))

    dist: list[int | None] = [None] * arr.n_cells
    came: list[tuple[int, int] | None] = [None] * arr.n_cells  # parent, edge
    tick = count()
    heap = []
    for c in seeds:
        dist[c] = -1
        heapq.heappush(heap, (-1, next(tick), c))
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
        for i in range(ptr[c], ptr[c + 1]):
            n = nbr[i]
            if settled[n]:
                continue
            w = rank[i]
            nd = d if d >= w else w
            if dist[n] is None or nd < dist[n]:
                dist[n] = nd
                came[n] = (c, eid[i])
                heapq.heappush(heap, (nd, next(tick), n))
    if end_cell < 0:
        raise ContractViolation("dual cell graph is not connected")

    walked: list[tuple[Point, Scalar]] = []
    c = end_cell
    while came[c] is not None:
        c, e = came[c]
        j = at[e]
        u, v, lam = s0[j].tolist(), s1[j].tolist(), Fraction(lnum[j], lden[j])
        p = _segment_point(u, v, lnum[j], lden[j])
        # first order: |t - s|^2 grows from p along the edge, s the site of the cell left
        g = (p - inst.anchor(sites[c])).dot(_as_point(v) - _as_point(u))
        if not 0 <= lam <= 1 or (lam > 0 and g > 0) or (lam < 1 and g < 0):
            raise ContractViolation("a walked edge's crossing is not its least point")
        walked.append((p, Fraction(num[j], den[j])))
    # consecutive crossed edges can share their minimizer at a common vertex
    crossings: list[Point] = []
    for p, _w in reversed(walked):
        if p != (crossings[-1] if crossings else t0) and p != t1:
            crossings.append(p)
    polyline = (t0, *crossings, t1)
    vertex_values = (e0, *(eval_E(inst, p)[0] for p in crossings), eval_E(inst, t1)[0])
    value_at = dict(zip(polyline, vertex_values))
    if any(value_at[p] != w for p, w in walked):
        raise ContractViolation("a crossing's value is not the cost of its edge")
    return PathResult(polyline, max(vertex_values), vertex_values)


# -- cover radius -----------------------------------------------------------------

def cover_radius(inst: Instance, Q: ConvexPolygon) -> CoverResult | _Empty:
    """Worst bottleneck value over all translations keeping B inside Q.

    The admissible region is the erosion of Q by B, and the arrangement is
    built in the integer window around it. The bottleneck value is |t - s|^2
    on each closed cell, s its site from one ``_lex_cell_labels`` call, and
    strictly convex along any segment, so every maximizer over the region is
    a vertex of some cell-region overlay piece. Each cell's vertex ring is
    clipped by the erosion's own half-planes on exact integer triples (they
    cut out the region whatever its dimension), and each piece vertex is
    valued against its cell's site in integers. The largest value wins, ties
    to the smallest (x, y); ``eval_E`` must confirm the witness.
    """
    region = erode_polygon(Q, inst.B)
    if region is None:
        return Empty
    xs = [v.x for v in region.vertices]
    ys = [v.y for v in region.vertices]
    window = _window(min(xs), min(ys), max(xs), max(ys))
    # The diagram's walk labels are never read, so they are never computed.
    arr = build_diagram(inst, window=window).arrangement

    halfplanes = _erosion_halfplanes(Q, inst.B)
    pieces: dict[int, list[tuple[int, int, int]]] = {}
    for cid in range(arr.n_cells):
        piece = [arr.vertex_triple(v) for v in arr.cell_cycle(cid)]
        for halfplane in halfplanes:
            piece = _clip_ring(piece, halfplane)
            if not piece:
                break
        if piece:
            pieces[cid] = piece
    if not pieces:
        raise ContractViolation("region does not meet the arrangement")

    # p = (X/W, Y/W) and s = s_M / M give |p - s|^2 = |p_M - s_M W|^2 / (W M)^2,
    # p_M = (X M, Y M); values and points compare by cross-multiplication, W > 0
    M, rows = inst.int_anchors
    best = (-1, 1, 0, 0, 1)  # (num, den, X, Y, W): value num / den at (X/W, Y/W)
    for piece, label in zip(pieces.values(), _lex_cell_labels(inst, arr, list(pieces))):
        sx, sy = rows[label.longest.b][label.longest.a]
        for X, Y, W in piece:
            num, den = (X * M - sx * W) ** 2 + (Y * M - sy * W) ** 2, (W * M) ** 2
            lhs, rhs = num * best[1], best[0] * den
            if lhs > rhs or (lhs == rhs and (X * best[4], Y * best[4]) < (best[2] * W, best[3] * W)):
                best = (num, den, X, Y, W)
    value, witness = Fraction(best[0], best[1]), _as_point(best[2:])
    if eval_E(inst, witness)[0] != value:
        raise ContractViolation("the witness does not attain the cover value")
    return CoverResult(value, witness, region)
