"""Bisectors, the used-line reduction, and an exact clipped line arrangement.

Translation space is subdivided by the perpendicular bisectors of pairs of
alignment translations a - b. Only bisectors that can support an order-k
candidate-set change are kept, a sound superset over the whole line or over
its chord in a window: one exact array pass counts each tie's sites at the
chord's ends, and a sweep settles the few ties those counts leave open. The
survivors are clipped to an adaptive integer bounding box, or to the window,
and assembled into a DCEL with exact homogeneous integer vertices, per-cell
convex polygons, and a dual cell-adjacency graph.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as _np

from .geom import (
    ContractViolation,
    ConvexPolygon,
    EdgeRef,
    Instance,
    Line,
    Point,
    _as_point,
    _float_quotients,
    _ring_polygon,
    bisector_line,
    homogeneous,
)


class OutsideBox(Exception):
    """Query point lies outside the arrangement's bounding box."""


@dataclass(frozen=True)
class Bisector:
    """A bisector line with every edge pair ``(e1, e2)`` that ties along it."""

    line: Line
    edge_pairs: tuple[tuple[EdgeRef, EdgeRef], ...]


def all_bisectors(inst: Instance) -> list[Bisector]:
    """One Bisector per distinct line over all non-equivalent edge pairs."""
    groups: dict[Line, list[tuple[EdgeRef, EdgeRef]]] = {}
    edges = list(inst.edges())
    for i, e1 in enumerate(edges):
        for e2 in edges[i + 1 :]:
            line = bisector_line(inst, e1, e2)
            if line is None:
                continue
            groups.setdefault(line, []).append((e1, e2))
    return [
        Bisector(line, tuple(sorted(groups[line])))
        for line in sorted(groups)
    ]


def _cmp_theta(p: tuple[int, int], q: tuple[int, int]) -> int:
    """Order thresholds (num, den), den > 0, by cross-multiplication."""
    lhs, rhs = p[0] * q[1], q[0] * p[1]
    return (lhs > rhs) - (lhs < rhs)


_THETA_KEY = functools.cmp_to_key(_cmp_theta)


def _lam(triple: tuple[int, int, int], d: tuple[int, int]) -> tuple[int, int]:
    """Parameter d . (x, y) of a homogeneous point along direction d, as (num, den)."""
    x, y, w = triple
    return d[0] * x + d[1] * y, w


def _min_coverage(
    always: int,
    less: list[tuple[int, int]],
    greater: list[tuple[int, int]],
    stop_at: int,
) -> int:
    """Minimum over the line parameter of how many half-line constraints hold.

    ``less`` holds thresholds of open conditions "lam < theta", ``greater``
    of "lam > theta", each theta a fraction (num, den) in lowest terms with
    den > 0; ``always`` counts parameter-free ones. Early exit once the
    minimum reaches ``stop_at``.
    """
    best = always + len(less)
    if best <= stop_at:
        return best
    thetas = sorted(set(less) | set(greater), key=_THETA_KEY)
    n_less: dict[tuple[int, int], int] = {}
    for th in less:
        n_less[th] = n_less.get(th, 0) + 1
    n_greater: dict[tuple[int, int], int] = {}
    for th in greater:
        n_greater[th] = n_greater.get(th, 0) + 1
    active_less = len(less)
    active_greater = 0
    for th in thetas:
        active_less -= n_less.get(th, 0)
        best = min(best, always + active_less + active_greater)
        active_greater += n_greater.get(th, 0)
        best = min(best, always + active_less + active_greater)
        if best <= stop_at:
            return best
    return best


# (row, site) entries per chunk of the bisector reduction: each chunk holds
# two value arrays and a few masks of this size at once
_REDUCTION_CHUNK = 1 << 16
_REDUCTION_LIMIT = 1 << 62  # largest bound on the reduction's values kept in int64


def _reduction_dtype(
    trips: _np.ndarray, M: int, S: int, window: tuple[int, int, int, int] | None
):
    """int64 while no value ``used_bisectors`` forms can pass ``_REDUCTION_LIMIT``, else object.

    With a the largest |A| or |B| and c the largest |C| of a line, S the
    largest |anchor coordinate| and V the largest |window coordinate| (0 on
    the whole line): a chord end is a quotient with numerator at most
    M (a V + c) and denominator at most a^2, a site's const is a sum of
    terms of total at most 4 c M S + 4 a S^2 and its coef one of total at
    most 8 a^2 S. So f at a chord end, every partial sum of it and every
    product of the chord test stay within the bound below.
    """
    a, c = (max(int(v.max()), -int(v.min())) for v in (trips[:, :2], trips[:, 2]))
    V = 0 if window is None else max(map(abs, window))
    S = max(S, 1)
    bound = a * a * (4 * c * M * S + 4 * a * S * S) + 8 * M * (a * V + c) * a * a * S
    return _np.int64 if bound <= _REDUCTION_LIMIT else object


def _chords(A, B, C, W0, X0, Y0, M: int, window: tuple[int, int, int, int]):
    """The lines that cross the open ``window``, and their chords in it.

    A line crosses when the window's corners lie strictly on both sides of
    it. Returns the crossing lines' ids and a (4, lines) array of rows
    (ln, ld, hn, hd): line i's chord is the closed interval of lam from
    ln/ld to hn/hd, ld, hd > 0, on the line walked as in ``used_bisectors``.
    """
    x0, y0, x1, y1 = (v * M for v in window)
    sides = [A * x + B * y - C * M for x in (x0, x1) for y in (y0, y1)]
    low = functools.reduce(_np.minimum, sides)
    high = functools.reduce(_np.maximum, sides)
    lines = _np.flatnonzero((low < 0) & (high > 0))
    A, B, W0, X0, Y0 = (v[lines] for v in (A, B, W0, X0, Y0))
    # x = X0/W0 + lam*B lies in [x0, x1] between lam = (x0*W0 - X0)/(W0*B) and (x1*W0 - X0)/(W0*B)
    up = B > 0
    xl = _np.where(up, x0 * W0 - X0, X0 - x1 * W0)
    xh = _np.where(up, x1 * W0 - X0, X0 - x0 * W0)
    xd = W0 * abs(B)
    # y = Y0/W0 - lam*A, and A >= 0
    yl, yh, yd = Y0 - y1 * W0, Y0 - y0 * W0, W0 * A
    # the chord is where both hold; a line parallel to an axis meets one pair of sides
    x_lo = (A == 0) | ((B != 0) & (xl * yd >= yl * xd))
    x_hi = (A == 0) | ((B != 0) & (xh * yd <= yh * xd))
    ends = _np.stack(
        [_np.where(x_lo, xl, yl), _np.where(x_lo, xd, yd), _np.where(x_hi, xh, yh), _np.where(x_hi, xd, yd)]
    )
    return lines, ends


def _end_flags(first: _np.ndarray, second: _np.ndarray, windowed: bool):
    """Which sites each row counts at the low and at the high end of its chord.

    On a chord, ``first`` and ``second`` are f at lo and at hi. On the whole
    line they are const and coef, and the ends are lam -> -inf and +inf,
    where a site with coef = 0 counts at both ends when const < 0.
    """
    if windowed:
        return first < 0, second < 0
    flat = (second == 0) & (first < 0)
    return (second > 0) | flat, (second < 0) | flat


def _block_chunks(h_block: _np.ndarray, k: int, n: int) -> Iterator[tuple[int, _np.ndarray]]:
    """(block, half-row ids): each block's half rows, ``_REDUCTION_CHUNK`` entries at a time."""
    order = _np.argsort(h_block, kind="stable")
    bounds = _np.searchsorted(h_block[order], _np.arange(k + 1)).tolist()
    step = max(1, _REDUCTION_CHUNK // n)
    for b in range(k):
        for lo in range(bounds[b], bounds[b + 1], step):
            yield b, order[lo : min(lo + step, bounds[b + 1])]


def used_bisectors(
    inst: Instance,
    bisectors: Sequence[Bisector],
    window: tuple[int, int, int, int] | None = None,
) -> list[Bisector]:
    """Filter to bisectors that can border a candidate-set change.

    A sound superset of the lines the labeled diagram needs: dropping the
    rest merges only cells whose candidate structure agrees. With an integer
    ``window`` (x0, y0, x1, y1) only lines crossing the open window are kept,
    and each is tested on its chord there: sound for the labels inside the
    window, and a subset of the lines kept without it.

    A line is kept when one of its edge pairs (e1, e2), anchors p and q, can
    sit at a candidate-set boundary somewhere on the line (or its chord):
    the open disk centred there through p and q holds at most k - 1 of
    A - b for a same-b pair, at most 2k - 2 of the merged (A - b) u (A - b')
    for a differing pair. In the integer frame of ``inst.int_anchors``
    (coordinates scaled by M) the line with primitive triple (A, B, C) reads
    A*X + B*Y = C*M. It is walked as T0 + lam*(B, -A) from the homogeneous
    base T0 = (X0/W0, Y0/W0), W0 > 0, and the disk holds site s where
    f_s(lam) = W0 (|T - s|^2 - |T - p|^2) = const + lam * coef is negative.

    Every (line, pair) is one row, its sites the columns, in one exact
    array pass over chunks of ``_REDUCTION_CHUNK`` entries: each block of a
    row (its A - b, then A - b' with the sites repeated from A - b masked)
    is a half row, and f at a chord end is one product of a per-row form
    with per-site features (1, s_x, s_y, |s|^2). p and q need no mask: the
    line is their bisector, so f_p and f_q are 0 and never negative. Per
    row three counts follow: the sites held at lo, at hi and at both ends.
    f is affine, so a site held at both ends is held on the whole closed
    chord, and the minimum over the chord lies between the both-ends count
    and the smaller end count. A row whose both-ends count passes its
    threshold is dropped, one whose lo or hi count is within it is kept,
    and only the rest run the ``_min_coverage`` sweep, on their one-end
    sites, whose thresholds -const/coef lie on the chord. Values are int64
    within ``_reduction_dtype``'s bound and Python ints beyond it, with the
    same statements.
    """
    M, anchors = inst.int_anchors
    k, n = inst.k, inst.n
    trips = [bi.line.primitive_triple() for bi in bisectors]
    if not trips:
        return []
    try:
        coefs = _np.array(trips, dtype=_np.int64)
    except OverflowError:
        coefs = _np.array(trips, dtype=object)
    dtype = _reduction_dtype(coefs, M, max(abs(v) for row in anchors for s in row for v in s), window)
    A, B, C = coefs.astype(dtype, copy=False).T
    on_x = A != 0  # base point on the x-axis, else on the y-axis
    W0 = _np.where(on_x, A, B)
    X0 = _np.where(on_x, C * M, 0)
    Y0 = _np.where(on_x, 0, C * M)
    if window is None:
        lines = _np.arange(len(trips))
    else:
        lines, ends = _chords(A, B, C, W0, X0, Y0, M, window)
    rows = _np.array(
        [(l, e1.a, e1.b, e2.b) for l in lines.tolist() for e1, e2 in bisectors[l].edge_pairs],
        dtype=_np.int64,
    ).reshape(-1, 4)
    if not len(rows):
        return []
    line, a1, b1, b2 = rows.T

    # per row, coef and const as forms over the site features (1, s_x, s_y, |s|^2)
    sx = _np.array([[x for x, _ in row] for row in anchors], dtype=dtype)
    sy = _np.array([[y for _, y in row] for row in anchors], dtype=dtype)
    s2 = _np.array(inst.anchor_norms, dtype=dtype)
    features = _np.stack([_np.ones_like(sx), sx, sy, s2], axis=1)  # (k, 4, n)
    px, py, p2 = sx[b1, a1], sy[b1, a1], s2[b1, a1]
    Al, Bl, Wl, Xl, Yl = A[line], B[line], W0[line], X0[line], Y0[line]
    zero = _np.zeros_like(Wl)
    coef = _np.stack([2 * Wl * (Bl * px - Al * py), -2 * Wl * Bl, 2 * Wl * Al, zero], axis=1)
    const = _np.stack([2 * (Xl * px + Yl * py) - Wl * p2, -2 * Xl, -2 * Yl, Wl], axis=1)
    if window is None:
        first, second = const, coef
    else:
        # f at a chord end num/den, times den
        ln, ld, hn, hd = (v[:, None] for v in ends[:, _np.searchsorted(lines, line)])
        first, second = ld * const + ln * coef, hd * const + hn * coef

    # half rows: every row's A - b1, then each differing row's A - b2, where
    # repeated[b1, b2] masks the sites that A - b1 holds already
    homes: dict[tuple[int, int], list[tuple[int, int]]] = {}  # site -> its (b, a)
    for b, row in enumerate(anchors):
        for a, s in enumerate(row):
            homes.setdefault(s, []).append((b, a))
    repeated = _np.zeros((k, k, n), dtype=bool)
    for occ in homes.values():
        for b, _ in occ:
            for b_, a in occ:
                repeated[b, b_, a] = b != b_
    second_half = _np.flatnonzero(b1 != b2)
    h_row = _np.concatenate([_np.arange(len(rows)), second_half])
    h_block = _np.concatenate([b1, b2[second_half]])

    def held(b: int, h: _np.ndarray):
        """The sites held at lo and at hi by half rows ``h`` of block b, repeats masked."""
        r = h_row[h]
        at_lo, at_hi = _end_flags(first[r] @ features[b], second[r] @ features[b], window is not None)
        fresh = ~repeated[b1[r], b]
        return r, at_lo & fresh, at_hi & fresh

    counts = _np.zeros((3, len(rows)), dtype=_np.int64)  # held at lo, at hi, at both ends
    for b, h in _block_chunks(h_block, k, n):
        r, at_lo, at_hi = held(b, h)
        # a row has at most one half per block, so r holds no repeat
        counts[:, r] += _np.stack([at_lo.sum(1), at_hi.sum(1), (at_lo & at_hi).sum(1)])
    at_lo, at_hi, both = counts
    threshold = _np.where(b1 == b2, k - 1, 2 * k - 2)
    live = both <= threshold
    settled = live & (_np.minimum(at_lo, at_hi) <= threshold)
    kept = _np.zeros(len(trips), dtype=bool)
    kept[line[settled]] = True

    # the rows left open, on lines no settled row keeps, are swept
    open_rows = live & ~settled & ~kept[line]
    if open_rows.any():
        cuts: dict[int, tuple[list, list]] = {r: ([], []) for r in _np.flatnonzero(open_rows).tolist()}
        # the other rows' half rows go to block k, which no chunk reads
        for b, h in _block_chunks(_np.where(open_rows[h_row], h_block, k), k, n):
            r, lo_held, hi_held = held(b, h)
            h_, s = _np.nonzero(lo_held ^ hi_held)  # held at one end only: coef != 0
            cf = (coef[r[h_]] * features[b][:, s].T).sum(1)
            cs = (const[r[h_]] * features[b][:, s].T).sum(1)
            g = _np.gcd(cs, cf)
            g = _np.where(cf > 0, g, -g)
            # -const/coef in lowest terms: held for lam below it if coef > 0, else above it
            theta = zip((-cs // g).tolist(), (cf // g).tolist())
            for row, th, up in zip(r[h_].tolist(), theta, (cf < 0).tolist()):
                cuts[row][up].append(th)
        for r, (less, greater) in cuts.items():
            if kept[line[r]]:
                continue
            low = _min_coverage(int(both[r]), less, greater, int(threshold[r]))
            if not both[r] <= low <= min(at_lo[r], at_hi[r]):
                raise ContractViolation("a swept minimum lies outside its end counts")
            if low <= threshold[r]:
                kept[line[r]] = True
    return [bi for bi, keep in zip(bisectors, kept.tolist()) if keep]


# ---------------------------------------------------------------------------
# Clipped arrangement


# Largest |line coefficient| held in int64 arrays; larger ones use Python ints.
# All intermediate products are then bounded by 2*C*(2*C**2 + 4) < 2**63.
_COEF_LIMIT = 1 << 20
_SAMPLE_LIMIT = 1 << 62  # largest bound on face-sample arithmetic kept in int64

_BOTTOM = 2  # box sides follow the input lines: left, right, bottom, top


class FaceRef(NamedTuple):
    """Reference to an arrangement face: dim 0 vertex, 1 edge, 2 cell."""

    dim: int
    index: int


def _reduced_direction(a: int, b: int) -> tuple[int, int]:
    dx, dy = b, -a
    g = math.gcd(abs(dx), abs(dy))
    return dx // g, dy // g


def _angular_ranks(dirs: list[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """Rank distinct primitive directions by ccw angle from the +x axis."""

    def cmp(d1: tuple[int, int], d2: tuple[int, int]) -> int:
        h1 = 0 if (d1[1] > 0 or (d1[1] == 0 and d1[0] > 0)) else 1
        h2 = 0 if (d2[1] > 0 or (d2[1] == 0 and d2[0] > 0)) else 1
        if h1 != h2:
            return h1 - h2
        cr = d1[0] * d2[1] - d1[1] * d2[0]
        return 0 if cr == 0 else (-1 if cr > 0 else 1)

    distinct = sorted(set(dirs), key=functools.cmp_to_key(cmp))
    return {d: i for i, d in enumerate(distinct)}


def _box_from_candidates(
    crossing_bounds: tuple[int, int, int, int] | None,
    extras: Sequence[Point],
    trip_set: set[tuple[int, int, int]],
) -> tuple[int, int, int, int]:
    """Integer box strictly containing all candidates with margin >= 1.

    Sides are nudged outward until none coincides with an input line.
    """
    xs = [v for p in extras for v in (math.floor(p.x), math.ceil(p.x))]
    ys = [v for p in extras for v in (math.floor(p.y), math.ceil(p.y))]
    if crossing_bounds is not None:
        xs += crossing_bounds[:2]
        ys += crossing_bounds[2:]
    x0, x1 = min(xs, default=0) - 1, max(xs, default=0) + 1
    y0, y1 = min(ys, default=0) - 1, max(ys, default=0) + 1
    while (1, 0, x0) in trip_set:
        x0 -= 1
    while (1, 0, x1) in trip_set:
        x1 += 1
    while (0, 1, y0) in trip_set:
        y0 -= 1
    while (0, 1, y1) in trip_set:
        y1 += 1
    return x0, y0, x1, y1


def _side_triples(box: tuple[int, int, int, int]) -> list[tuple[int, int, int]]:
    """The box sides as line triples, in line order: left, right, bottom, top."""
    x0, y0, x1, y1 = box
    return [(1, 0, x0), (1, 0, x1), (0, 1, y0), (0, 1, y1)]


def _crossings(al, be, ga, I, J):
    """Reduced homogeneous crossings (x, y, w), w > 0, of lines I[k] and J[k].

    Lines are a*x + b*y = c with coefficient arrays (al, be, ga); parallel
    pairs are dropped. Returns x, y, w, I, J.
    """
    x = ga[I] * be[J] - ga[J] * be[I]
    y = ga[J] * al[I] - ga[I] * al[J]
    w = al[I] * be[J] - al[J] * be[I]
    m = w != 0
    x, y, w, I, J = x[m], y[m], w[m], I[m], J[m]
    neg = w < 0
    x = _np.where(neg, -x, x)
    y = _np.where(neg, -y, y)
    w = _np.where(neg, -w, w)
    if x.size:
        g = _np.gcd(_np.gcd(_np.abs(x), _np.abs(y)), w)
        x //= g
        y //= g
        w //= g
    return x, y, w, I, J


def _floor_ceil(x, y, w):
    """Floor and ceiling of x / w and y / w, which cannot overflow."""
    return x // w, -((-x) // w), y // w, -((-y) // w)


def _in_box(box, x, y, w, I, J):
    """The crossings inside the closed box."""
    fx, cx, fy, cy = _floor_ceil(x, y, w)
    m = (fx >= box[0]) & (cx <= box[2]) & (fy >= box[1]) & (cy <= box[3])
    return x[m], y[m], w[m], I[m], J[m]


def _midpoint(p, q):
    """Midpoints of homogeneous triples given as (x, y, w) columns, not reduced."""
    (xp, yp, wp), (xq, yq, wq) = p, q
    return xp * wq + xq * wp, yp * wq + yq * wp, 2 * wp * wq


def _reduced_rows(x, y, w):
    """(x, y, w) columns as rows of triples in lowest terms."""
    g = _np.gcd(_np.gcd(x, y), w)
    return _np.stack([x // g, y // g, w // g], axis=1)


def _int_dtype(coef: int):
    """int64 for coefficients within ``_COEF_LIMIT``, else Python ints."""
    return _np.int64 if coef <= _COEF_LIMIT else object


def _geometry(
    trips: list[tuple[int, int, int]],
    dirs_all: list[tuple[int, int]],
    extras: Sequence[Point],
    window: tuple[int, int, int, int] | None,
):
    """Exact vertices and per-line vertex order of the clipped arrangement.

    The box is ``window`` when given; otherwise it is the box of
    ``_box_from_candidates`` around every crossing and the ``extras``. The
    four box sides then join the input lines as primitive triples, and every
    vertex, whether two lines, a line and a side, or two sides cross there,
    comes from ``_crossings`` and is kept by ``_in_box`` inside the closed
    box. Each input line must keep two box points, the ends of its chord.

    One code path for both integer widths: the numpy statements run on int64
    arrays while the coefficients stay within ``_COEF_LIMIT`` and the box
    within the int64 bound, and on object arrays of Python ints otherwise.

    Each line's vertices are ordered by the float key lam = dx*fx + dy*fy,
    with (dx, dy) the line's direction and (fx, fy) the vertex in floats,
    then every float-ambiguous run is re-sorted by the exact key. The key
    only prefilters and never inverts the exact order. On Python ints,
    x / w is correctly rounded, so fx and fy are monotone in the exact
    coordinates. Along the line dx*x and dy*y are each monotone, and
    rounding keeps each product and their sum weakly monotone, so a strict
    exact order can at worst become a float tie, which the repair resolves.
    On int64, ``_COEF_LIMIT`` keeps the crossing coordinates below 2**53,
    where the conversion to float is exact and the same argument holds.
    Past float range, ``_float_quotients``' shared powers of two keep every
    vertex and direction, and so every key, finite and in order.

    Returns (vertices, row_line, row_vid, box): the distinct
    vertex triples sorted by (x, y, w), and the line-major rows of
    (line id, vertex id) in order along each line, box sides after the
    input lines.
    """
    L = len(trips)
    coef = max((abs(v) for t in trips for v in t), default=0)
    dtype = _int_dtype(coef)
    coefs = _np.array(trips, dtype=dtype).reshape(-1, 3)
    x, y, w, I, J = _crossings(*coefs.T, *_np.triu_indices(L, 1))
    if window is not None:
        box = window
    else:
        fx, cx, fy, cy = _floor_ceil(x, y, w)
        bounds = (int(fx.min()), int(cx.max()), int(fy.min()), int(cy.max())) if x.size else None
        box = _box_from_candidates(bounds, extras, set(trips))
    lines = _in_box(box, x, y, w, I, J)
    if max(abs(v) for v in box) * max(1, coef) >= 1 << 61:
        dtype = object  # side crossings would overflow int64
    # the box sides are four more lines: every pair with a side gives the
    # chord ends and the corners
    coefs = _np.concatenate([coefs.astype(dtype), _np.array(_side_triples(box), dtype=dtype)])
    I, s = _np.nonzero(_np.arange(L + 4)[:, None] < L + _np.arange(4))
    sides = _in_box(box, *_crossings(*coefs.T, I, L + s))
    # on object sides, concatenate turns the int64 crossings into Python ints
    x, y, w, I, J = (_np.concatenate(pair) for pair in zip(lines, sides))
    allt = _np.stack([x, y, w], axis=1)
    # distinct rows in (x, y, w) order; np.unique(axis=0) refuses object arrays
    by_xyw = _np.lexsort((w, y, x))
    rows = allt[by_xyw]
    first = _np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    uniq = rows[first]
    inv = _np.empty(len(rows), dtype=_np.int64)
    inv[by_xyw] = _np.cumsum(first) - 1
    row_line = _np.concatenate([I, J])
    row_vid = _np.concatenate([inv, inv])
    fx, fy = _float_quotients(uniq[:, 2], uniq[:, 0], uniq[:, 1])
    dirs = _np.array(dirs_all, dtype=object)
    dxf, dyf = _float_quotients(_np.ones(len(dirs), dtype=object), dirs[:, 0], dirs[:, 1])
    lam = dxf[row_line] * fx[row_vid] + dyf[row_line] * fy[row_vid]
    order = _np.lexsort((lam, row_line))
    row_line = row_line[order]
    row_vid = row_vid[order]
    lam = lam[order]
    # repair float-ambiguous runs with exact comparisons
    same = row_line[1:] == row_line[:-1]
    tol = 1e-9 * _np.maximum(1.0, _np.maximum(_np.abs(lam[1:]), _np.abs(lam[:-1])))
    amb = same & (lam[1:] - lam[:-1] <= tol)
    # row i is ambiguous with row i + 1; a run of them is one float cluster
    idx = _np.flatnonzero(amb)
    run_first = idx[_np.diff(idx, prepend=-2) != 1]
    run_last = idx[_np.diff(idx, append=-2) != 1] + 1
    # a run whose rows all name one vertex (concurrent lines, listed once per
    # line through it) needs no repair
    changes = _np.zeros(len(row_vid), dtype=_np.int64)
    _np.cumsum(row_vid[1:] != row_vid[:-1], out=changes[1:])
    mixed = changes[run_last] != changes[run_first]
    for a, b in zip(run_first[mixed].tolist(), run_last[mixed].tolist()):  # rows a..b inclusive
        vids = row_vid[a : b + 1].tolist()
        d = dirs_all[int(row_line[a])]
        vids.sort(key=lambda v: _THETA_KEY(_lam(uniq[v].tolist(), d)))
        row_vid[a : b + 1] = vids
    dup = (row_line[1:] == row_line[:-1]) & (row_vid[1:] == row_vid[:-1])
    keep = _np.ones(len(row_line), dtype=bool)
    keep[1:][dup] = False
    row_line = row_line[keep]
    row_vid = row_vid[keep]
    if (_np.bincount(row_line, minlength=L + 4) < 2).any():
        raise ContractViolation("every line must cross the box in a chord")
    return uniq, row_line, row_vid, box


def _readonly(a: _np.ndarray) -> _np.ndarray:
    """A read-only view of ``a``: shares its memory, copies nothing."""
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False, repr=False)
class Arrangement:
    """Immutable clipped line arrangement with dual cell graph.

    Vertices are exact homogeneous integer triples (x, y, w), w > 0. Edge ids
    are grouped line-major in parameter order; box sides come after the input
    lines. Cells are the bounded faces in deterministic discovery order.
    Half-edge 2e runs along edge e's line direction, 2e + 1 against it.
    """

    lines: tuple[Line, ...]
    box: tuple[int, int, int, int]
    dirs_all: list[tuple[int, int]]  # per line, box sides last
    _trips_all: list[tuple[int, int, int]]
    _uniq: _np.ndarray  # (V, 3) vertex triples sorted by (x, y, w), int64 or object
    _eu: _np.ndarray  # edge -> start vertex
    _ev: _np.ndarray  # edge -> end vertex
    _eline: _np.ndarray  # edge -> line
    _nxt: _np.ndarray  # half-edge -> next half-edge around its face
    _face: _np.ndarray  # half-edge -> face
    _cell_start_he: _np.ndarray  # cell -> first half-edge of its face cycle
    _cell_of_face: _np.ndarray  # face -> cell, -1 for the outer face
    _adj_ptr: _np.ndarray  # dual graph in CSR form
    _adj_nbr: _np.ndarray
    _adj_eid: _np.ndarray
    _poly_cache: dict[int, ConvexPolygon] = field(default_factory=dict, init=False)

    # --- counts ---------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self._uniq)

    @property
    def n_edges(self) -> int:
        return len(self._eu)

    @property
    def n_cells(self) -> int:
        return len(self._cell_start_he)

    @property
    def n_lines(self) -> int:
        """Number of input lines (box sides excluded)."""
        return len(self.lines)

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_cells + 1

    # --- vertices -------------------------------------------------------

    def vertex_triple(self, vid: int) -> tuple[int, int, int]:
        return tuple(self._uniq[vid].tolist())

    def vertex_triples(self) -> _np.ndarray:
        """Every vertex triple as one read-only (V, 3) view, int64 or object."""
        return _readonly(self._uniq)

    def vertex_point(self, vid: int) -> Point:
        return _as_point(self.vertex_triple(vid))

    def _find_vertex(self, x: int, y: int, w: int) -> int | None:
        key = (x, y, w)  # vertices are sorted by (x, y, w)
        i = bisect.bisect_left(range(self.n_vertices), key, key=self.vertex_triple)
        return i if i < self.n_vertices and self.vertex_triple(i) == key else None

    # --- edges ----------------------------------------------------------

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        return int(self._eu[eid]), int(self._ev[eid])

    def edge_ends(self) -> tuple[_np.ndarray, _np.ndarray]:
        """``edge_endpoints`` of every edge as two read-only views: start and end vertex ids."""
        return _readonly(self._eu), _readonly(self._ev)

    def edge_line(self, eid: int) -> int:
        """Index of the edge's line; box sides come after the input lines."""
        return int(self._eline[eid])

    def is_boundary_edge(self, eid: int) -> bool:
        return int(self._eline[eid]) >= self.n_lines

    # --- cells ----------------------------------------------------------

    def _cell_hes(self, cid: int) -> list[int]:
        h0 = int(self._cell_start_he[cid])
        out = [h0]
        h = int(self._nxt[h0])
        while h != h0:
            out.append(h)
            h = int(self._nxt[h])
        return out

    def cell_cycle(self, cid: int) -> list[int]:
        """Vertex ids around the cell, ccw; the cell turns strictly at each."""
        return [int(self._he_origin(h)) for h in self._cell_hes(cid)]

    def _he_origin(self, h: int) -> int:
        e, odd = divmod(h, 2)
        return int(self._ev[e]) if odd else int(self._eu[e])

    def cell_polygon(self, cid: int) -> ConvexPolygon:
        """The cell's corners, ccw from its lex-min vertex.

        The cycle is already a strictly convex ccw ring of exact homogeneous
        triples, which ``geom`` turns into its corners.
        """
        poly = self._poly_cache.get(cid)
        if poly is None:
            poly = _ring_polygon([self.vertex_triple(v) for v in self.cell_cycle(cid)])
            if poly is None or poly.dim < 2:
                raise ContractViolation("cells are full-dimensional")
            self._poly_cache[cid] = poly
        return poly

    def cell_centroid(self, cid: int) -> Point:
        """The cell's sample as a Point: interior, though not the centroid."""
        return self.face_sample(FaceRef(2, cid))

    def face_sample_triple(self, ref: FaceRef) -> tuple[int, int, int]:
        """Exact relative-interior sample as a homogeneous integer triple.

        It is the face's row of ``face_samples()``. A cell's row is read from
        the cell block alone, so a caller that samples only cells never pays
        for the edge and vertex rows.
        """
        if ref.dim == 2:
            return tuple(self.cell_samples()[ref.index].tolist())
        first = (self.n_cells + self.n_edges, self.n_cells)[ref.dim]
        return tuple(self.face_samples()[first + ref.index].tolist())

    def face_samples(self) -> _np.ndarray:
        """Every face's sample as one read-only (F, 3) array, ``iter_faces`` order.

        Computed once per arrangement. Vertices are their triples and edges
        their reduced midpoints. A cell's sample is the reduced midpoint of
        its first edge's midpoint and the vertex after that edge: strictly
        inside the triangle of those three vertices, which are not collinear
        because bounded cells turn strictly at every vertex (``_assemble``
        checks it), hence inside the convex cell, with a denominator near the
        product of three vertex w's instead of the lcm over the whole cycle.
        """
        return self._samples

    def cell_samples(self) -> _np.ndarray:
        """The cell rows of ``face_samples()`` as one read-only (n_cells, 3) array.

        Computed on their own until ``face_samples()`` is built, and from then
        on a view of its first rows, so the rows are never stored twice.
        """
        return self._cell_samples

    @functools.cached_property
    def _sample_dtype(self):
        """int64 while every sample value fits, else object (Python ints).

        With X, Y and W the largest |x|, |y| and w of a vertex, no value
        passes max(8 X Y, 4 max(X, Y, W)) * W^2.
        """
        sx, sy, sw = (int(abs(self._uniq[:, j]).max()) for j in range(3))
        bound = max(8 * sx * sy, 4 * max(sx, sy, sw)) * sw * sw
        return _np.int64 if bound <= _SAMPLE_LIMIT else object

    @functools.cached_property
    def _cell_samples(self) -> _np.ndarray:
        vt = self._uniq.astype(self._sample_dtype, copy=False)
        eu, ev, nxt = self._eu, self._ev, self._nxt
        h0 = self._cell_start_he
        h2 = nxt[nxt[h0]]
        third = vt[_np.where(h2 & 1, ev[h2 >> 1], eu[h2 >> 1])].T
        cells = _reduced_rows(*_midpoint(_midpoint(vt[eu[h0 >> 1]].T, vt[ev[h0 >> 1]].T), third))
        cells.flags.writeable = False
        return cells

    @functools.cached_property
    def _samples(self) -> _np.ndarray:
        vt = self._uniq.astype(self._sample_dtype, copy=False)
        edges = _reduced_rows(*_midpoint(vt[self._eu].T, vt[self._ev].T))
        samples = _np.concatenate([self._cell_samples, edges, vt])
        samples.flags.writeable = False
        # cached_property stores in the instance dict, which frozen allows
        self.__dict__["_cell_samples"] = samples[: self.n_cells]
        return samples

    @functools.cached_property
    def _he_cell(self) -> _np.ndarray:
        """Half-edge -> cell, -1 for the outer face, as one read-only array."""
        return _readonly(self._cell_of_face[self._face])

    def cell_bounds_float(self) -> _np.ndarray:
        """(n_cells, 4) float array [min x, min y, max x, max y] per cell; OverflowError past float range."""
        bounds = _np.empty((self.n_cells, 4), dtype=_np.float64)
        vx = _np.asarray(self._uniq[:, 0] / self._uniq[:, 2], dtype=_np.float64)
        vy = _np.asarray(self._uniq[:, 1] / self._uniq[:, 2], dtype=_np.float64)
        E = len(self._eu)
        vids = _np.empty(2 * E, dtype=_np.int64)
        vids[0::2] = self._eu
        vids[1::2] = self._ev
        cells = self._he_cell
        keep = cells >= 0
        cells = cells[keep]
        hx = vx[vids[keep]]
        hy = vy[vids[keep]]
        order = _np.argsort(cells, kind="stable")
        cells = cells[order]
        starts = _np.flatnonzero(_np.r_[True, cells[1:] != cells[:-1]])
        if len(starts) != self.n_cells:
            raise ContractViolation("a cell has no half-edge")
        bounds[:, 0] = _np.minimum.reduceat(hx[order], starts)
        bounds[:, 1] = _np.minimum.reduceat(hy[order], starts)
        bounds[:, 2] = _np.maximum.reduceat(hx[order], starts)
        bounds[:, 3] = _np.maximum.reduceat(hy[order], starts)
        return bounds

    def dual_csr(self) -> tuple[_np.ndarray, _np.ndarray, _np.ndarray]:
        """The dual graph over interior edges in CSR form, as read-only views.

        Returns (ptr, nbr, eid): cell c's neighbours are ``nbr[ptr[c]:ptr[c + 1]]``,
        sorted, across the edges ``eid`` at the same positions. Each interior
        edge appears twice, once from each of its cells.
        """
        return _readonly(self._adj_ptr), _readonly(self._adj_nbr), _readonly(self._adj_eid)

    def cell_neighbors(self, cid: int) -> list[tuple[int, int]]:
        """(neighbor cell, shared edge id) pairs, sorted: cell ``cid``'s slice of ``dual_csr()``."""
        a, b = self._adj_ptr[cid : cid + 2].tolist()
        return list(zip(self._adj_nbr[a:b].tolist(), self._adj_eid[a:b].tolist()))

    def dual_edges(self) -> Iterator[tuple[int, int, int]]:
        """Each interior edge as (cell, cell, edge id), cells ordered, in ``dual_csr()`` order."""
        ptr, nbr, eid = self.dual_csr()
        src = _np.repeat(_np.arange(self.n_cells), _np.diff(ptr))
        keep = src < nbr
        yield from zip(src[keep].tolist(), nbr[keep].tolist(), eid[keep].tolist())

    # --- faces ----------------------------------------------------------

    def iter_faces(self) -> Iterator[FaceRef]:
        for c in range(self.n_cells):
            yield FaceRef(2, c)
        for e in range(self.n_edges):
            yield FaceRef(1, e)
        for v in range(self.n_vertices):
            yield FaceRef(0, v)

    def face_sample(self, ref: FaceRef) -> Point:
        """``face_sample_triple`` as a Point."""
        return _as_point(self.face_sample_triple(ref))

    def face_cells(self, ref: FaceRef) -> list[int]:
        """Cells whose closure contains the face, sorted."""
        if ref.dim == 2:
            return [ref.index]
        if ref.dim == 1:
            eids = _np.array([ref.index])
        else:
            eids = _np.flatnonzero((self._eu == ref.index) | (self._ev == ref.index))
        hes = _np.concatenate([2 * eids, 2 * eids + 1])
        cells = self._he_cell[hes]
        return sorted({int(c) for c in cells if c >= 0})

    # --- point location --------------------------------------------------

    def locate(self, t: Point) -> FaceRef:
        """The face whose relative interior holds t, read off t's side of every line.

        t is strictly right of half-edge h when sign(h) * side(line(h)) < 0,
        with sign +1 for 2e and -1 for 2e + 1, and a cell holds t in its
        closure when no half-edge of it has t on its right. Unless one cell
        holds t strictly inside, t is on the first holding cell's one edge.
        """
        x0, y0, x1, y1 = self.box
        if not (x0 <= t.x <= x1 and y0 <= t.y <= y1):
            raise OutsideBox(f"{t} outside box {self.box}")
        X, Y, W = homogeneous(t)
        vid = self._find_vertex(X, Y, W)
        if vid is not None:
            return FaceRef(0, vid)
        sides = (a * X + b * Y - c * W for a, b, c in self._trips_all)
        he_side = _np.outer([(s > 0) - (s < 0) for s in sides], (1, -1))[self._eline].ravel()
        he_cell = self._he_cell
        fails = _np.zeros(self.n_cells + 1, dtype=bool)  # the outer face's -1 is the last slot
        fails[he_cell[he_side < 0]] = True
        holding = _np.flatnonzero(~fails[:-1])
        on = _np.flatnonzero(_np.isin(he_cell, holding[:1]) & (he_side == 0))
        if len(holding) == 1 and len(on) == 0:
            return FaceRef(2, int(holding[0]))
        if len(on) != 1:
            raise ContractViolation("a point of the box lies in one cell or on one edge")
        return FaceRef(1, int(on[0]) // 2)


def build_arrangement(
    lines: Sequence[Line],
    must_contain: Sequence[Point] = (),
    window: tuple[int, int, int, int] | None = None,
) -> Arrangement:
    """Exact DCEL of ``lines`` clipped to an integer box.

    Without ``window`` the box is adaptive: it strictly contains every
    pairwise intersection, a chord of every line, and every ``must_contain``
    point, with margin at least 1. An integer ``window`` (x0, y0, x1, y1),
    x0 < x1 and y0 < y1, is the box itself: every line must cross it, no
    side may lie on a line, and crossings outside it are dropped. Faces of
    the subdivision are convex; the bounded ones become cells of the dual
    graph.
    """
    lines = list(lines)
    if len(set(lines)) != len(lines):
        raise ValueError("lines must be deduplicated")
    trips = [ln.primitive_triple() for ln in lines]
    if window is not None:
        x0, y0, x1, y1 = window
        if must_contain or not (x0 < x1 and y0 < y1):
            raise ValueError("a window is a nonempty box and replaces must_contain")
        if set(_side_triples(window)) & set(trips):
            raise ValueError("a window side lies on an input line")
    extras = [] if window is not None else list(must_contain) + [ln.some_point() for ln in lines]
    # box sides, in line order after the input lines: x = x0, x = x1, y = y0, y = y1
    dirs_all = [_reduced_direction(a, b) for a, b, _ in trips]
    dirs_all += [(0, -1), (0, -1), (1, 0), (1, 0)]
    return _assemble(lines, trips, dirs_all, _geometry(trips, dirs_all, extras, window))


def _unique_key_order(keys: _np.ndarray, message: str) -> _np.ndarray:
    """The order that sorts integer ``keys``; ``ContractViolation(message)`` if two are equal.

    Distinct keys have one sorted order, so any sort algorithm gives it.
    """
    order = _np.argsort(keys)
    srt = keys[order]
    if (srt[1:] == srt[:-1]).any():
        raise ContractViolation(message)
    return order


def _assemble(
    lines: list[Line],
    trips: list[tuple[int, int, int]],
    dirs_all: list[tuple[int, int]],
    geo: tuple,
) -> Arrangement:
    L = len(trips)
    uniq, row_line, row_vid, box = geo
    trips_all = trips + _side_triples(box)
    V = len(uniq)

    # edges: consecutive vertices along each line
    same = row_line[1:] == row_line[:-1]
    eu = row_vid[:-1][same]
    ev = row_vid[1:][same]
    eline = row_line[:-1][same]
    E = int(eu.size)

    # half-edges: 2e along +direction, 2e+1 reversed; twin(h) = h ^ 1
    ranks = _angular_ranks(dirs_all + [(-dx, -dy) for dx, dy in dirs_all])
    rp = _np.array([ranks[d] for d in dirs_all], dtype=_np.int64)
    rn = _np.array([ranks[(-d[0], -d[1])] for d in dirs_all], dtype=_np.int64)
    H = 2 * E
    he_origin = _np.empty(H, dtype=_np.int64)
    he_origin[0::2] = eu
    he_origin[1::2] = ev
    he_head = _np.empty(H, dtype=_np.int64)
    he_head[0::2] = ev
    he_head[1::2] = eu
    he_rank = _np.empty(H, dtype=_np.int64)
    he_rank[0::2] = rp[eline]
    he_rank[1::2] = rn[eline]

    counts = _np.bincount(he_origin, minlength=V)
    if int(counts.min()) <= 0:
        raise ContractViolation("every vertex lies on some edge")
    ring_start = _np.zeros(V + 1, dtype=_np.int64)
    _np.cumsum(counts, out=ring_start[1:])
    # the half-edges leaving one vertex point in distinct directions
    order = _unique_key_order(
        he_origin * len(ranks) + he_rank, "two half-edges leave a vertex in one direction"
    )
    pos = _np.empty(H, dtype=_np.int64)
    pos[order] = _np.arange(H, dtype=_np.int64) - ring_start[he_origin[order]]
    twin_pos = _np.empty(H, dtype=_np.int64)
    twin_pos[0::2] = pos[1::2]
    twin_pos[1::2] = pos[0::2]
    size_at_head = counts[he_head]
    # next half-edge: the cw neighbor of the twin in the ccw ring at the head,
    # which keeps the face on the left of every half-edge
    nxt = order[ring_start[he_head] + (twin_pos - 1) % size_at_head]

    # faces: the cycles of the permutation nxt, numbered by their smallest
    # half-edge. Pointer jumping leaves lab[h] the minimum over the next
    # 2^round half-edges of h's cycle; once lab is constant along every
    # cycle, it is each cycle's minimum, the one half-edge labelling itself.
    if (_np.bincount(nxt, minlength=H) != 1).any():
        raise ContractViolation("next half-edge must be a permutation")
    lab = _np.arange(H, dtype=_np.int64)
    jump = nxt
    while (lab != lab[nxt]).any():
        lab = _np.minimum(lab, lab[jump])
        jump = jump[jump]
    is_start = lab == _np.arange(H)
    starts = _np.flatnonzero(is_start)
    face = (_np.cumsum(is_start) - 1)[lab]
    n_faces = len(starts)

    # the outer face is left of the reversed half-edge of any bottom edge
    bottom_first = int(_np.searchsorted(eline, L + _BOTTOM))
    outer = int(face[2 * bottom_first + 1])
    if not (
        (eline[_np.flatnonzero(face[0::2] == outer)] >= L).all()
        and (eline[_np.flatnonzero(face[1::2] == outer)] >= L).all()
    ):
        raise ContractViolation("the outer face touches only box sides")

    # cells: the bounded faces in face order
    bounded_face = _np.arange(n_faces) != outer
    cell_of_face = _np.where(bounded_face, _np.cumsum(bounded_face) - 1, -1)
    cell_start_he = starts[bounded_face]
    n_cells = len(cell_start_he)

    if V - E + (n_cells + 1) != 2:
        raise ContractViolation("Euler relation")

    # bounded faces turn strictly at every vertex, by integer turn tests: a
    # second line crosses there, and it would cut a face that went straight on
    dtype = _int_dtype(max(abs(c) for d in dirs_all for c in d))
    dxl = _np.array([d[0] for d in dirs_all], dtype=dtype)
    dyl = _np.array([d[1] for d in dirs_all], dtype=dtype)
    he_line_arr = _np.repeat(eline, 2)
    sgn = _np.where(_np.arange(H) % 2 == 0, 1, -1)
    dhx = dxl[he_line_arr] * sgn
    dhy = dyl[he_line_arr] * sgn
    cross = dhx * dhy[nxt] - dhy * dhx[nxt]
    bounded = cell_of_face[face] >= 0
    if not (cross[bounded] > 0).all():
        raise ContractViolation("bounded faces are strictly convex")

    # dual adjacency over interior edges (both sides bounded)
    f_even = face[0::2]
    f_odd = face[1::2]
    c_even = cell_of_face[f_even]
    c_odd = cell_of_face[f_odd]
    interior = (c_even >= 0) & (c_odd >= 0)
    eids = _np.flatnonzero(interior)
    src = _np.concatenate([c_even[eids], c_odd[eids]])
    dst = _np.concatenate([c_odd[eids], c_even[eids]])
    de = _np.concatenate([eids, eids])
    # two convex cells share at most one edge
    o = _unique_key_order(src * n_cells + dst, "two cells share two edges")
    src, dst, de = src[o], dst[o], de[o]
    adj_ptr = _np.zeros(n_cells + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(src, minlength=n_cells), out=adj_ptr[1:])

    return Arrangement(
        lines=tuple(lines),
        box=box,
        dirs_all=dirs_all,
        _trips_all=trips_all,
        _uniq=uniq,
        _eu=eu,
        _ev=ev,
        _eline=eline,
        _nxt=nxt,
        _face=face,
        _cell_start_he=cell_start_he,
        _cell_of_face=cell_of_face,
        _adj_ptr=adj_ptr,
        _adj_nbr=dst,
        _adj_eid=de,
    )
