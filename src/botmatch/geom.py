"""Exact rational geometry primitives for translation-space computations.

Everything operates on squared Euclidean lengths and stays exact. Scalars
and points cross the API as ``fractions.Fraction``; inside, the exact form is
integers. Per-point kernels work on integer keys over one shared positive
denominator (``Instance.int_anchors``, ``squared_length_keys``), lines are
primitive integer triples, and clipping and corner tests run on homogeneous
integer points (``orientation``), so they compare plain integers.
Translations live in the same plane as the input points: translating the
second point set by ``t`` moves point ``b`` to ``b + t``, and the squared
length of a matched pair ``(a, b)`` is ``|b + t - a|^2``. The identity

    |b + t - a|^2 = |t - (a - b)|^2

reduces every length comparison to point-to-site distances in translation
space, with site ``a - b`` per edge. Also the reason bisectors of two edges
are ordinary perpendicular bisectors of their sites.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as _np

Scalar = Fraction

ScalarLike = Union[int, str, Fraction]


class ContractViolation(Exception):
    """An internal invariant broke; indicates a bug, not bad input."""


def to_scalar(value: ScalarLike) -> Fraction:
    """Parse an exact scalar: int, Fraction, or a 'p/q' / 'p' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def format_scalar(value: Fraction) -> str:
    """Canonical 'p/q' (or 'p' when integral) rendering of a scalar."""
    return str(value)


@dataclass(frozen=True, order=True)
class Point:
    """A point (or translation vector) with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scale(self, factor: Fraction) -> "Point":
        return Point(self.x * factor, self.y * factor)

    def dot(self, other: "Point") -> Fraction:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> Fraction:
        return self.x * other.y - self.y * other.x

    def norm2(self) -> Fraction:
        """Squared Euclidean norm."""
        return self.x * self.x + self.y * self.y

    def dist2(self, other: "Point") -> Fraction:
        return (self - other).norm2()

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


def point(x: ScalarLike, y: ScalarLike) -> Point:
    return Point(to_scalar(x), to_scalar(y))


class EdgeRef(NamedTuple):
    """A potential matched pair: index into A times index into B."""

    a: int
    b: int


@dataclass(frozen=True)
class Instance:
    """Two labeled planar point sets; B is the smaller, fully matched side.

    Invariants: 1 <= k <= n, points within each set pairwise distinct.
    """

    A: tuple[Point, ...]
    B: tuple[Point, ...]

    def __post_init__(self) -> None:
        if not (1 <= len(self.B) <= len(self.A)):
            raise ValueError("need 1 <= |B| <= |A|")
        if len(set(self.A)) != len(self.A):
            raise ValueError("points of A must be pairwise distinct")
        if len(set(self.B)) != len(self.B):
            raise ValueError("points of B must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.A)

    @property
    def k(self) -> int:
        return len(self.B)

    def edges(self) -> Iterator[EdgeRef]:
        for b in range(self.k):
            for a in range(self.n):
                yield EdgeRef(a, b)

    def anchor(self, e: EdgeRef) -> Point:
        """The translation aligning edge ``e`` exactly: a - b."""
        return self.A[e.a] - self.B[e.b]

    def diff(self, e: EdgeRef) -> Point:
        """Difference vector b - a; equal vectors mean equivalent edges."""
        return self.B[e.b] - self.A[e.a]

    @cached_property
    def int_anchors(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """Anchors over one shared denominator: ``(M, rows)``.

        ``M`` is the lcm of every coordinate denominator and
        ``rows[b][a] = (a - b) * M`` as an integer pair. Computed once per
        instance (frozen, so it never goes stale).
        """
        M = math.lcm(*(c.denominator for p in self.A + self.B for c in (p.x, p.y)))
        rows = tuple(
            tuple((int((a.x - b.x) * M), int((a.y - b.y) * M)) for a in self.A)
            for b in self.B
        )
        return M, rows

    @cached_property
    def anchor_norms(self) -> tuple[tuple[int, ...], ...]:
        """``norms[b][a] = |s|^2`` of the integer anchor s = ``int_anchors`` ``rows[b][a]``.

        The term of Q = W |s|^2 - 2 M (X s_x + Y s_y) that does not depend on
        the translation; computed once per instance.
        """
        return tuple(tuple(x * x + y * y for x, y in row) for row in self.int_anchors[1])


def instance(A: Iterable[Sequence[ScalarLike]], B: Iterable[Sequence[ScalarLike]]) -> Instance:
    """Build an Instance from coordinate pairs (ints, Fractions, 'p/q')."""
    return Instance(
        tuple(point(x, y) for x, y in A),
        tuple(point(x, y) for x, y in B),
    )


def homogeneous(t: Point) -> tuple[int, int, int]:
    """Integers ``(X, Y, W)`` in lowest terms, ``W > 0``, with t = (X/W, Y/W)."""
    xn, xd = t.x.numerator, t.x.denominator
    yn, yd = t.y.numerator, t.y.denominator
    if xd == yd:
        return xn, yn, xd
    W = math.lcm(xd, yd)
    return xn * (W // xd), yn * (W // yd), W


def squared_length_keys(inst: Instance, t: Point) -> tuple[list[list[int]], int, int, int]:
    """Integer keys of every edge's squared length at ``t``: ``(Q, base, W, den)``.

    With t = (X/W, Y/W), W > 0, and s the integer anchor ``rows[b][a]`` of
    ``int_anchors``, edge (a, b) has squared length (base + W Q[b][a]) / den,
    where Q = W |s|^2 - 2 M (X s_x + Y s_y), base = M^2 (X^2 + Y^2) and
    den = (W M)^2. So Q orders the lengths at one ``t`` exactly, on fewer
    bits than their numerators; the lex core ``diagram._lex_rows`` ranks
    edges by the same form.
    """
    M, rows = inst.int_anchors
    X, Y, W = homogeneous(t)
    mx, my = 2 * M * X, 2 * M * Y
    Q = [
        [W * s2 - (mx * sx + my * sy) for (sx, sy), s2 in zip(row, norms)]
        for row, norms in zip(rows, inst.anchor_norms)
    ]
    return Q, M * M * (X * X + Y * Y), W, (W * M) ** 2


def squared_edge_length(inst: Instance, e: EdgeRef, t: Point) -> Fraction:
    """Exact squared length |b + t - a|^2 of edge ``e`` at translation ``t``."""
    M, rows = inst.int_anchors
    X, Y, W = homogeneous(t)
    px, py = rows[e.b][e.a]
    dx = X * M - px * W
    dy = Y * M - py * W
    return Fraction(dx * dx + dy * dy, (W * M) ** 2)


@dataclass(frozen=True, order=True)
class Line:
    """The line a*x + b*y = c as its primitive integer triple.

    The integers are coprime with a > 0, or a = 0 and b > 0. That form is
    unique, so lines compare, hash and sort as their triples. Never a zero
    line.
    """

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a < 0 or (self.a == 0 and self.b <= 0) or math.gcd(self.a, self.b, self.c) != 1:
            raise ValueError("line must be a primitive triple; use make_line()")

    def side(self, p: Point) -> Fraction:
        """Signed residual (a*x + b*y - c) / a, over b when a = 0 (zero iff on the line)."""
        return (self.a * p.x + self.b * p.y - self.c) / (self.a or self.b)

    def direction(self) -> Point:
        """A direction vector of the line: (b/a, -1), or (1, 0) when a = 0."""
        if self.a:
            return Point(Fraction(self.b, self.a), Fraction(-1))
        return Point(Fraction(1), Fraction(0))

    def some_point(self) -> Point:
        """An arbitrary exact point on the line."""
        if self.a:
            return Point(Fraction(self.c, self.a), Fraction(0))
        return Point(Fraction(0), Fraction(self.c, self.b))

    def primitive_triple(self) -> tuple[int, int, int]:
        """The coprime integers (a, b, c) with a*x + b*y = c and canonical sign."""
        return self.a, self.b, self.c

    def foot(self, p: Point) -> Point:
        """Orthogonal projection of ``p`` onto the line."""
        lam = (self.c - self.a * p.x - self.b * p.y) / (self.a * self.a + self.b * self.b)
        return Point(p.x + self.a * lam, p.y + self.b * lam)


def _primitive_line(a: int, b: int, c: int) -> Line:
    g = math.gcd(a, b, c)
    if a < 0 or (a == 0 and b < 0):
        g = -g
    return Line(a // g, b // g, c // g)


def make_line(alpha: ScalarLike, beta: ScalarLike, gamma: ScalarLike) -> Line:
    """The line alpha*x + beta*y = gamma from arbitrary rational coefficients."""
    coefs = [to_scalar(alpha), to_scalar(beta), to_scalar(gamma)]
    if coefs[0] == 0 and coefs[1] == 0:
        raise ValueError("zero line")
    s = math.lcm(*(v.denominator for v in coefs))
    return _primitive_line(*(int(v * s) for v in coefs))


def line_intersection(l1: Line, l2: Line) -> Point | None:
    """Intersection point of two lines, None when parallel (or equal)."""
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        return None
    x = l1.c * l2.b - l2.c * l1.b
    y = l1.a * l2.c - l2.a * l1.c
    return Point(Fraction(x, det), Fraction(y, det))


def perpendicular_bisector(p: Point, q: Point) -> Line:
    """Perpendicular bisector of two distinct points: |t-p|^2 = |t-q|^2."""
    if p == q:
        raise ValueError("coincident points have no bisector line")
    return make_line(
        2 * (q.x - p.x),
        2 * (q.y - p.y),
        q.norm2() - p.norm2(),
    )


def bisector_line(inst: Instance, e1: EdgeRef, e2: EdgeRef) -> Line | None:
    """Locus of translations where edges ``e1`` and ``e2`` have equal length.

    Returns ``None`` for equivalent edges (equal difference vectors): their
    lengths agree at every translation, the locus is the whole plane.
    Otherwise the locus is the perpendicular bisector of the two alignment
    translations a1 - b1 and a2 - b2.
    """
    M, rows = inst.int_anchors
    px, py = rows[e1.b][e1.a]
    qx, qy = rows[e2.b][e2.a]
    if px == qx and py == qy:
        return None
    # anchors P = p/M and Q = q/M: 2(Q - P).t = |Q|^2 - |P|^2, scaled by M^2
    return _primitive_line(
        2 * M * (qx - px), 2 * M * (qy - py), qx * qx + qy * qy - px * px - py * py
    )


def equivalence_classes(inst: Instance) -> list[list[EdgeRef]]:
    """Partition all edges by difference vector b - a.

    Classes are sorted lexicographically by difference vector, members by
    (a, b). Equivalent edges keep equal lengths at every translation, so a
    class never has two edges sharing an endpoint; class size is at most k.
    """
    groups: dict[Point, list[EdgeRef]] = {}
    for e in inst.edges():
        groups.setdefault(inst.diff(e), []).append(e)
    out = []
    for d in sorted(groups, key=lambda v: (v.x, v.y)):
        members = sorted(groups[d])
        if len(members) > inst.k:
            raise ContractViolation("an equivalence class repeats an endpoint")
        out.append(members)
    return out


def orientation(
    p: tuple[int, int, int], q: tuple[int, int, int], r: tuple[int, int, int]
) -> int:
    """Determinant of three homogeneous points (all w > 0).

    Equals w_p*w_q*w_r times the cross product (q - p) x (r - q), so its
    sign is the turn's: positive for a strict left (ccw) turn.
    """
    x0, y0, w0 = p
    x1, y1, w1 = q
    x2, y2, w2 = r
    return (
        x0 * (y1 * w2 - y2 * w1)
        - y0 * (x1 * w2 - x2 * w1)
        + w0 * (x1 * y2 - x2 * y1)
    )


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex region given by ccw vertices.

    Three or more vertices: strictly convex ccw order, no repeats, no three
    collinear. One or two vertices are allowed as degenerate regions (a point
    or a segment); erosion produces these naturally.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        m = len(self.vertices)
        if m == 0:
            raise ValueError("empty polygon; use None for the empty region")
        ring = [homogeneous(v) for v in self.vertices]  # lowest terms: canonical
        if len(set(ring)) != m:
            raise ValueError("repeated vertices")
        if m >= 3 and any(orientation(ring[i - 2], ring[i - 1], ring[i]) <= 0 for i in range(m)):
            raise ValueError("vertices must be in strictly convex ccw order")

    @property
    def dim(self) -> int:
        return min(len(self.vertices) - 1, 2)

    def edges(self) -> Iterator[tuple[Point, Point]]:
        m = len(self.vertices)
        if m == 1:
            return
        if m == 2:
            yield self.vertices[0], self.vertices[1]
            return
        for i in range(m):
            yield self.vertices[i], self.vertices[(i + 1) % m]

    def contains(self, p: Point) -> bool:
        """Closed containment test."""
        verts = self.vertices
        if len(verts) == 1:
            return p == verts[0]
        if len(verts) == 2:
            return _on_segment(p, verts[0], verts[1])
        for v, w in self.edges():
            if (w - v).cross(p - v) < 0:
                return False
        return True

    def contains_interior(self, p: Point) -> bool:
        """Strict interior test (false for degenerate polygons)."""
        if len(self.vertices) < 3:
            return False
        for v, w in self.edges():
            if (w - v).cross(p - v) <= 0:
                return False
        return True

    def centroid(self) -> Point:
        """Vertex average; interior for convex polygons."""
        m = len(self.vertices)
        sx = sum((v.x for v in self.vertices), Fraction(0))
        sy = sum((v.y for v in self.vertices), Fraction(0))
        return Point(sx / m, sy / m)


def convex_polygon(coords: Iterable[Sequence[ScalarLike]]) -> ConvexPolygon:
    return ConvexPolygon(tuple(point(x, y) for x, y in coords))


def _on_segment(p: Point, v: Point, w: Point) -> bool:
    d = w - v
    if d.cross(p - v) != 0:
        return False
    lam = d.dot(p - v)
    return 0 <= lam <= d.norm2()


def _segment_costs(
    inst: Instance, sites: Sequence[EdgeRef], s0: _np.ndarray, s1: _np.ndarray
) -> tuple[_np.ndarray, _np.ndarray, _np.ndarray, _np.ndarray]:
    """Least |t - anchor(sites[i])|^2 over t on segment i, and where, for every i.

    ``s0`` and ``s1`` hold the segment ends as (E, 3) homogeneous triples,
    W > 0. Returns ``object`` arrays of Python ints (num, den, lnum, lden):
    the value num / den, den > 0, at s0 + (lnum / lden)(s1 - s0). With
    a = s0 - site, b = s1 - site and d = b - a, the minimizer is s0 when
    a.d >= 0, s1 when b.d <= 0, and else the site's foot on the line, at
    -a.d / |d|^2, with the values |a|^2, |b|^2 and (a x b)^2 / |d|^2. Here a
    and b are scaled by M and their own W, and d by W0 W1 M, which puts the
    foot at -(a.d) W1 / |d|^2. The minimizer is unique on a segment of
    positive length, where |t - site|^2 is strictly convex.
    """
    M, rows = inst.int_anchors
    MM = M * M
    # One Python loop over columns: object arrays would run the same int
    # operations, for all three cases, and per-row containers wake the cyclic GC.
    num, den, lnum, lden = [], [], [], []
    for e, X0, Y0, W0, X1, Y1, W1 in zip(sites, *s0.T.tolist(), *s1.T.tolist()):
        px, py = rows[e.b][e.a]
        ax, ay = X0 * M - px * W0, Y0 * M - py * W0
        bx, by = X1 * M - px * W1, Y1 * M - py * W1
        dx, dy = bx * W0 - ax * W1, by * W0 - ay * W1
        ad = ax * dx + ay * dy
        if ad >= 0:
            n, d, ln, ld = ax * ax + ay * ay, W0 * W0 * MM, 0, 1
        elif bx * dx + by * dy <= 0:
            n, d, ln, ld = bx * bx + by * by, W1 * W1 * MM, 1, 1
        else:
            dd = dx * dx + dy * dy
            n, d, ln, ld = (ax * by - ay * bx) ** 2, dd * MM, -ad * W1, dd
        num.append(n)
        den.append(d)
        lnum.append(ln)
        lden.append(ld)
    return tuple(_np.array(col, dtype=object) for col in (num, den, lnum, lden))


def _segment_point(u: Sequence[int], v: Sequence[int], lnum: int, lden: int) -> Point:
    """The point u + (lnum / lden)(v - u) between the homogeneous triples u and v."""
    (X0, Y0, W0), (X1, Y1, W1) = u, v
    stay, move, W = (lden - lnum) * W1, lnum * W0, W0 * W1 * lden
    return Point(Fraction(X0 * stay + X1 * move, W), Fraction(Y0 * stay + Y1 * move, W))


def _nearest_on_ring(
    inst: Instance, site: EdgeRef, ring: Sequence[tuple[int, int, int]]
) -> tuple[Point, Fraction]:
    """Nearest point of a closed convex region to ``site``'s anchor, and its squared distance.

    ``ring`` is the region's boundary, a strictly convex ccw ring of
    homogeneous triples with W > 0. The anchor, as the triple (sx, sy, M) of
    ``int_anchors``, is its own answer when no edge has it strictly on the
    right. Otherwise the nearest point lies on the boundary, and one
    ``_segment_costs`` call values every edge; the least value wins. The
    nearest point is unique, so edges that tie share it and no tie rule is
    needed.
    """
    M, rows = inst.int_anchors
    s = (*rows[site.b][site.a], M)
    after = [*ring[1:], ring[0]]
    if all(orientation(p, q, s) >= 0 for p, q in zip(ring, after)):
        return inst.anchor(site), Fraction(0)
    ends = (_np.array(r, dtype=object) for r in (ring, after))
    num, den, lnum, lden = (a.tolist() for a in _segment_costs(inst, [site] * len(ring), *ends))
    i = min(range(len(ring)), key=lambda j: Fraction(num[j], den[j]))
    return _segment_point(ring[i], after[i], lnum[i], lden[i]), Fraction(num[i], den[i])


def _circle_through(*ps: tuple[int, int]) -> tuple[int, int, int, int]:
    """The least circle through one, two or three integer points: ``(X, Y, W, R)``.

    Its centre is (X/W, Y/W), W > 0, and R = W^2 r^2 for its radius r: a
    point p lies in the closed disk when |p W - (X, Y)|^2 <= R. Two points
    give their midpoint, three their circumcentre; three collinear points
    have none.
    """
    if len(ps) == 1:
        (X, Y), W = ps[0], 1
    elif len(ps) == 2:
        (px, py), (qx, qy) = ps
        X, Y, W = px + qx, py + qy, 2
    else:
        (ax, ay), (bx, by), (cx, cy) = ps
        bx, by, cx, cy = bx - ax, by - ay, cx - ax, cy - ay
        W = 2 * (bx * cy - by * cx)
        if W == 0:
            raise ContractViolation("three collinear points on one enclosing circle")
        b2, c2 = bx * bx + by * by, cx * cx + cy * cy
        X, Y = ax * W + cy * b2 - by * c2, ay * W + bx * c2 - cx * b2
        if W < 0:
            X, Y, W = -X, -Y, -W
    x, y = ps[0]
    return X, Y, W, (x * W - X) ** 2 + (y * W - Y) ** 2


def _enclosing_center(points: Sequence[tuple[int, int]]) -> tuple[int, int, int]:
    """Centre of the smallest circle holding every integer point: ``(X, Y, W)``.

    Welzl's algorithm (1991), iterative: a point outside the circle of those
    before it lies on the circle of the larger set, so the circle is rebuilt
    through it, then through it and each earlier point left outside, then
    through those two and each point before that left outside. The points
    are visited in a fixed-seed shuffled order, which keeps the expected
    number of rebuilds linear; the centre is unique, so the order cannot
    change it. Exact on Python ints of any size. Returns the centre in
    lowest terms, W > 0.
    """
    pts = list(points)
    random.Random(0).shuffle(pts)
    X, Y, W, R = _circle_through(pts[0])
    for i, p in enumerate(pts):
        if (p[0] * W - X) ** 2 + (p[1] * W - Y) ** 2 <= R:
            continue
        X, Y, W, R = _circle_through(p)
        for j, q in enumerate(pts[:i]):
            if (q[0] * W - X) ** 2 + (q[1] * W - Y) ** 2 <= R:
                continue
            X, Y, W, R = _circle_through(p, q)
            for r in pts[:j]:
                if (r[0] * W - X) ** 2 + (r[1] * W - Y) ** 2 > R:
                    X, Y, W, R = _circle_through(p, q, r)
    g = math.gcd(X, Y, W)
    return X // g, Y // g, W // g


def _float_quotients(den: _np.ndarray, *nums: _np.ndarray) -> list[_np.ndarray]:
    """Each num / den as float64, den > 0, every den scaled by one shared power of two.

    On Python ints the scale is 2^max(0, g - 500), g the largest excess of a
    num's bit length over its den's, so no quotient passes 2^501 and the
    product of two stays within float range; on int64 it is 1. int / int is
    correctly rounded, so every quotient stays weakly monotone in the exact
    value, and exact code must settle the ties.
    """
    if den.dtype == object:
        bits = [d.bit_length() for d in den.tolist()]
        gap = max((n.bit_length() - d for num in nums for n, d in zip(num.tolist(), bits)), default=0)
        den = den << max(0, gap - 500)
    return [_np.asarray(num / den, dtype=_np.float64) for num in nums]


def _as_point(triple: tuple[int, int, int]) -> Point:
    x, y, w = triple
    return Point(Fraction(x, w), Fraction(y, w))


def _halfplane(n: Point, c: Fraction) -> tuple[int, int, int]:
    """<n, t> <= c as integers (a, b, c') with a*X + b*Y + c'*W <= 0 on (X, Y, W), W > 0."""
    s = math.lcm(n.x.denominator, n.y.denominator, c.denominator)
    return int(n.x * s), int(n.y * s), -int(c * s)


def _clip_ring(
    ring: list[tuple[int, int, int]], halfplane: tuple[int, int, int]
) -> list[tuple[int, int, int]]:
    """Clip a convex ring of homogeneous triples to one half-plane (Sutherland-Hodgman).

    The crossing on edge (p, q) is f(q)*p - f(p)*q: f vanishes there, and it
    is a positive combination of the two triples, so it lies between them.
    It is kept in lowest terms with W > 0.
    """
    a, b, c = halfplane
    f = [a * x + b * y + c * w for x, y, w in ring]
    out: list[tuple[int, int, int]] = []
    for i in range(len(ring)):
        p, q = ring[i - 1], ring[i]
        fp, fq = f[i - 1], f[i]
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            x, y, w = fq * p[0] - fp * q[0], fq * p[1] - fp * q[1], fq * p[2] - fp * q[2]
            g = math.gcd(x, y, w) if w > 0 else -math.gcd(x, y, w)
            out.append((x // g, y // g, w // g))
    return out


def _ring_polygon(ring: list[tuple[int, int, int]]) -> ConvexPolygon | None:
    """The region of a weakly convex ccw ring of homogeneous triples in lowest terms.

    The corners are the vertices that turn strictly left between their two
    ring neighbours, listed ccw from the lex-min one. A ring without a corner
    is a segment (its lex-min and lex-max points) or a point; an empty ring
    is ``None``. Only such collinear rings can repeat a point: a clip puts
    each crossing strictly inside its edge, and the edges of a ring with a
    corner do not overlap.
    """
    if not ring:
        return None
    m = len(ring)
    corners = [
        _as_point(ring[i])
        for i in range(m)
        if orientation(ring[i - 1], ring[i], ring[(i + 1) % m]) > 0
    ]
    if not corners:
        pts = [_as_point(p) for p in ring]
        lo, hi = min(pts), max(pts)
        return ConvexPolygon((lo,) if lo == hi else (lo, hi))
    if len(corners) < 3:
        raise ContractViolation("ring is not weakly convex")
    start = corners.index(min(corners))
    return ConvexPolygon(tuple(corners[start:] + corners[:start]))


def _erosion_halfplanes(Q: ConvexPolygon, B: Sequence[Point]) -> list[tuple[int, int, int]]:
    """The erosion of ``Q`` by ``B`` as integer half-planes, one per edge of ``Q``.

    Each supporting half-plane <n, x> <= c of Q tightens to
    <n, t> <= c - max_b <n, b>.
    """
    out = []
    for v, w in Q.edges():
        n = Point(w.y - v.y, v.x - w.x)  # outward normal of a ccw edge
        out.append(_halfplane(n, n.dot(v) - max(n.dot(b) for b in B)))
    return out


def erode_polygon(Q: ConvexPolygon, B: Sequence[Point]) -> ConvexPolygon | None:
    """Translations placing every point of ``B`` inside ``Q`` (closed).

    Clipping by ``_erosion_halfplanes`` runs on integer triples, from
    Q - B[0], which holds every fit. Returns ``None`` when no translation
    fits; the result may degenerate to a segment or a single point.
    """
    if len(Q.vertices) < 3:
        raise ValueError("Q must be a full-dimensional convex polygon")
    if not B:
        raise ValueError("B must be nonempty")
    ring = [homogeneous(v - B[0]) for v in Q.vertices]
    for halfplane in _erosion_halfplanes(Q, B):
        ring = _clip_ring(ring, halfplane)
        if not ring:
            return None
    return _ring_polygon(ring)
