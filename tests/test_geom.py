"""Geometry primitive tests: frozen hand values plus randomized invariants."""

import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from botmatch.geom import (
    ConvexPolygon,
    EdgeRef,
    Instance,
    Point,
    _segment_costs,
    _segment_point,
    bisector_line,
    convex_polygon,
    equivalence_classes,
    erode_polygon,
    homogeneous,
    instance,
    line_intersection,
    make_line,
    perpendicular_bisector,
    point,
    squared_edge_length,
    to_scalar,
)
from fraction_geometry import _halfplane_clip, canonical_convex
from path_reference import min_envelope_on_segment
from translation_reference import closest_point_in_polygon

F = Fraction


def rand_point(rng: random.Random, span: int = 20, den: int = 4) -> Point:
    return point(
        F(rng.randint(-span * den, span * den), den),
        F(rng.randint(-span * den, span * den), den),
    )


def rand_instance(rng: random.Random, n: int, k: int, span: int = 12):
    pts: set[tuple] = set()
    while len(pts) < n + k:
        p = (rng.randint(-span, span), rng.randint(-span, span))
        pts.add(p)
    pts = sorted(pts)
    rng.shuffle(pts)
    return instance(pts[:n], pts[n : n + k])


def test_scalar_parsing_roundtrip():
    assert to_scalar("3/4") == F(3, 4)
    assert to_scalar("-7") == -7
    assert to_scalar(5) == 5
    assert str(to_scalar("6/8")) == "3/4"
    with pytest.raises(TypeError):
        to_scalar(1.5)


def test_squared_edge_length_examples():
    inst = instance([(0, 0)], [(0, 0)])
    assert squared_edge_length(inst, EdgeRef(0, 0), point(0, 0)) == 0

    inst = instance([(4, 0)], [(0, 0)])
    assert squared_edge_length(inst, EdgeRef(0, 0), point(1, 0)) == 9

    inst = instance([(2, 1)], [(0, 0)])
    assert squared_edge_length(inst, EdgeRef(0, 0), point("1/2", 0)) == F(13, 4)


def test_bisector_line_examples():
    inst = instance([(4, 0), (0, 0)], [(0, 0)])
    line = bisector_line(inst, EdgeRef(0, 0), EdgeRef(1, 0))
    assert line == make_line(1, 0, 2)  # x = 2

    inst = instance([(0, 0), (0, 4)], [(0, 0)])
    line = bisector_line(inst, EdgeRef(0, 0), EdgeRef(1, 0))
    assert line == make_line(0, 1, 2)  # y = 2

    # Equivalent edges: equal difference vectors, no line.
    inst = instance([(0, 0), (1, 0)], [(5, 0), (6, 0)])
    assert bisector_line(inst, EdgeRef(0, 0), EdgeRef(1, 1)) is None


def _rational_instance(rng, n, k):
    pts: set[Point] = set()
    while len(pts) < n + k:
        pts.add(rand_point(rng, span=6, den=rng.choice([1, 2, 3, 5, 12])))
    flat = sorted(pts)
    rng.shuffle(flat)
    return Instance(tuple(flat[:n]), tuple(flat[n:]))


def test_squared_edge_length_matches_fraction_definition():
    # rational coordinates everywhere, so the shared-denominator kernel has
    # to clear unrelated denominators in A, B and t
    rng = random.Random(54)
    for _ in range(40):
        n = rng.randint(1, 5)
        inst = _rational_instance(rng, n, rng.randint(1, n))
        t = rand_point(rng, span=6, den=rng.choice([1, 4, 7, 9]))
        for e in inst.edges():
            got = squared_edge_length(inst, e, t)
            assert type(got) is F
            assert got == t.dist2(inst.anchor(e))


def test_bisector_equal_lengths_on_line():
    rng = random.Random(7)
    for _ in range(50):
        inst = rand_instance(rng, 4, 2)
        edges = [EdgeRef(a, b) for a in range(4) for b in range(2)]
        e1, e2 = rng.sample(edges, 2)
        line = bisector_line(inst, e1, e2)
        if line is None:
            continue
        d = line.direction()
        base = line.some_point()
        for lam in (F(0), F(3, 2), F(-7, 3)):
            t = base + d.scale(lam)
            assert line.side(t) == 0
            assert squared_edge_length(inst, e1, t) == squared_edge_length(inst, e2, t)


def test_equivalence_classes_examples():
    inst = instance([(0, 0), (1, 0)], [(5, 0), (6, 0)])
    classes = equivalence_classes(inst)
    as_sets = [set(c) for c in classes]
    assert {EdgeRef(0, 0), EdgeRef(1, 1)} in as_sets
    assert {EdgeRef(0, 1)} in as_sets
    assert {EdgeRef(1, 0)} in as_sets
    assert len(classes) == 3

    # k=1 always yields n singletons.
    inst = instance([(0, 0), (2, 3), (5, 1)], [(1, 1)])
    classes = equivalence_classes(inst)
    assert all(len(c) == 1 for c in classes)
    assert len(classes) == 3


def test_equivalence_iff_agreement_at_three_translations():
    # The length difference of two edges is affine in t, so agreement at
    # three non-collinear rational points forces agreement everywhere.
    rng = random.Random(11)
    for _ in range(30):
        inst = rand_instance(rng, 4, 2)
        classes = equivalence_classes(inst)
        cls_of = {}
        for i, members in enumerate(classes):
            for e in members:
                cls_of[e] = i
        samples = [point(0, 0), point(1, 0), point(0, 1)]
        edges = list(inst.edges())
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                e1, e2 = edges[i], edges[j]
                agree = all(
                    squared_edge_length(inst, e1, t) == squared_edge_length(inst, e2, t)
                    for t in samples
                )
                assert agree == (cls_of[e1] == cls_of[e2])


def test_closest_point_examples():
    square = convex_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert closest_point_in_polygon(point(5, 5), square) == point(1, 1)
    assert closest_point_in_polygon(point("1/3", "1/2"), square) == point("1/3", "1/2")
    assert closest_point_in_polygon(point("1/2", 3), square) == point("1/2", 1)


def test_closest_point_dominates_candidates():
    rng = random.Random(13)
    tri = convex_polygon([(0, 0), (7, 1), (2, 6)])
    for _ in range(60):
        p = rand_point(rng)
        q = closest_point_in_polygon(p, tri)
        assert tri.contains(q)
        for v in tri.vertices:
            assert p.dist2(q) <= p.dist2(v)
        for lam_num in range(5):
            lam = F(lam_num, 4)
            for v, w in tri.edges():
                s = v + (w - v).scale(lam)
                assert p.dist2(q) <= p.dist2(s)


def test_min_envelope_examples():
    inst = instance([(2, 0)], [(0, 0)])
    t, val = min_envelope_on_segment(inst, [EdgeRef(0, 0)], (point(0, 0), point(1, 0)))
    assert (t, val) == (point(1, 0), 1)

    inst = instance([(1, 0)], [(0, 0)])
    t, val = min_envelope_on_segment(inst, [EdgeRef(0, 0)], (point(0, 0), point(2, 0)))
    assert (t, val) == (point(1, 0), 0)

    inst = instance([(0, 0), (2, 0)], [(0, 0)])
    t, val = min_envelope_on_segment(
        inst, [EdgeRef(0, 0), EdgeRef(1, 0)], (point(0, 0), point(2, 0))
    )
    assert (t, val) == (point(1, 0), 1)


def test_min_envelope_beats_samples():
    rng = random.Random(17)
    for _ in range(40):
        inst = rand_instance(rng, 5, 3)
        edges = rng.sample([EdgeRef(a, b) for a in range(5) for b in range(3)], 4)
        s0, s1 = rand_point(rng), rand_point(rng)
        if s0 == s1:
            continue
        t, val = min_envelope_on_segment(inst, edges, (s0, s1))

        def env(u: Point) -> Fraction:
            return max(squared_edge_length(inst, e, u) for e in edges)

        assert val == env(t)
        assert val <= env(s0) and val <= env(s1)
        for _ in range(50):
            lam = F(rng.randint(0, 64), 64)
            assert val <= env(s0 + (s1 - s0).scale(lam))


def _envelope_reference(inst, edges, seg):
    """The Fraction form of min_envelope_on_segment, kept as its reference.

    The same candidate parameters (segment ends, pairwise breakpoints of the
    linear parts, piece vertices), each evaluated in Fraction arithmetic.
    """
    s0, s1 = seg
    d = s1 - s0
    sites = [inst.anchor(e) for e in edges]
    # f_i(lam) = |s0 + lam*d - site|^2 = q(lam) + p_i + m_i*lam with shared
    # q(lam) = lam^2*|d|^2 + 2*lam*<s0,d> + |s0|^2.
    dd = d.norm2()
    sd = s0.dot(d)
    p_lin = [site.norm2() - 2 * s0.dot(site) for site in sites]
    m_lin = [-2 * d.dot(site) for site in sites]

    def g(lam):
        base = lam * lam * dd + 2 * lam * sd + s0.norm2()
        return base + max(p + m * lam for p, m in zip(p_lin, m_lin))

    zero, one = F(0), F(1)
    candidates = {zero, one}
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            dm = m_lin[j] - m_lin[i]
            if dm != 0:
                lam = (p_lin[i] - p_lin[j]) / dm
                if zero < lam < one:
                    candidates.add(lam)
    if dd != 0:
        for m in m_lin:
            lam = -(2 * sd + m) / (2 * dd)
            if zero < lam < one:
                candidates.add(lam)
    best_lam = min(sorted(candidates), key=lambda lam: (g(lam), lam))
    return s0 + d.scale(best_lam), g(best_lam)


def _assert_envelope_matches(inst, edges, seg):
    got = min_envelope_on_segment(inst, edges, seg)
    want = _envelope_reference(inst, edges, seg)
    assert got == want
    assert type(got[1]) is F and type(got[0].x) is F and type(got[0].y) is F
    # the library's one-site kernel gives each edge alone the reference's point and value
    u, v = homogeneous(seg[0]), homogeneous(seg[1])
    ends = [np.array([end] * len(edges), dtype=object) for end in (u, v)]
    for e, num, den, lnum, lden in zip(edges, *_segment_costs(inst, edges, *ends)):
        assert (_segment_point(u, v, lnum, lden), F(num, den)) == _envelope_reference(inst, [e], seg)


def test_min_envelope_equals_fraction_reference_on_random_instances():
    # rational coordinates in A, B and the segment ends
    rng = random.Random(4242)
    for _ in range(150):
        n = rng.randint(1, 5)
        inst = _rational_instance(rng, n, rng.randint(1, n))
        edges = rng.sample(list(inst.edges()), rng.randint(1, min(4, n * inst.k)))
        seg = (
            rand_point(rng, span=8, den=rng.choice([1, 3, 4, 7])),
            rand_point(rng, span=8, den=rng.choice([1, 2, 9])),
        )
        _assert_envelope_matches(inst, edges, seg)


def test_min_envelope_equals_fraction_reference_on_degenerate_segments():
    rng = random.Random(4343)
    for _ in range(60):
        n = rng.randint(2, 5)
        inst = _rational_instance(rng, n, rng.randint(1, min(3, n)))
        edges = rng.sample(list(inst.edges()), rng.randint(1, min(4, n * inst.k)))
        p = rand_point(rng, span=8, den=rng.choice([1, 3, 5]))
        length = F(rng.randint(1, 40), rng.choice([1, 2, 3]))
        _assert_envelope_matches(inst, edges, (p, p))  # zero length
        _assert_envelope_matches(inst, edges, (p, p + point(length, 0)))
        _assert_envelope_matches(inst, edges, (p + point(0, length), p))
        # along the bisector of two edges: their lengths tie along the whole
        # segment, so the breakpoint of that pair is undefined
        e1, e2 = rng.sample(list(inst.edges()), 2)
        line = bisector_line(inst, e1, e2)
        if line is None:
            continue
        q = line.some_point()
        r = q + line.direction().scale(length)
        for seg in ((q, r), (r, q)):
            _assert_envelope_matches(inst, [e1, e2], seg)
            _assert_envelope_matches(inst, [e1, e2, *edges], seg)


def test_min_envelope_on_a_bisector_is_direction_free():
    # x = 1 is the bisector of the sites (0, 0) and (2, 0): the two lengths
    # tie along the whole segment. On a segment of positive length the
    # envelope is strictly convex, so the minimizer does not depend on which
    # end comes first; a zero-length segment returns its point.
    inst = instance([(0, 0), (2, 0)], [(0, 0)])
    edges = [EdgeRef(0, 0), EdgeRef(1, 0)]
    for seg in (
        (point(1, -3), point(1, 5)),
        (point(1, 5), point(1, -3)),
        (point(1, -1), point(1, 1)),
    ):
        assert min_envelope_on_segment(inst, edges, seg) == (point(1, 0), 1)
    seg = (point(1, 1), point(1, 1))
    assert min_envelope_on_segment(inst, edges, seg) == (point(1, 1), 2)


def test_erode_examples():
    Q = convex_polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
    got = erode_polygon(Q, [point(0, 0), point(1, 0)])
    assert got is not None
    assert set(got.vertices) == {point(0, 0), point(3, 0), point(3, 4), point(0, 4)}

    got = erode_polygon(Q, [point(0, 0)])
    assert got is not None
    assert set(got.vertices) == set(Q.vertices)

    unit = convex_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert erode_polygon(unit, [point(0, 0), point(5, 0)]) is None


def test_erode_degenerate_cases():
    unit = convex_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    seg = erode_polygon(unit, [point(0, 0), point(1, 0)])
    assert seg is not None
    assert set(seg.vertices) == {point(0, 0), point(0, 1)}

    pt = erode_polygon(unit, [point(0, 0), point(1, 0), point(0, 1)])
    assert pt is not None
    assert pt.vertices == (point(0, 0),)


def test_erode_membership_property():
    rng = random.Random(19)
    Q = convex_polygon([(0, 0), (9, 2), (11, 9), (3, 12), (-2, 5)])
    B = [point(0, 0), point(2, 1), point(-1, 2)]
    hat = erode_polygon(Q, B)
    assert hat is not None

    def b_fits(t: Point) -> bool:
        return all(Q.contains(b + t) for b in B)

    xs = [v.x for v in hat.vertices]
    ys = [v.y for v in hat.vertices]
    for v in hat.vertices:
        assert b_fits(v)
    hits = 0
    for _ in range(100):
        t = point(
            F(rng.randint(int(min(xs) * 8), int(max(xs) * 8 + 1)), 8),
            F(rng.randint(int(min(ys) * 8), int(max(ys) * 8 + 1)), 8),
        )
        if hat.contains(t):
            hits += 1
            assert b_fits(t)
    assert hits > 0
    # Just outside each supporting line, some b escapes Q.
    for v, w in hat.edges():
        d = w - v
        outward = Point(d.y, -d.x)
        mid = v + d.scale(F(1, 2))
        t = mid + outward.scale(F(1, 1000 * max(1, outward.norm2())))
        assert not b_fits(t)


def test_convex_polygon_validation():
    with pytest.raises(ValueError):
        ConvexPolygon(())
    with pytest.raises(ValueError):
        convex_polygon([(0, 0), (1, 0), (2, 0), (1, 1)])  # collinear triple
    with pytest.raises(ValueError):
        convex_polygon([(0, 0), (0, 1), (1, 1), (1, 0)])  # clockwise
    with pytest.raises(ValueError):
        convex_polygon([("1/2", "1/3"), ("2/4", "2/6")])  # one point twice
    with pytest.raises(ValueError):
        convex_polygon([("1/3", 0), ("1/2", "1/5"), ("2/3", "2/5")])  # collinear
    assert convex_polygon([("1/3", 0), ("2/3", "1/5"), ("1/2", "2/5")]).dim == 2
    sq =convex_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert sq.contains(point("1/2", "1/2"))
    assert sq.contains_interior(point("1/2", "1/2"))
    assert not sq.contains_interior(point(0, 0))
    assert sq.contains(point(0, 0))


def test_line_canonicalization():
    assert make_line(2, 4, 6) == make_line(1, 2, 3)
    assert make_line(0, -5, 10) == make_line(0, 1, -2)
    assert make_line("1/2", 0, "3/2").primitive_triple() == (1, 0, 3)
    assert make_line(-2, 6, 4).primitive_triple() == (1, -3, -2)


def _rand_scalar(rng, span=6):
    return F(rng.randint(-span * 12, span * 12), rng.choice([1, 2, 3, 5, 12]))


def test_bisector_line_equals_perpendicular_bisector_of_anchors():
    # rational coordinates, so the integer anchors share a denominator M > 1
    rng = random.Random(91)
    for _ in range(60):
        n = rng.randint(2, 5)
        inst = _rational_instance(rng, n, rng.randint(1, n))
        edges = list(inst.edges())
        pairs = [(e1, e2) for e1 in edges for e2 in edges if e1 < e2]
        for e1, e2 in rng.sample(pairs, min(4, len(pairs))):
            p, q = inst.anchor(e1), inst.anchor(e2)
            line = bisector_line(inst, e1, e2)
            if p == q:
                assert line is None
            else:
                assert line == perpendicular_bisector(p, q)
    # equal anchors appear once B shifted by some vector lands on A twice
    inst = instance([(0, 0), ("1/3", "1/2")], [("5/2", 0), ("17/6", "1/2")])
    assert bisector_line(inst, EdgeRef(0, 0), EdgeRef(1, 1)) is None
    assert inst.int_anchors[0] == 6


def _fraction_line(alpha, beta, gamma):
    """The Fraction normal form: the first nonzero of (alpha, beta) is 1."""
    if alpha != 0:
        return F(1), beta / alpha, gamma / alpha
    return F(0), F(1), gamma / beta


def test_line_methods_equal_fraction_formulas():
    rng = random.Random(92)
    for i in range(300):
        coefs = [_rand_scalar(rng) for _ in range(3)]
        if i % 5 == 0:
            coefs[rng.randrange(2)] = F(0)  # axis-parallel lines
        if coefs[0] == 0 and coefs[1] == 0:
            with pytest.raises(ValueError):
                make_line(*coefs)
            continue
        line = make_line(*coefs)
        alpha, beta, gamma = _fraction_line(*coefs)
        den = lcm(alpha.denominator, beta.denominator, gamma.denominator)
        trip = tuple(int(v * den) for v in (alpha, beta, gamma))
        g = gcd(*trip)
        assert line.primitive_triple() == tuple(v // g for v in trip)
        assert (line.a, line.b, line.c) == line.primitive_triple()
        scale = _rand_scalar(rng) or F(1)
        assert make_line(*(v * scale for v in coefs)) == line
        assert line.direction() == Point(beta, -alpha)
        assert line.some_point() == (
            Point(gamma / alpha, F(0)) if alpha != 0 else Point(F(0), gamma / beta)
        )
        p = point(_rand_scalar(rng), _rand_scalar(rng))
        assert line.side(p) == alpha * p.x + beta * p.y - gamma
        n = Point(alpha, beta)
        assert line.foot(p) == p + n.scale((gamma - n.dot(p)) / n.norm2())
        other = make_line(*(_rand_scalar(rng) or F(1) for _ in range(3)))
        a2, b2, g2 = _fraction_line(*map(F, other.primitive_triple()))
        det = alpha * b2 - a2 * beta
        want = (
            None
            if det == 0
            else Point((gamma * b2 - g2 * beta) / det, (alpha * g2 - a2 * gamma) / det)
        )
        assert line_intersection(line, other) == want


def _hull(pts):
    """Strictly convex ccw hull of Fraction points (monotone chain)."""
    pts = sorted(set(pts))
    if len(pts) < 3:
        return pts
    chain = []
    for seq in (pts, pts[::-1]):
        part = []
        for p in seq:
            while len(part) >= 2 and (part[-1] - part[-2]).cross(p - part[-1]) <= 0:
                part.pop()
            part.append(p)
        chain += part[:-1]
    return chain


def _erode_reference(Q, B):
    """Erosion in Fraction arithmetic: clip Q's bounding box, then canonical_convex."""
    b0 = B[0]
    xs = [v.x - b0.x for v in Q.vertices]
    ys = [v.y - b0.y for v in Q.vertices]
    poly = [
        Point(min(xs), min(ys)),
        Point(max(xs), min(ys)),
        Point(max(xs), max(ys)),
        Point(min(xs), max(ys)),
    ]
    for v, w in Q.edges():
        d = w - v
        n = Point(d.y, -d.x)
        poly = _halfplane_clip(poly, n, n.dot(v) - max(n.dot(b) for b in B))
        if not poly:
            return None
    return canonical_convex(poly)


def test_erode_polygon_equals_fraction_reference():
    # Q is B's hull (the region is the point 0), B's hull swept along s (the
    # segment [0, s]), swept along s and u (a triangle), or random.
    rng = random.Random(93)
    dims = {}
    i = 0
    while i < 400:
        B = [
            point(F(rng.randint(-24, 24), d), F(rng.randint(-24, 24), d))
            for d in [rng.choice([1, 2, 3, 4, 6])]
            for _ in range(rng.randint(1, 4))
        ]
        s = point(_rand_scalar(rng, 2), _rand_scalar(rng, 2))
        u = point(_rand_scalar(rng, 2), _rand_scalar(rng, 2))
        shape = i % 4
        if shape == 0:
            hull = _hull(B)
        elif shape == 1:
            hull = _hull(B + [b + s for b in B])
        elif shape == 2:
            hull = _hull(B + [b + s for b in B] + [b + u for b in B])
        else:
            hull = _hull([point(_rand_scalar(rng, 2), _rand_scalar(rng, 2)) for _ in range(5)])
        if len(hull) < 3:
            continue
        i += 1
        Q = ConvexPolygon(tuple(hull))
        got = erode_polygon(Q, B)
        want = _erode_reference(Q, B)
        assert (got and got.vertices) == (want and want.vertices), (Q, B)
        key = "empty" if got is None else got.dim
        dims[key] = dims.get(key, 0) + 1
    assert set(dims) == {"empty", 0, 1, 2} and min(dims.values()) >= 20, dims
